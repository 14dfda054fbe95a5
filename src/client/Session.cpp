//===- client/Session.cpp - facade core: builder, session, mappings -------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// RequestBuilder validation (one funnel: every option goes through
// applyGenOption, exactly like the slc flag parser and the wire decoder),
// the address-string resolution that picks a backend, and the mappings
// from the internal error vocabularies onto the public code set.
//
//===----------------------------------------------------------------------===//

#include "client/ClientImpl.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "slingen/BatchStrategy.h"
#include "slingen/OptionsIO.h"
#include "support/File.h"

using namespace slingen;
using namespace slingen::client;
using namespace slingen::client::detail;

//===----------------------------------------------------------------------===//
// Codes
//===----------------------------------------------------------------------===//

const char *client::codeName(Code C) {
  switch (C) {
  case Code::Ok:
    return "ok";
  case Code::InvalidRequest:
    return "invalid-request";
  case Code::ParseError:
    return "parse-error";
  case Code::GenerationFailed:
    return "generation-failed";
  case Code::CompileFailed:
    return "compile-failed";
  case Code::NoCompiler:
    return "no-compiler";
  case Code::NotRunnable:
    return "not-runnable";
  case Code::InvalidKernelIR:
    return "invalid-kernel-ir";
  case Code::ConnectFailed:
    return "connect-failed";
  case Code::TransportError:
    return "transport-error";
  case Code::ProtocolError:
    return "protocol-error";
  case Code::Overloaded:
    return "overloaded";
  case Code::DeadlineExceeded:
    return "deadline-exceeded";
  case Code::InternalError:
    return "internal-error";
  }
  return "internal-error";
}

Code detail::mapServiceErrc(service::Errc E) {
  switch (E) {
  case service::Errc::None:
    return Code::Ok;
  case service::Errc::InvalidRequest:
    return Code::InvalidRequest;
  case service::Errc::ParseError:
    return Code::ParseError;
  case service::Errc::InvalidProgram:
    // The program parsed but is not a valid LA program; one public class
    // covers both ("the source is wrong").
    return Code::ParseError;
  case service::Errc::GenerationFailed:
    return Code::GenerationFailed;
  case service::Errc::CompileFailed:
    return Code::CompileFailed;
  case service::Errc::NoCompiler:
    return Code::NoCompiler;
  case service::Errc::NotRunnable:
    return Code::NotRunnable;
  case service::Errc::Overloaded:
    return Code::Overloaded;
  case service::Errc::DeadlineExceeded:
    return Code::DeadlineExceeded;
  case service::Errc::InvalidKernelIR:
    return Code::InvalidKernelIR;
  case service::Errc::Internal:
    return Code::InternalError;
  }
  return Code::InternalError;
}

Status detail::mapClientError(const net::ClientError &E, bool Connected) {
  // A deadline can expire on either side of the wire (the client's
  // poll-bounded read or the daemon's admission shed); both spell the
  // same public verdict, whatever category carried it.
  if (E.Code && *E.Code == service::Errc::DeadlineExceeded)
    return Status::failure(Code::DeadlineExceeded, E.Message);
  switch (E.Category) {
  case net::ErrorCategory::Transport:
    return Status::failure(Connected ? Code::TransportError
                                     : Code::ConnectFailed,
                           E.Message);
  case net::ErrorCategory::Protocol:
    return Status::failure(Code::ProtocolError, E.Message);
  case net::ErrorCategory::Daemon:
    // decodeErrorPayload only accepts a real class (never "ok"), so a
    // Daemon failure always carries one.
    return Status::failure(
        mapServiceErrc(E.Code.value_or(service::Errc::Internal)), E.Message);
  }
  return Status::failure(Code::InternalError, E.Message);
}

//===----------------------------------------------------------------------===//
// RequestBuilder
//===----------------------------------------------------------------------===//

RequestBuilder::RequestBuilder() = default;

RequestBuilder &RequestBuilder::source(std::string LaText) {
  Source = std::move(LaText);
  return *this;
}
RequestBuilder &RequestBuilder::sourceFile(std::string Path) {
  SourceFile = std::move(Path);
  return *this;
}
RequestBuilder &RequestBuilder::name(std::string FuncName) {
  return option("func", std::move(FuncName));
}
RequestBuilder &RequestBuilder::isa(std::string IsaName) {
  return option("isa", std::move(IsaName));
}
RequestBuilder &RequestBuilder::option(std::string Key, std::string Value) {
  Options.emplace_back(std::move(Key), std::move(Value));
  return *this;
}
RequestBuilder &RequestBuilder::batched(bool On) {
  Batched = On;
  return *this;
}
RequestBuilder &RequestBuilder::strategy(std::string Name) {
  StrategyName = std::move(Name);
  return *this;
}
RequestBuilder &RequestBuilder::threads(int K) {
  Threads = K;
  return *this;
}
RequestBuilder &RequestBuilder::measure(bool On) {
  Measure = On ? 1 : 0;
  return *this;
}
RequestBuilder &RequestBuilder::wantObject(bool On) {
  WantObject = On;
  return *this;
}
RequestBuilder &RequestBuilder::wantTiming(bool On) {
  WantTiming = On;
  return *this;
}
RequestBuilder &RequestBuilder::deadlineMs(int Ms) {
  DeadlineMs = Ms;
  return *this;
}

Result<Request> RequestBuilder::build() const {
  auto Bad = [](const std::string &Msg) {
    return Status::failure(Code::InvalidRequest, Msg);
  };
  Request R;
  if (!Source.empty() && !SourceFile.empty())
    return Bad("source() and sourceFile() are mutually exclusive");
  if (!SourceFile.empty()) {
    bool Ok = false;
    R.Source = readFile(SourceFile, &Ok);
    if (!Ok)
      return Bad("cannot open source file " + SourceFile);
  } else {
    R.Source = Source;
  }
  if (R.Source.empty())
    return Bad("a request needs LA source (source() or sourceFile())");

  // One validation funnel with slc/the wire: every option key/value runs
  // through applyGenOption, and the request carries the *canonical*
  // serialized document -- so equal requests hash equal server-side no
  // matter how they were spelled.
  GenOptions O;
  std::string Err;
  for (const auto &[Key, Value] : Options)
    if (!applyGenOption(O, Key, Value, Err))
      return Bad(Err);
  R.OptionsText = serializeGenOptions(O);
  R.FuncName = O.FuncName;

  if (!StrategyName.empty()) {
    if (!Batched)
      return Bad("strategy() requires batched()");
    if (!batchStrategyByName(StrategyName))
      return Bad("unknown batch strategy '" + StrategyName +
                 "' (loop, fused, or auto)");
  }
  if (Threads != 0) {
    if (!Batched)
      return Bad("threads() requires batched()");
    if (Threads < 0 || Threads > 1024)
      return Bad("threads() takes 0 (auto) to 1024");
  }
  if (DeadlineMs < 0)
    return Bad("deadlineMs() takes 0 (none) or a positive budget");
  R.Batched = Batched;
  R.StrategyName = StrategyName;
  R.Threads = Threads;
  R.Measure = Measure;
  R.WantObject = WantObject;
  R.WantTiming = WantTiming;
  R.DeadlineMs = DeadlineMs;
  return R;
}

//===----------------------------------------------------------------------===//
// Request lowering (shared by the backends)
//===----------------------------------------------------------------------===//

net::Request detail::toWireRequest(const Request &R) {
  net::Request W;
  W.LaSource = R.source();
  W.OptionsText = R.optionsText();
  W.Batched = R.batched();
  W.StrategyName = R.strategy();
  W.Threads = R.threads();
  W.MeasureOverride = R.measure();
  W.WantSo = R.wantObject();
  W.WantTiming = R.wantTiming();
  W.DeadlineMs =
      R.deadlineMs() > 0 ? static_cast<uint32_t>(R.deadlineMs()) : 0;
  return W;
}

void detail::toServiceArgs(const Request &R, GenOptions &Options,
                           service::RequestOptions &Req) {
  std::string Err;
  // The document is the builder's own canonical output; failure here would
  // be a bug, not an input error.
  (void)deserializeGenOptions(R.optionsText(), Options, Err);
  Req = {};
  Req.Batched = R.batched();
  if (!R.strategy().empty())
    Req.Strategy = batchStrategyByName(R.strategy());
  if (R.threads() > 0)
    Req.Threads = R.threads();
  if (R.measure() >= 0)
    Req.Measure = R.measure() != 0;
  // Absolute from the moment of the call, exactly like the daemon stamps
  // a wire deadline at arrival.
  if (R.deadlineMs() > 0)
    Req.DeadlineUs = obs::nowUs() + static_cast<long>(R.deadlineMs()) * 1000;
}

//===----------------------------------------------------------------------===//
// Session
//===----------------------------------------------------------------------===//

Session::Session() = default;
Session::Session(Session &&) noexcept = default;
Session &Session::operator=(Session &&) noexcept = default;
Session::~Session() = default;

Result<Session> Session::open(const std::string &Address,
                              SessionConfig Config) {
  Status Err;
  std::unique_ptr<Backend> B;
  if (Address.rfind("local:", 0) == 0) {
    B = makeLocalBackend(/*CacheDir=*/Address.substr(6), Config, Err);
  } else if (Address.rfind("auto:", 0) == 0) {
    std::string Remote = Address.substr(5);
    if (Remote.empty())
      return Status::failure(Code::InvalidRequest,
                             "auto: needs a remote address to try first");
    B = makeFallbackBackend(Remote, Config, Err);
  } else if (!Address.empty()) {
    B = makeRemoteBackend(Address, Config, /*Eager=*/true, Err);
  } else {
    return Status::failure(
        Code::InvalidRequest,
        "empty address (want local:, unix:<path>, tcp:<host>:<port>, or "
        "auto:<remote>)");
  }
  if (!B)
    return Err;
  Session S;
  S.B = std::move(B);
  S.Addr = Address;
  return S;
}

Result<Kernel> Session::get(const Request &R) { return B->get(R); }
Status Session::warm(const Request &R) { return B->warm(R); }
Status Session::drain() { return B->drain(); }
Status Session::ping() { return B->ping(); }
Result<std::string> Session::stats() { return B->stats(); }
Result<std::string> Session::metrics() { return B->metrics(); }
Session::BackendKind Session::backend() const { return B->kind(); }
const std::string &Session::address() const { return Addr; }

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

void client::setTracing(bool On) { obs::Tracer::global().setEnabled(On); }
bool client::tracingEnabled() { return obs::Tracer::global().enabled(); }
std::string client::exportTraceJson() {
  return obs::Tracer::global().exportChromeTrace();
}
bool client::exportTraceJson(const std::string &Path, std::string &Err) {
  return obs::Tracer::global().writeChromeTrace(Path, Err);
}
void client::clearTrace() { obs::Tracer::global().clear(); }
