//===- tests/client_test.cpp - public client API (sl::Session) tests ------===//
//
// Part of the SLinGen reproduction. MIT license.
//===----------------------------------------------------------------------===//
// The facade: request building/validation, the address grammar, kernels
// served through every backend kind, and -- the satellite contract -- the
// documented sl::Code for each error path (bad source, unknown ISA,
// unreachable daemon, daemon killed mid-session) surfacing identically
// through local and remote backends. Compiler-gated tests prove the
// local/daemon byte + numeric identity the facade promises.
//===----------------------------------------------------------------------===//

#include "slingen/client.h"

#include "client/ClientImpl.h"
#include "isa/ISA.h"
#include "la/Lower.h"
#include "la/Programs.h"
#include "net/Protocol.h"
#include "net/Server.h"
#include "net/Wire.h"
#include "runtime/Jit.h"
#include "runtime/Timing.h"
#include "service/KernelService.h"
#include "slingen/SLinGen.h"
#include "support/AlignedBuffer.h"
#include "support/FaultInject.h"
#include "support/Random.h"

#include "TestData.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include <stdlib.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace slingen;
using namespace slingen::testdata;

namespace {

/// RAII temporary directory (socket files, cache dirs).
struct TempDir {
  TempDir() {
    char Tmpl[] = "/tmp/slingen_client_XXXXXX";
    Path = mkdtemp(Tmpl);
  }
  ~TempDir() {
    std::error_code Ec;
    std::filesystem::remove_all(Path, Ec);
  }
  std::string Path;
};

/// A daemon over a temp Unix socket plus its backing service.
struct TestDaemon {
  explicit TestDaemon(service::ServiceConfig SC = {}) : Svc(std::move(SC)) {
    net::ServerConfig NC;
    NC.UnixPath = Dir.Path + "/sld.sock";
    Srv.emplace(Svc, NC);
    std::string Err;
    Ok = Srv->start(Err);
    if (!Ok)
      ADD_FAILURE() << "server start failed: " << Err;
  }

  TempDir Dir;
  service::KernelService Svc;
  std::optional<net::Server> Srv;
  bool Ok = false;
};

/// Session options for a deterministic, compiler-independent local service.
sl::SessionConfig noCompiler() {
  sl::SessionConfig C;
  C.ServiceOptions.emplace_back("use-compiler", "0");
  return C;
}

sl::Result<sl::Request> potrfRequest(const std::string &Func,
                                     const char *Isa = "scalar", int N = 8) {
  return sl::RequestBuilder()
      .source(la::potrfSource(N))
      .name(Func)
      .isa(Isa)
      .build();
}

//===----------------------------------------------------------------------===//
// Status / Result / RequestBuilder
//===----------------------------------------------------------------------===//

TEST(ClientStatus, CodesNameStablyAndStatusFormats) {
  EXPECT_STREQ(sl::codeName(sl::Code::ParseError), "parse-error");
  EXPECT_STREQ(sl::codeName(sl::Code::ConnectFailed), "connect-failed");
  sl::Status Ok = sl::Status::success();
  EXPECT_TRUE(Ok.ok());
  EXPECT_EQ(Ok.str(), "ok");
  sl::Status Bad = sl::Status::failure(sl::Code::NoCompiler, "nope");
  EXPECT_FALSE(Bad);
  EXPECT_EQ(Bad.code(), sl::Code::NoCompiler);
  EXPECT_EQ(Bad.str(), "no-compiler: nope");
}

TEST(ClientBuilder, ValidRequestCarriesCanonicalOptions) {
  auto R = sl::RequestBuilder()
               .source("Mat A(4,4) <In>;\n")
               .name("bld_ok")
               .isa("sse2")
               .option("unroll-k", "3")
               .batched()
               .strategy("fused")
               .threads(2)
               .measure()
               .build();
  ASSERT_TRUE(R) << R.message();
  EXPECT_EQ(R->functionName(), "bld_ok");
  EXPECT_NE(R->optionsText().find("isa=sse2"), std::string::npos);
  EXPECT_NE(R->optionsText().find("unroll-k=3"), std::string::npos);
  EXPECT_TRUE(R->batched());
  EXPECT_EQ(R->strategy(), "fused");
  EXPECT_EQ(R->threads(), 2);
  EXPECT_EQ(R->measure(), 1);
}

TEST(ClientBuilder, InvalidRequestsAreRejectedAtBuild) {
  // No source at all.
  auto NoSource = sl::RequestBuilder().name("x").build();
  EXPECT_EQ(NoSource.code(), sl::Code::InvalidRequest);

  // Unknown ISA: the satellite's "unknown ISA" error path. Caught at
  // build() -- before any backend -- so local and remote sessions see the
  // exact same code by construction.
  auto BadIsa =
      sl::RequestBuilder().source("Mat A(4,4) <In>;\n").isa("vax11").build();
  EXPECT_EQ(BadIsa.code(), sl::Code::InvalidRequest);
  EXPECT_NE(BadIsa.message().find("unknown ISA"), std::string::npos);

  auto BadOption = sl::RequestBuilder()
                       .source("Mat A(4,4) <In>;\n")
                       .option("no-such-knob", "1")
                       .build();
  EXPECT_EQ(BadOption.code(), sl::Code::InvalidRequest);

  auto BadStrategy = sl::RequestBuilder()
                         .source("Mat A(4,4) <In>;\n")
                         .batched()
                         .strategy("bogus")
                         .build();
  EXPECT_EQ(BadStrategy.code(), sl::Code::InvalidRequest);

  // "vec" named a batch strategy that is no longer emitted.
  auto Vec = sl::RequestBuilder()
                 .source("Mat A(4,4) <In>;\n")
                 .batched()
                 .strategy("vec")
                 .build();
  EXPECT_EQ(Vec.code(), sl::Code::InvalidRequest);

  auto StrategyNoBatch = sl::RequestBuilder()
                             .source("Mat A(4,4) <In>;\n")
                             .strategy("fused")
                             .build();
  EXPECT_EQ(StrategyNoBatch.code(), sl::Code::InvalidRequest);

  auto ThreadsNoBatch =
      sl::RequestBuilder().source("Mat A(4,4) <In>;\n").threads(4).build();
  EXPECT_EQ(ThreadsNoBatch.code(), sl::Code::InvalidRequest);

  auto MissingFile =
      sl::RequestBuilder().sourceFile("/nonexistent/input.la").build();
  EXPECT_EQ(MissingFile.code(), sl::Code::InvalidRequest);
}

TEST(ClientBuilder, DeadlineIsValidatedAndCarried) {
  auto Neg = sl::RequestBuilder()
                 .source("Mat A(4,4) <In>;\n")
                 .deadlineMs(-5)
                 .build();
  EXPECT_EQ(Neg.code(), sl::Code::InvalidRequest);
  EXPECT_NE(Neg.message().find("deadlineMs"), std::string::npos);

  auto R = sl::RequestBuilder()
               .source("Mat A(4,4) <In>;\n")
               .deadlineMs(2000)
               .build();
  ASSERT_TRUE(R) << R.message();
  EXPECT_EQ(R->deadlineMs(), 2000);

  // Default: no deadline.
  auto Plain = sl::RequestBuilder().source("Mat A(4,4) <In>;\n").build();
  ASSERT_TRUE(Plain);
  EXPECT_EQ(Plain->deadlineMs(), 0);
}

TEST(ClientSession, AddressGrammarIsValidated) {
  auto Empty = sl::Session::open("");
  EXPECT_EQ(Empty.code(), sl::Code::InvalidRequest);
  auto BareAuto = sl::Session::open("auto:");
  EXPECT_EQ(BareAuto.code(), sl::Code::InvalidRequest);
  auto BadServiceKey = [] {
    sl::SessionConfig C;
    C.ServiceOptions.emplace_back("no-such-option", "1");
    return sl::Session::open("local:", C);
  }();
  EXPECT_EQ(BadServiceKey.code(), sl::Code::InvalidRequest);
}

//===----------------------------------------------------------------------===//
// Local backend
//===----------------------------------------------------------------------===//

TEST(ClientLocal, ServesKernelWithProvenance) {
  auto S = sl::Session::open("local:", noCompiler());
  ASSERT_TRUE(S) << S.message();
  EXPECT_EQ(S->backend(), sl::Session::BackendKind::Local);
  EXPECT_TRUE(S->ping());

  auto R = potrfRequest("cl_local");
  ASSERT_TRUE(R) << R.message();
  auto K = S->get(*R);
  ASSERT_TRUE(K) << K.message();
  EXPECT_TRUE(K->valid());
  EXPECT_EQ(K->origin(), sl::Kernel::Origin::Local);
  EXPECT_EQ(K->functionName(), "cl_local");
  EXPECT_EQ(K->isa(), "scalar");
  EXPECT_EQ(K->key().size(), 16u);
  EXPECT_EQ(K->numParams(), 2);
  EXPECT_NE(K->cSource().find("void cl_local("), std::string::npos);

  // use-compiler=0: a source-only kernel answers call() with NoCompiler.
  EXPECT_FALSE(K->callable());
  double Dummy = 0.0;
  double *Bufs[2] = {&Dummy, &Dummy};
  EXPECT_EQ(K->call(Bufs).code(), sl::Code::NoCompiler);

  // A second get is a cache hit on the same service.
  ASSERT_TRUE(S->get(*R));
  auto Stats = S->stats();
  ASSERT_TRUE(Stats) << Stats.message();
  EXPECT_NE(Stats->find("mem-hits=1"), std::string::npos) << *Stats;
  EXPECT_NE(Stats->find("generations=1"), std::string::npos) << *Stats;
}

TEST(ClientLocal, LocalCacheDirAddressPersistsAcrossSessions) {
  TempDir Dir;
  std::string Key;
  {
    auto S = sl::Session::open("local:" + Dir.Path, noCompiler());
    ASSERT_TRUE(S) << S.message();
    auto R = potrfRequest("cl_disk");
    auto K = S->get(*R);
    ASSERT_TRUE(K) << K.message();
    Key = K->key();
  }
  // A fresh session over the same tier serves from disk, not generation.
  auto S2 = sl::Session::open("local:" + Dir.Path, noCompiler());
  ASSERT_TRUE(S2) << S2.message();
  auto R = potrfRequest("cl_disk");
  auto K2 = S2->get(*R);
  ASSERT_TRUE(K2) << K2.message();
  EXPECT_EQ(K2->key(), Key);
  auto Stats = S2->stats();
  ASSERT_TRUE(Stats);
  EXPECT_NE(Stats->find("disk-hits=1"), std::string::npos) << *Stats;
  EXPECT_NE(Stats->find("generations=0"), std::string::npos) << *Stats;
}

TEST(ClientLocal, BadSourceIsParseError) {
  auto S = sl::Session::open("local:", noCompiler());
  ASSERT_TRUE(S);
  auto R = sl::RequestBuilder().source("Mat A(8, 8) <In;\n").build();
  ASSERT_TRUE(R) << "builder does not parse LA; the backend does";
  auto K = S->get(*R);
  EXPECT_FALSE(K);
  EXPECT_EQ(K.code(), sl::Code::ParseError);
  EXPECT_NE(K.message().find("parse error"), std::string::npos);
}

TEST(ClientLocal, WarmThenGetIsAWarmHit) {
  auto S = sl::Session::open("local:", noCompiler());
  ASSERT_TRUE(S);
  auto R = potrfRequest("cl_warm");
  ASSERT_TRUE(S->warm(*R));
  ASSERT_TRUE(S->drain());
  auto K = S->get(*R);
  ASSERT_TRUE(K) << K.message();
  auto Stats = S->stats();
  ASSERT_TRUE(Stats);
  EXPECT_NE(Stats->find("prefetches=1"), std::string::npos) << *Stats;
  EXPECT_NE(Stats->find("generations=1"), std::string::npos) << *Stats;
  EXPECT_NE(Stats->find("mem-hits=1"), std::string::npos) << *Stats;
}

//===----------------------------------------------------------------------===//
// Remote backend
//===----------------------------------------------------------------------===//

TEST(ClientRemote, ServesKernelOverSocketWithSameKeyAsLocal) {
  service::ServiceConfig SC;
  SC.UseCompiler = false;
  TestDaemon D(SC);
  ASSERT_TRUE(D.Ok);

  auto S = sl::Session::open(D.Srv->unixPath());
  ASSERT_TRUE(S) << S.message();
  EXPECT_EQ(S->backend(), sl::Session::BackendKind::Remote);
  EXPECT_TRUE(S->ping());

  auto R = potrfRequest("cl_remote");
  auto K = S->get(*R);
  ASSERT_TRUE(K) << K.message();
  EXPECT_EQ(K->origin(), sl::Kernel::Origin::Remote);
  EXPECT_EQ(K->functionName(), "cl_remote");
  EXPECT_FALSE(K->callable()); // daemon has no compiler

  // The same request through a local session addresses the same cache
  // identity -- the facade's "one request, one key" promise.
  auto L = sl::Session::open("local:", noCompiler());
  ASSERT_TRUE(L);
  auto KL = L->get(*R);
  ASSERT_TRUE(KL) << KL.message();
  EXPECT_EQ(KL->key(), K->key());
  EXPECT_EQ(KL->cSource(), K->cSource());

  // Daemon-side stats flow through the same accessor.
  auto Stats = S->stats();
  ASSERT_TRUE(Stats) << Stats.message();
  EXPECT_NE(Stats->find("generations=1"), std::string::npos) << *Stats;
}

TEST(ClientRemote, BadSourceIsParseErrorThroughTheWire) {
  service::ServiceConfig SC;
  SC.UseCompiler = false;
  TestDaemon D(SC);
  ASSERT_TRUE(D.Ok);
  auto S = sl::Session::open(D.Srv->unixPath());
  ASSERT_TRUE(S) << S.message();

  // The documented code survives the ERR payload round trip.
  auto R = sl::RequestBuilder().source("Mat A(8, 8) <In;\n").build();
  auto K = S->get(*R);
  EXPECT_FALSE(K);
  EXPECT_EQ(K.code(), sl::Code::ParseError);
  EXPECT_NE(K.message().find("parse error"), std::string::npos);

  // And the session survives the error: the next request serves.
  auto Good = potrfRequest("cl_after_err");
  EXPECT_TRUE(S->get(*Good));
}

TEST(ClientRemote, UnreachableDaemonIsConnectFailed) {
  TempDir Dir;
  auto S = sl::Session::open("unix:" + Dir.Path + "/nobody-home.sock");
  EXPECT_FALSE(S);
  EXPECT_EQ(S.code(), sl::Code::ConnectFailed);
}

TEST(ClientRemote, DaemonKilledMidSessionIsTransportError) {
  service::ServiceConfig SC;
  SC.UseCompiler = false;
  TestDaemon D(SC);
  ASSERT_TRUE(D.Ok);
  auto S = sl::Session::open(D.Srv->unixPath());
  ASSERT_TRUE(S) << S.message();
  EXPECT_TRUE(S->ping());

  // Kill the daemon under the live session: the established connection
  // dies, the reconnect fails, and the surviving code says "mid-flight
  // death", not "never reachable".
  D.Srv->stop();
  auto R = potrfRequest("cl_killed");
  auto K = S->get(*R);
  EXPECT_FALSE(K);
  EXPECT_EQ(K.code(), sl::Code::TransportError) << K.message();
}

//===----------------------------------------------------------------------===//
// Resilience: retries, old-daemon downgrade
//===----------------------------------------------------------------------===//

TEST(ClientRemote, TransportRetryRecoversAfterDroppedConnection) {
  service::ServiceConfig SC;
  SC.UseCompiler = false;
  TestDaemon D(SC);
  ASSERT_TRUE(D.Ok);
  auto S = sl::Session::open(D.Srv->unixPath()); // eager ping, pre-fault
  ASSERT_TRUE(S) << S.message();

  // The next writeFrame anywhere in the process shuts its socket down:
  // the request dies in flight, and the default retry policy (2 retries)
  // must reconnect and serve it without surfacing an error.
  fault::arm("drop-connection", /*Count=*/1);
  auto R = potrfRequest("cl_retry");
  ASSERT_TRUE(R);
  auto K = S->get(*R);
  fault::reset();
  ASSERT_TRUE(K) << K.message();
  EXPECT_EQ(K->functionName(), "cl_retry");

  // With retries disabled the same fault surfaces as a transport error.
  sl::SessionConfig NoRetry;
  NoRetry.MaxRetries = 0;
  auto S0 = sl::Session::open(D.Srv->unixPath(), NoRetry);
  ASSERT_TRUE(S0) << S0.message();
  fault::arm("drop-connection", /*Count=*/1);
  auto K0 = S0->get(*R);
  fault::reset();
  EXPECT_FALSE(K0);
  EXPECT_EQ(K0.code(), sl::Code::TransportError) << K0.message();
}

/// A daemon that rejects as malformed every request carrying the trailing
/// want-timing/deadline/trace fields and serves a canned source-only
/// artifact to a bare one: a client that resent a rejected request
/// stripped of those fields would be served.
struct RejectingDaemon {
  RejectingDaemon() {
    Path = Dir.Path + "/reject.sock";
    Fd = socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un SA{};
    SA.sun_family = AF_UNIX;
    strncpy(SA.sun_path, Path.c_str(), sizeof(SA.sun_path) - 1);
    Ok = Fd >= 0 &&
         bind(Fd, reinterpret_cast<sockaddr *>(&SA), sizeof(SA)) == 0 &&
         listen(Fd, 8) == 0;
    if (Ok)
      T = std::thread([this] { serve(); });
  }
  ~RejectingDaemon() {
    if (Fd >= 0) {
      shutdown(Fd, SHUT_RDWR);
      close(Fd);
    }
    if (T.joinable())
      T.join();
  }

  void serve() {
    for (;;) {
      int C = accept(Fd, nullptr, nullptr);
      if (C < 0)
        return;
      std::string Err;
      net::Frame F;
      while (net::readFrame(C, F, Err) == net::ReadStatus::Ok) {
        if (F.verb() == net::Verb::Ping) {
          net::writeFrame(C, net::Verb::Ok, "", Err);
          continue;
        }
        net::Request R;
        if (!net::decodeRequest(F.Payload, R, Err) || R.WantTiming ||
            R.DeadlineMs > 0 || R.TraceId != 0) {
          ++Rejected;
          net::writeFrame(C, net::Verb::Error,
                          net::encodeErrorPayload(
                              service::Errc::InvalidRequest,
                              "bad request payload"),
                          Err);
          continue;
        }
        ++Served;
        net::ArtifactMsg A;
        A.Key = "0123456789abcdef";
        A.FuncName = "stripped_k";
        A.IsaName = "scalar";
        A.NumParams = 2;
        A.CSource = "void stripped_k(double *A, double *X) {}\n";
        net::writeFrame(C, net::Verb::Artifact, net::encodeArtifact(A), Err);
      }
      close(C);
    }
  }

  TempDir Dir;
  std::string Path;
  int Fd = -1;
  bool Ok = false;
  std::atomic<int> Rejected{0}, Served{0};
  std::thread T;
};

TEST(ClientRemote, RejectedRequestIsNotResent) {
  RejectingDaemon D;
  ASSERT_TRUE(D.Ok);
  auto S = sl::Session::open("unix:" + D.Path);
  ASSERT_TRUE(S) << S.message();

  // A rejection is the caller's answer: the request (every one rides with
  // a trace id) is sent once, never again stripped of its trailing fields.
  auto R = sl::RequestBuilder()
               .source(la::potrfSource(8))
               .name("cl_rejected")
               .isa("scalar")
               .build();
  ASSERT_TRUE(R) << R.message();
  auto K = S->get(*R);
  EXPECT_FALSE(K);
  EXPECT_EQ(K.code(), sl::Code::InvalidRequest) << K.message();
  EXPECT_EQ(D.Rejected.load(), 1);
  EXPECT_EQ(D.Served.load(), 0);
}

//===----------------------------------------------------------------------===//
// Fallback backend (auto:)
//===----------------------------------------------------------------------===//

TEST(ClientFallback, PrefersDaemonThenDegradesOnTransportFailure) {
  service::ServiceConfig SC;
  SC.UseCompiler = false;
  TestDaemon D(SC);
  ASSERT_TRUE(D.Ok);

  auto S = sl::Session::open("auto:" + D.Srv->unixPath(), noCompiler());
  ASSERT_TRUE(S) << S.message();
  EXPECT_EQ(S->backend(), sl::Session::BackendKind::Fallback);

  auto R = potrfRequest("cl_fb");
  auto K1 = S->get(*R);
  ASSERT_TRUE(K1) << K1.message();
  EXPECT_EQ(K1->origin(), sl::Kernel::Origin::Remote);

  // Daemon gone: the same session serves the same request locally, same
  // key, no error surfaced to the caller.
  D.Srv->stop();
  auto K2 = S->get(*R);
  ASSERT_TRUE(K2) << K2.message();
  EXPECT_EQ(K2->origin(), sl::Kernel::Origin::Local);
  EXPECT_EQ(K2->key(), K1->key());
  EXPECT_EQ(K2->cSource(), K1->cSource());
}

TEST(ClientFallback, DaemonVerdictsDoNotFallBack) {
  service::ServiceConfig SC;
  SC.UseCompiler = false;
  TestDaemon D(SC);
  ASSERT_TRUE(D.Ok);
  auto S = sl::Session::open("auto:" + D.Srv->unixPath(), noCompiler());
  ASSERT_TRUE(S);

  // A parse error is the daemon's verdict on the request; re-running it
  // locally would only repeat it, so the fallback must not.
  auto Bad = sl::RequestBuilder().source("Mat A(8, 8) <In;\n").build();
  auto K = S->get(*Bad);
  EXPECT_FALSE(K);
  EXPECT_EQ(K.code(), sl::Code::ParseError);
  service::ServiceStats St = D.Svc.stats();
  EXPECT_EQ(St.Errors, 1) << "the daemon, not a local fallback, answered";
}

TEST(ClientFallback, NoDaemonAtAllServesLocallyFromOpen) {
  TempDir Dir;
  auto S = sl::Session::open("auto:" + Dir.Path + "/never-there.sock",
                             noCompiler());
  ASSERT_TRUE(S) << S.message();
  auto R = potrfRequest("cl_fb_cold");
  auto K = S->get(*R);
  ASSERT_TRUE(K) << K.message();
  EXPECT_EQ(K->origin(), sl::Kernel::Origin::Local);
}

//===----------------------------------------------------------------------===//
// Local/daemon identity (the acceptance bar) -- compiler-gated
//===----------------------------------------------------------------------===//

TEST(ClientIdentity, LocalAndDaemonServeBitIdenticalKernels) {
  if (!runtime::haveSystemCompiler())
    GTEST_SKIP() << "no system C compiler";
  TempDir LocalDir, RemoteDir;
  const int N = 8;

  auto R = potrfRequest("cl_ident", hostIsa().Name, N);
  ASSERT_TRUE(R) << R.message();

  // Local: an in-process service with a disk tier (so the object is
  // compiled under the same portable flag set the daemon uses).
  auto LS = sl::Session::open("local:" + LocalDir.Path);
  ASSERT_TRUE(LS) << LS.message();
  auto LK = LS->get(*R);
  ASSERT_TRUE(LK) << LK.message();
  ASSERT_TRUE(LK->callable());

  // Remote: the same request through a daemon with its own tier.
  service::ServiceConfig SC;
  SC.CacheDir = RemoteDir.Path;
  TestDaemon D(SC);
  ASSERT_TRUE(D.Ok);
  auto RS = sl::Session::open(D.Srv->unixPath());
  ASSERT_TRUE(RS) << RS.message();
  auto RK = RS->get(*R);
  ASSERT_TRUE(RK) << RK.message();
  ASSERT_TRUE(RK->callable());

  // Identical provenance, identical emitted C, and -- the facade's
  // acceptance bar -- bit-identical compiled kernel bytes.
  EXPECT_EQ(LK->key(), RK->key());
  EXPECT_EQ(LK->cSource(), RK->cSource());
  ASSERT_FALSE(LK->objectBytes().empty());
  EXPECT_EQ(LK->objectBytes(), RK->objectBytes())
      << "local JIT and daemon-shipped objects must match byte for byte";

  // And identical numerics, bit for bit.
  if (LK->hostRunnable()) {
    Rng Rand(17);
    std::vector<double> In = spd(N, Rand), InCopy = In;
    std::vector<double> XL(N * N, 0.0), XR(N * N, 0.0);
    double *LB[2] = {In.data(), XL.data()};
    double *RB[2] = {InCopy.data(), XR.data()};
    ASSERT_TRUE(LK->call(LB));
    ASSERT_TRUE(RK->call(RB));
    EXPECT_EQ(XL, XR);
    double Nonzero = 0.0;
    for (double V : XR)
      Nonzero += std::fabs(V);
    EXPECT_GT(Nonzero, 0.0);
  }

  // Typed misuse: batched dispatch on a non-batched kernel is an
  // InvalidRequest, identically for both origins.
  std::vector<double> B1(N * N, 1.0), B2(N * N, 1.0);
  double *Bufs[2] = {B1.data(), B2.data()};
  EXPECT_EQ(LK->callBatch(2, Bufs).code(), sl::Code::InvalidRequest);
  EXPECT_EQ(RK->callBatch(2, Bufs).code(), sl::Code::InvalidRequest);
}

TEST(ClientIdentity, BatchedKernelDispatchesThroughFacade) {
  if (!runtime::haveSystemCompiler())
    GTEST_SKIP() << "no system C compiler";
  const int N = 4, Count = 5;

  auto R = sl::RequestBuilder()
               .source(la::potrfSource(N))
               .name("cl_batch")
               .isa(hostIsa().Name)
               .batched()
               .strategy("loop")
               .build();
  ASSERT_TRUE(R) << R.message();

  auto S = sl::Session::open("local:");
  ASSERT_TRUE(S) << S.message();
  auto K = S->get(*R);
  ASSERT_TRUE(K) << K.message();
  ASSERT_TRUE(K->batched());
  EXPECT_EQ(K->strategy(), "loop");
  if (!K->hostRunnable())
    GTEST_SKIP() << "host cannot run " << K->isa();

  // Batch of SPD instances; results must match per-instance single calls.
  // Batch buffers are cache-line aligned per the `_batch` ABI contract.
  Rng Rand(23);
  AlignedBuffer ABatch(static_cast<size_t>(Count) * N * N);
  std::vector<double> ASingle;
  for (int B = 0; B < Count; ++B) {
    std::vector<double> A = spd(N, Rand);
    std::copy(A.begin(), A.end(),
              ABatch.begin() + static_cast<size_t>(B) * N * N);
    ASingle.insert(ASingle.end(), A.begin(), A.end());
  }
  AlignedBuffer XBatch(static_cast<size_t>(Count) * N * N);
  std::vector<double> XSingle(static_cast<size_t>(Count) * N * N, 0.0);
  double *BatchBufs[2] = {ABatch.data(), XBatch.data()};
  ASSERT_TRUE(K->callBatch(Count, BatchBufs));
  for (int B = 0; B < Count; ++B) {
    double *Bufs[2] = {ASingle.data() + static_cast<size_t>(B) * N * N,
                       XSingle.data() + static_cast<size_t>(B) * N * N};
    ASSERT_TRUE(K->call(Bufs));
  }
  EXPECT_EQ(maxAbsDiff(XBatch, XSingle), 0.0);
}

//===----------------------------------------------------------------------===//
// Typed dispatch failures and the handle's resolved dispatch state
//===----------------------------------------------------------------------===//

/// A batched potrf request at \p Isa ("loop": one instance per iteration,
/// so every ISA's batch entry is a plain loop over the single kernel).
sl::Result<sl::Request> batchedPotrf(const std::string &Func, const char *Isa,
                                     int N) {
  return sl::RequestBuilder()
      .source(la::potrfSource(N))
      .name(Func)
      .isa(Isa)
      .batched()
      .strategy("loop")
      .build();
}

/// The wire message a daemon would send for \p K, with its ISA renamed.
net::ArtifactMsg messageFor(const sl::Kernel &K, const std::string &Isa) {
  net::ArtifactMsg M;
  M.Key = K.key();
  M.FuncName = K.functionName();
  M.IsaName = Isa;
  M.NumParams = K.numParams();
  M.Batched = K.batched();
  M.StrategyName = K.strategy();
  M.BatchThreads = K.batchThreads();
  M.CSource = K.cSource();
  M.SoBytes = K.objectBytes();
  return M;
}

/// The shipped objects this process has staged under TMPDIR
/// (JitKernel::loadFromBytes writes them as `slingen_<pid>_<n>.so`).
std::set<std::string> stagedObjects() {
  const char *Dir = getenv("TMPDIR");
  const std::string Prefix = "slingen_" + std::to_string(getpid()) + "_";
  std::set<std::string> Names;
  std::error_code Ec;
  for (const auto &E :
       std::filesystem::directory_iterator(Dir ? Dir : "/tmp", Ec)) {
    std::string Name = E.path().filename().string();
    if (Name.starts_with(Prefix) && Name.ends_with(".so"))
      Names.insert(Name);
  }
  return Names;
}

TEST(ClientDispatch, EmptyHandleIsInvalidRequest) {
  sl::Kernel K;
  EXPECT_FALSE(K.callable());
  EXPECT_FALSE(K.hostRunnable());
  double X = 0.0;
  double *Bufs[1] = {&X};
  for (const sl::Status &St : {K.call(Bufs), K.callBatch(1, Bufs)}) {
    EXPECT_EQ(St.code(), sl::Code::InvalidRequest);
    EXPECT_EQ(St.message(), "empty kernel handle");
  }
}

TEST(ClientDispatch, SourceOnlyHandleIsNoCompiler) {
  auto S = sl::Session::open("local:", noCompiler());
  ASSERT_TRUE(S) << S.message();
  auto K = S->get(*potrfRequest("cl_srconly"));
  ASSERT_TRUE(K) << K.message();
  EXPECT_FALSE(K->callable());
  double X = 0.0;
  double *Bufs[2] = {&X, &X};
  for (const sl::Status &St : {K->call(Bufs), K->callBatch(1, Bufs)}) {
    EXPECT_EQ(St.code(), sl::Code::NoCompiler);
    EXPECT_EQ(St.message(),
              "kernel cl_srconly is source-only (no compiled object)");
  }
}

TEST(ClientDispatch, UnknownWireIsaIsNotRunnable) {
  if (!runtime::haveSystemCompiler())
    GTEST_SKIP() << "no system C compiler";
  const int N = 4;
  auto S = sl::Session::open("local:");
  ASSERT_TRUE(S) << S.message();
  auto Served = S->get(*batchedPotrf("cl_neon", hostIsa().Name, N));
  ASSERT_TRUE(Served) << Served.message();
  ASSERT_FALSE(Served->objectBytes().empty());

  // A newer daemon may name an ISA this build does not know. The shipped
  // object is real, but nothing proves it runs here, so it is kept as
  // bytes and neither staged nor loaded.
  const std::set<std::string> Staged = stagedObjects();
  auto K = client::detail::KernelFactory::fromMessage(
      messageFor(*Served, "neon"), 0);
  ASSERT_TRUE(K) << K.message();
  EXPECT_EQ(stagedObjects(), Staged) << "an unrunnable object was staged";
  EXPECT_EQ(K->origin(), sl::Kernel::Origin::Remote);
  EXPECT_EQ(K->isa(), "neon");
  EXPECT_EQ(K->objectBytes(), Served->objectBytes());
  EXPECT_FALSE(K->callable());
  EXPECT_FALSE(K->hostRunnable());

  Rng Rand(5);
  AlignedBuffer A(N * N), X(N * N);
  std::vector<double> In = spd(N, Rand);
  std::copy(In.begin(), In.end(), A.begin());
  std::fill(X.begin(), X.end(), -7.0);
  double *Bufs[2] = {A.data(), X.data()};
  for (bool Batch : {false, true}) {
    sl::Status St = Batch ? K->callBatch(1, Bufs) : K->call(Bufs);
    ASSERT_EQ(St.code(), sl::Code::NotRunnable) << St.str();
    EXPECT_EQ(St.message(), "kernel targets neon, which this host cannot run");
    for (double V : X)
      ASSERT_EQ(V, -7.0) << "a refused dispatch ran the kernel";
  }

  // Control: the same message under its real ISA name is staged, loaded
  // and dispatches.
  auto Real = client::detail::KernelFactory::fromMessage(
      messageFor(*Served, hostIsa().Name), 0);
  ASSERT_TRUE(Real) << Real.message();
  EXPECT_EQ(stagedObjects().size(), Staged.size() + 1);
  EXPECT_TRUE(Real->callable());
  EXPECT_TRUE(Real->hostRunnable());
  EXPECT_TRUE(Real->call(Bufs));
  EXPECT_NE(X[0], -7.0);
}

TEST(ClientDispatch, MisalignedBatchBufferIsRefusedLocallyAndRemotely) {
  if (!runtime::haveSystemCompiler())
    GTEST_SKIP() << "no system C compiler";
  const int N = 4, Count = 3;
  auto R = batchedPotrf("cl_misalign", hostIsa().Name, N);
  ASSERT_TRUE(R) << R.message();
  auto LS = sl::Session::open("local:");
  ASSERT_TRUE(LS) << LS.message();
  TestDaemon D;
  ASSERT_TRUE(D.Ok);
  auto RS = sl::Session::open(D.Srv->unixPath());
  ASSERT_TRUE(RS) << RS.message();

  const size_t Len = static_cast<size_t>(Count) * N * N;
  Rng Rand(11);
  for (sl::Session *S : {&*LS, &*RS}) {
    auto K = S->get(*R);
    ASSERT_TRUE(K) << K.message();
    ASSERT_TRUE(K->hostRunnable());
    // One spare double per buffer, so base + 1 is an in-bounds but
    // misaligned batch.
    AlignedBuffer A(Len + 1), X(Len + 1);
    for (int B = 0; B < Count; ++B) {
      std::vector<double> In = spd(N, Rand);
      std::copy(In.begin(), In.end(), A.begin() + B * N * N);
    }
    std::fill(X.begin(), X.end(), -7.0);
    for (int P = 0; P < 2; ++P) {
      double *Bufs[2] = {A.data() + (P == 0), X.data() + (P == 1)};
      sl::Status St = K->callBatch(Count, Bufs);
      EXPECT_EQ(St.code(), sl::Code::InvalidRequest) << St.str();
      EXPECT_EQ(St.message(),
                runtime::JitKernel::misalignedBatchMessage(P));
      EXPECT_NE(St.message().find("not 64-byte aligned"), std::string::npos);
      for (double V : X)
        ASSERT_EQ(V, -7.0) << "a refused batch ran the kernel";
    }
    // Control: the aligned batch dispatches.
    double *Bufs[2] = {A.data(), X.data()};
    EXPECT_TRUE(K->callBatch(Count, Bufs));
    EXPECT_NE(X[0], -7.0);
  }
}

TEST(ClientDispatch, ResolvedStateIsSharedByCopiesAndMatchesTheEntry) {
  if (!runtime::haveSystemCompiler())
    GTEST_SKIP() << "no system C compiler";
  const int N = 4;
  auto S = sl::Session::open("local:");
  ASSERT_TRUE(S) << S.message();
  int Ran = 0;
  for (const VectorISA *Isa :
       {&scalarIsa(), &sse2Isa(), &avxIsa(), &avx512Isa()}) {
    SCOPED_TRACE(Isa->Name);
    auto K = S->get(*batchedPotrf(std::string("cl_res_") + Isa->Name,
                                  Isa->Name, N));
    ASSERT_TRUE(K) << K.message();
    const sl::Kernel Copy = *K, CopyOfCopy = Copy;
    for (const sl::Kernel *C : {&Copy, &CopyOfCopy}) {
      EXPECT_EQ(C->callable(), K->callable());
      EXPECT_EQ(C->hostRunnable(), K->hostRunnable());
      EXPECT_EQ(C->isa(), K->isa());
    }
    EXPECT_EQ(K->isa(), Isa->Name);
    EXPECT_EQ(K->hostRunnable(), hostCanRun(Isa));
    if (!K->hostRunnable())
      continue;
    ++Ran;

    // The loaded object's own entries are the reference.
    std::string Err;
    auto J = runtime::JitKernel::loadFromBytes(
        K->objectBytes(), K->functionName(), K->numParams(), Err,
        /*WithBatchEntry=*/true);
    ASSERT_TRUE(J) << Err;

    const int Count = 2 * Isa->Nu + 3;
    const size_t Len = static_cast<size_t>(Count) * N * N;
    Rng Rand(31);
    AlignedBuffer A(Len), XK(Len), XJ(Len);
    for (int B = 0; B < Count; ++B) {
      std::vector<double> In = spd(N, Rand);
      std::copy(In.begin(), In.end(), A.begin() + B * N * N);
    }
    auto Same = [&] {
      return std::memcmp(XK.data(), XJ.data(), Len * sizeof(double)) == 0;
    };
    // call, callBatch and call again, back to back through the copies.
    double *KB[2] = {A.data(), XK.data()}, *JB[2] = {A.data(), XJ.data()};
    ASSERT_TRUE(Copy.call(KB));
    J->call(JB);
    EXPECT_TRUE(Same()) << "call";
    ASSERT_TRUE(CopyOfCopy.callBatch(Count, KB));
    J->callBatch(Count, JB);
    EXPECT_TRUE(Same()) << "callBatch";
    double *KL[2] = {A.data() + (Count - 1) * N * N,
                     XK.data() + (Count - 1) * N * N};
    double *JL[2] = {A.data() + (Count - 1) * N * N,
                     XJ.data() + (Count - 1) * N * N};
    std::fill(XK.begin(), XK.end(), 0.0);
    std::fill(XJ.begin(), XJ.end(), 0.0);
    ASSERT_TRUE(K->call(KL));
    J->call(JL);
    EXPECT_TRUE(Same()) << "call after callBatch";
  }
  EXPECT_GE(Ran, 1) << "the host runs no ISA";
}

//===----------------------------------------------------------------------===//
// Timing breakdown and tracing through the facade
//===----------------------------------------------------------------------===//

TEST(ClientTiming, BreakdownSurfacesLocallyAndOnlyWhenAsked) {
  auto S = sl::Session::open("local:", noCompiler());
  ASSERT_TRUE(S) << S.message();

  auto Timed = sl::RequestBuilder()
                   .source(la::potrfSource(8))
                   .name("timing_potrf")
                   .isa("scalar")
                   .wantTiming()
                   .build();
  ASSERT_TRUE(Timed) << Timed.message();
  EXPECT_TRUE(Timed->wantTiming());

  // Miss: the breakdown says the kernel was generated, and the
  // client-measured round trip bounds the service's own total.
  auto K = S->get(*Timed);
  ASSERT_TRUE(K) << K.message();
  const sl::TimingBreakdown *T = K->timing();
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->Tier, "generated");
  EXPECT_GT(T->GenUs, 0);
  EXPECT_GE(T->TotalUs, T->GenUs);
  EXPECT_GE(T->RoundTripUs, T->TotalUs);

  // Hit: a fresh handle whose breakdown reports the memory tier.
  K = S->get(*Timed);
  ASSERT_TRUE(K) << K.message();
  T = K->timing();
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->Tier, "mem");
  EXPECT_EQ(T->GenUs, 0);

  // Not asked: no breakdown, same kernel.
  auto Plain = potrfRequest("timing_potrf");
  ASSERT_TRUE(Plain);
  EXPECT_FALSE(Plain->wantTiming());
  K = S->get(*Plain);
  ASSERT_TRUE(K) << K.message();
  EXPECT_EQ(K->timing(), nullptr);
}

TEST(ClientTiming, BreakdownRidesTheWire) {
  service::ServiceConfig SC;
  SC.UseCompiler = false;
  TestDaemon D(SC);
  ASSERT_TRUE(D.Ok);
  auto S = sl::Session::open(D.Srv->unixPath());
  ASSERT_TRUE(S) << S.message();

  auto R = sl::RequestBuilder()
               .source(la::potrfSource(8))
               .name("wire_timing")
               .isa("scalar")
               .wantObject(false)
               .wantTiming()
               .build();
  ASSERT_TRUE(R) << R.message();
  auto K = S->get(*R);
  ASSERT_TRUE(K) << K.message();
  const sl::TimingBreakdown *T = K->timing();
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->Tier, "generated");
  // The round trip is measured client-side and includes the wire, so it
  // bounds the daemon's own accounting from above.
  EXPECT_GE(T->RoundTripUs, T->TotalUs);
}

TEST(ClientTracing, FacadeCollectsAndExportsSpans) {
  bool WasOn = sl::tracingEnabled();
  sl::clearTrace();
  sl::setTracing(true);
  EXPECT_TRUE(sl::tracingEnabled());

  auto S = sl::Session::open("local:", noCompiler());
  ASSERT_TRUE(S) << S.message();
  auto R = potrfRequest("traced_potrf");
  ASSERT_TRUE(R);
  ASSERT_TRUE(S->get(*R)) << "traced get failed";

  std::string J = sl::exportTraceJson();
  EXPECT_NE(J.find("\"traceEvents\""), std::string::npos);
  // The service's generation span must be in the export -- proof the
  // whole stack, not just the facade, records into one tracer.
  EXPECT_NE(J.find("\"name\": \"generate\""), std::string::npos) << J;

  sl::setTracing(WasOn);
  sl::clearTrace();
  // Disabled again: new work records nothing.
  if (!WasOn) {
    ASSERT_TRUE(S->get(*R));
    EXPECT_EQ(sl::exportTraceJson().find("\"name\": \"generate\""),
              std::string::npos);
  }
}

TEST(ClientTracing, MergedTraceSharesOneTraceIdAcrossTheWire) {
  bool WasOn = sl::tracingEnabled();
  sl::clearTrace();
  sl::setTracing(true);

  service::ServiceConfig SC;
  SC.UseCompiler = false;
  TestDaemon D(SC);
  ASSERT_TRUE(D.Ok);
  auto S = sl::Session::open(D.Srv->unixPath());
  ASSERT_TRUE(S) << S.message();

  auto R = sl::RequestBuilder()
               .source(la::potrfSource(8))
               .name("merged_trace")
               .isa("scalar")
               .wantTiming()
               .build();
  ASSERT_TRUE(R) << R.message();
  auto K = S->get(*R);
  ASSERT_TRUE(K) << K.message();

  std::string J = sl::exportTraceJson();
  sl::setTracing(WasOn);
  sl::clearTrace();

  // One export holds the client's round trip AND the daemon's phases --
  // the daemon shipped its span list back on the timed reply.
  EXPECT_NE(J.find("\"name\": \"client-roundtrip\""), std::string::npos)
      << J;
  EXPECT_NE(J.find("\"name\": \"generate\""), std::string::npos) << J;

  // And every stamped span carries the same request trace id: collect the
  // distinct "trace" args across both sides of the wire.
  std::set<std::string> Ids;
  const char *Marker = "\"trace\": \"";
  for (size_t P = J.find(Marker); P != std::string::npos;
       P = J.find(Marker, P + 1))
    Ids.insert(J.substr(P + strlen(Marker), 16));
  EXPECT_EQ(Ids.size(), 1u) << J;
}

TEST(ClientTracing, MeasuredMissShipsEveryCompileSpanWithItsTraceId) {
  if (!runtime::haveSystemCompiler() || !runtime::haveCycleCounter() ||
      hostIsa().Nu < 2)
    GTEST_SKIP() << "needs a compiler, a cycle counter and vector lanes";
  // A measured batched miss compiles TopK' variants on several threads of
  // the daemon, then the batched translation unit.
  GenOptions O;
  O.Isa = &hostIsa();
  std::string Err;
  auto P = la::compileLa(la::potrfSource(8), Err);
  ASSERT_TRUE(P) << Err;
  service::ServiceConfig SC;
  SC.MeasureRepeats = 3;
  Generator G(std::move(*P), O);
  const int Compiles =
      std::min<int>(SC.TuneTopK,
                    static_cast<int>(G.enumerate(SC.MaxVariants).size())) +
      1;

  bool WasOn = sl::tracingEnabled();
  sl::clearTrace();
  sl::setTracing(true);
  TestDaemon D(SC);
  ASSERT_TRUE(D.Ok);
  auto S = sl::Session::open(D.Srv->unixPath());
  ASSERT_TRUE(S) << S.message();
  auto R = sl::RequestBuilder()
               .source(la::potrfSource(8))
               .name("traced_rounds")
               .isa(hostIsa().Name)
               .batched()
               .measure()
               .wantObject(false)
               .wantTiming()
               .build();
  ASSERT_TRUE(R) << R.message();
  auto K = S->get(*R);
  std::string J = sl::exportTraceJson();
  sl::setTracing(WasOn);
  sl::clearTrace();
  ASSERT_TRUE(K) << K.message();

  // The daemon runs in this process, so the export holds each `cc` span
  // twice: as the daemon recorded it, and as the client merged it from the
  // reply (its tid offset by 1000). Every one carries the request's id.
  std::string RoundTripTrace;
  int Recorded = 0, Shipped = 0;
  std::set<std::string> CcTraces;
  std::istringstream In(J);
  for (std::string Line; std::getline(In, Line);) {
    size_t T = Line.find("\"trace\": \"");
    std::string Trace = T == std::string::npos ? "" : Line.substr(T + 10, 16);
    if (Line.find("\"name\": \"client-roundtrip\"") != std::string::npos)
      RoundTripTrace = Trace;
    if (Line.find("\"name\": \"cc\",") == std::string::npos)
      continue;
    CcTraces.insert(Trace);
    size_t Tid = Line.find("\"tid\": ");
    ASSERT_NE(Tid, std::string::npos) << Line;
    (std::stoul(Line.substr(Tid + 7)) >= 1000 ? Shipped : Recorded)++;
  }
  EXPECT_EQ(Shipped, Compiles) << J;
  EXPECT_EQ(Recorded, Compiles) << J;
  ASSERT_FALSE(RoundTripTrace.empty()) << J;
  EXPECT_EQ(CcTraces, std::set<std::string>{RoundTripTrace}) << J;
}

} // namespace
