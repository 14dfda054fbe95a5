//===- net/Protocol.cpp ---------------------------------------------------==//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "net/Protocol.h"

#include "net/Wire.h"
#include "obs/Metrics.h"
#include "slingen/OptionsIO.h"

using namespace slingen;
using namespace slingen::net;

namespace {

/// RequestTiming's counters in wire order (they follow the tier string).
constexpr long service::RequestTiming::*TimingCounters[] = {
    &service::RequestTiming::CacheUs,   &service::RequestTiming::WaitUs,
    &service::RequestTiming::DiskUs,    &service::RequestTiming::GenUs,
    &service::RequestTiming::TuneUs,    &service::RequestTiming::CompileUs,
    &service::RequestTiming::TotalUs,
};

} // namespace

std::string net::encodeRequest(const Request &R) {
  ByteWriter W;
  W.str(R.LaSource);
  W.str(R.OptionsText);
  W.u8(R.Batched ? 1 : 0);
  W.str(R.StrategyName);
  W.u32(static_cast<uint32_t>(R.Threads < 0 ? 0 : R.Threads));
  W.u8(R.MeasureOverride < 0 ? 0xff
                             : static_cast<uint8_t>(R.MeasureOverride));
  W.u8(R.WantSo ? 1 : 0);
  W.u8(R.WantTiming ? 1 : 0);
  W.u32(R.DeadlineMs);
  W.u64(R.TraceId);
  return W.take();
}

bool net::decodeRequest(const std::string &Payload, Request &R,
                        std::string &Err) {
  ByteReader B(Payload);
  uint8_t Batched, Measure, WantSo, WantTiming;
  uint32_t Threads;
  // 1024 is far above any real dispatch width; beyond it the field is
  // garbage, not a knob.
  if (!B.str(R.LaSource) || !B.str(R.OptionsText) || !B.u8(Batched) ||
      !B.str(R.StrategyName) || !B.u32(Threads) || !B.u8(Measure) ||
      !B.u8(WantSo) || !B.u8(WantTiming) || !B.u32(R.DeadlineMs) ||
      !B.u64(R.TraceId) || !B.atEnd() || Batched > 1 || WantSo > 1 ||
      WantTiming > 1 || (Measure > 1 && Measure != 0xff) || Threads > 1024) {
    Err = "malformed request payload";
    return false;
  }
  R.Batched = Batched == 1;
  R.Threads = static_cast<int>(Threads);
  R.MeasureOverride = Measure == 0xff ? -1 : Measure;
  R.WantSo = WantSo == 1;
  R.WantTiming = WantTiming == 1;
  return true;
}

bool net::requestToServiceArgs(const Request &R, GenOptions &Options,
                               service::RequestOptions &Req,
                               std::string &Err) {
  if (!deserializeGenOptions(R.OptionsText, Options, Err))
    return false;
  Req = {};
  Req.Batched = R.Batched;
  if (!R.StrategyName.empty()) {
    auto S = batchStrategyByName(R.StrategyName);
    if (!S) {
      Err = "unknown batch strategy '" + R.StrategyName + "'";
      return false;
    }
    Req.Strategy = *S;
  }
  if (R.Threads > 0)
    Req.Threads = R.Threads;
  if (R.MeasureOverride >= 0)
    Req.Measure = R.MeasureOverride != 0;
  // The wire carries a relative budget (clocks differ across hosts); it
  // becomes absolute on arrival, so time queued inside the daemon counts
  // against it.
  if (R.DeadlineMs > 0)
    Req.DeadlineUs = obs::nowUs() + static_cast<long>(R.DeadlineMs) * 1000;
  return true;
}

std::string net::encodeArtifact(const ArtifactMsg &A) {
  ByteWriter W;
  W.str(A.Key);
  W.str(A.FuncName);
  W.str(A.IsaName);
  W.u32(static_cast<uint32_t>(A.NumParams));
  W.u8(A.Batched ? 1 : 0);
  W.str(A.StrategyName);
  W.u32(static_cast<uint32_t>(A.BatchThreads < 1 ? 1 : A.BatchThreads));
  W.u32(static_cast<uint32_t>(A.Choice.size()));
  for (int C : A.Choice)
    W.u32(static_cast<uint32_t>(C));
  W.u64(static_cast<uint64_t>(A.StaticCost));
  W.u8(A.Measured ? 1 : 0);
  W.f64(A.MeasuredCycles);
  W.str(A.CSource);
  W.str(A.SoBytes);
  W.u8(A.Timing ? 1 : 0);
  if (A.Timing) {
    W.str(A.Timing->Tier);
    for (long service::RequestTiming::*F : TimingCounters)
      W.u64(static_cast<uint64_t>((*A.Timing).*F));
  }
  W.u32(static_cast<uint32_t>(A.ServerSpans.size()));
  for (const obs::Span &S : A.ServerSpans) {
    W.str(S.Name);
    W.str(S.Cat);
    W.u64(static_cast<uint64_t>(S.StartUs));
    W.u64(static_cast<uint64_t>(S.DurUs));
    W.u32(S.Tid);
  }
  return W.take();
}

bool net::decodeArtifact(const std::string &Payload, ArtifactMsg &A,
                         std::string &Err) {
  auto Fail = [&] {
    Err = "malformed artifact payload";
    return false;
  };
  ByteReader B(Payload);
  uint32_t NumParams, ChoiceLen, BatchThreads, NumSpans;
  uint64_t Cost;
  uint8_t Batched, Measured, HasTiming;
  if (!B.str(A.Key) || !B.str(A.FuncName) || !B.str(A.IsaName) ||
      !B.u32(NumParams) || !B.u8(Batched) || !B.str(A.StrategyName) ||
      !B.u32(BatchThreads) || !B.u32(ChoiceLen) || Batched > 1 ||
      BatchThreads < 1 || BatchThreads > 1024)
    return Fail();
  // Each choice entry costs 4 payload bytes, so a hostile length prefix
  // cannot reserve more than the frame itself carried.
  A.Choice.clear();
  for (uint32_t I = 0; I < ChoiceLen; ++I) {
    uint32_t C;
    if (!B.u32(C))
      return Fail();
    A.Choice.push_back(static_cast<int>(C));
  }
  if (!B.u64(Cost) || !B.u8(Measured) || !B.f64(A.MeasuredCycles) ||
      !B.str(A.CSource) || !B.str(A.SoBytes) || !B.u8(HasTiming) ||
      Measured > 1 || HasTiming > 1)
    return Fail();
  A.Timing.reset();
  if (HasTiming) {
    service::RequestTiming &T = A.Timing.emplace();
    if (!B.str(T.Tier))
      return Fail();
    for (long service::RequestTiming::*F : TimingCounters) {
      uint64_t V;
      if (!B.u64(V))
        return Fail();
      T.*F = static_cast<long>(V);
    }
  }
  if (!B.u32(NumSpans) || NumSpans > MaxServerSpans)
    return Fail();
  A.ServerSpans.clear();
  for (uint32_t I = 0; I < NumSpans; ++I) {
    obs::Span S;
    uint64_t Start, Dur;
    if (!B.str(S.Name) || !B.str(S.Cat) || !B.u64(Start) || !B.u64(Dur) ||
        !B.u32(S.Tid))
      return Fail();
    S.StartUs = static_cast<int64_t>(Start);
    S.DurUs = static_cast<int64_t>(Dur);
    A.ServerSpans.push_back(std::move(S));
  }
  if (!B.atEnd())
    return Fail();
  A.BatchThreads = static_cast<int>(BatchThreads);
  A.NumParams = static_cast<int>(NumParams);
  A.Batched = Batched == 1;
  A.StaticCost = static_cast<long>(Cost);
  A.Measured = Measured == 1;
  return true;
}

std::string net::encodeErrorPayload(service::Errc Code,
                                    const std::string &Msg) {
  return std::string(service::errcName(Code)) + ": " + Msg;
}

bool net::decodeErrorPayload(const std::string &Payload, service::Errc &Code,
                             std::string &Msg) {
  size_t Colon = Payload.find(": ");
  if (Colon == std::string::npos)
    return false;
  // Only a known token counts -- "parse error: ..." (a message that merely
  // looks prefixed) must not decode as a code. "ok" is likewise rejected:
  // an ERR frame claiming success is nonsense, and letting Errc::None
  // through would read as a successful Status upstream.
  auto E = service::errcByName(Payload.substr(0, Colon));
  if (!E || *E == service::Errc::None)
    return false;
  Code = *E;
  Msg = Payload.substr(Colon + 2);
  return true;
}

ArtifactMsg net::artifactToMsg(const service::KernelArtifact &A,
                               std::string SoBytes) {
  ArtifactMsg M;
  M.Key = A.Key;
  M.FuncName = A.FuncName;
  M.IsaName = A.IsaName;
  M.NumParams = A.NumParams;
  M.Batched = A.Batched;
  if (A.Batched) {
    M.StrategyName = batchStrategyName(A.Strategy);
    M.BatchThreads = A.BatchThreads >= 1 ? A.BatchThreads : 1;
  }
  M.Choice = A.Choice;
  M.StaticCost = A.StaticCost;
  M.Measured = A.Measured;
  M.MeasuredCycles = A.MeasuredCycles;
  M.CSource = A.CSource;
  M.SoBytes = std::move(SoBytes);
  return M;
}
