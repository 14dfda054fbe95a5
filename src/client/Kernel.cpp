//===- client/Kernel.cpp - the served-kernel handle -----------------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// sl::Kernel: one immutable state shape for both origins. The local
// factory wraps a KernelService artifact (sharing its loaded object); the
// remote factory stages the wire message's .so bytes through
// JitKernel::loadFromBytes. After construction the two are
// indistinguishable -- which is the facade's core promise.
//
//===----------------------------------------------------------------------===//

#include "client/ClientImpl.h"

#include "isa/ISA.h"
#include "runtime/BatchPool.h"
#include "runtime/Jit.h"
#include "support/File.h"

using namespace slingen;
using namespace slingen::client;
using namespace slingen::client::detail;

//===----------------------------------------------------------------------===//
// Accessors
//===----------------------------------------------------------------------===//

namespace {
const std::string &emptyString() {
  static const std::string E;
  return E;
}
} // namespace

Kernel::Origin Kernel::origin() const {
  return S ? S->Origin : Origin::Local;
}
const std::string &Kernel::key() const {
  return S ? S->Key : emptyString();
}
const std::string &Kernel::functionName() const {
  return S ? S->FuncName : emptyString();
}
const std::string &Kernel::isa() const {
  return S ? S->IsaName : emptyString();
}
const std::string &Kernel::cSource() const {
  return S ? S->CSource : emptyString();
}
int Kernel::numParams() const { return S ? S->NumParams : 0; }
bool Kernel::batched() const { return S && S->Batched; }
const std::string &Kernel::strategy() const {
  return S ? S->StrategyName : emptyString();
}
int Kernel::batchThreads() const { return S ? S->BatchThreads : 1; }
long Kernel::staticCost() const { return S ? S->StaticCost : 0; }
bool Kernel::measured() const { return S && S->Measured; }
double Kernel::measuredCycles() const { return S ? S->MeasuredCycles : 0.0; }
const std::string &Kernel::objectBytes() const {
  return S ? S->SoBytes : emptyString();
}
const TimingBreakdown *Kernel::timing() const {
  return S && S->Timing ? &*S->Timing : nullptr;
}

bool Kernel::callable() const { return S && S->K != nullptr; }

bool Kernel::hostRunnable() const { return S && hostCanRun(S->Isa); }

//===----------------------------------------------------------------------===//
// Dispatch
//===----------------------------------------------------------------------===//

namespace {

/// Every refused dispatch, kept out of line so that call() and callBatch()
/// are one branch on the factory-resolved state plus the entry call.
/// \p BatchBuffers is callBatch()'s argument, null for call().
[[gnu::noinline]] Status
dispatchFailure(const KernelState *S, double *const *BatchBuffers) {
  if (!S)
    return Status::failure(Code::InvalidRequest, "empty kernel handle");
  // Checked before the object: a shipped object for an ISA this host
  // cannot run is never loaded (see fromMessage).
  if (!hostCanRun(S->Isa))
    return Status::failure(Code::NotRunnable,
                           "kernel targets " + S->IsaName +
                               ", which this host cannot run");
  if (!S->K)
    return Status::failure(Code::NoCompiler,
                           "kernel " + S->FuncName +
                               " is source-only (no compiled object)");
  if (!S->Batched || !S->K->hasBatchEntry())
    return Status::failure(Code::InvalidRequest,
                           "kernel " + S->FuncName +
                               " was not requested batched");
  return Status::failure(Code::InvalidRequest,
                         runtime::JitKernel::misalignedBatchMessage(
                             S->K->misalignedBatchParam(BatchBuffers)));
}

} // namespace

Status Kernel::call(double *const *Buffers) const {
  if (S && S->Runnable) [[likely]] {
    S->K->call(Buffers);
    return Status::success();
  }
  return dispatchFailure(S.get(), nullptr);
}

Status Kernel::callBatch(int Count, double *const *Buffers) const {
  // Caller-supplied batch bases are checked, not asserted: a misaligned
  // one would be UB inside the aligned-move kernels.
  if (!S || !S->Runnable || !S->Batched || !S->K->hasBatchEntry() ||
      S->K->misalignedBatchParam(Buffers) >= 0) [[unlikely]]
    return dispatchFailure(S.get(), Buffers);
  // Same dispatch ladder as the service: the artifact's width caps the
  // threads, and a batch below the pool's break-even runs on the caller.
  runtime::callBatchParallel(*S->K, Count, Buffers, S->Isa->Nu,
                             S->BatchThreads);
  return Status::success();
}

//===----------------------------------------------------------------------===//
// Factories
//===----------------------------------------------------------------------===//

namespace {

/// Resolves the state call()/callBatch() read, once per handle. An ISA
/// name this build does not know means "cannot prove it runs here".
void resolveDispatch(KernelState &St) {
  St.Isa = isaByNameOrNull(St.IsaName.c_str());
  St.Runnable = St.K && hostCanRun(St.Isa);
}

/// service::RequestTiming -> the public shape, with the client-measured
/// round trip joined on.
TimingBreakdown toBreakdown(const service::RequestTiming &TM,
                            long RoundTripUs) {
  TimingBreakdown B;
  B.Tier = TM.Tier;
  B.CacheUs = TM.CacheUs;
  B.WaitUs = TM.WaitUs;
  B.DiskUs = TM.DiskUs;
  B.GenUs = TM.GenUs;
  B.TuneUs = TM.TuneUs;
  B.CompileUs = TM.CompileUs;
  B.TotalUs = TM.TotalUs;
  B.RoundTripUs = RoundTripUs;
  return B;
}

} // namespace

Result<Kernel> KernelFactory::fromArtifact(const service::ArtifactPtr &A,
                                           bool WantObject,
                                           const service::RequestTiming *Timing,
                                           long RoundTripUs) {
  auto St = std::make_shared<KernelState>();
  St->Origin = Kernel::Origin::Local;
  St->Key = A->Key;
  St->FuncName = A->FuncName;
  St->IsaName = A->IsaName;
  St->CSource = A->CSource;
  St->NumParams = A->NumParams;
  St->Batched = A->Batched;
  if (A->Batched) {
    St->StrategyName = batchStrategyName(A->Strategy);
    St->BatchThreads = A->BatchThreads >= 1 ? A->BatchThreads : 1;
  }
  St->Choice = A->Choice;
  St->StaticCost = A->StaticCost;
  St->Measured = A->Measured;
  St->MeasuredCycles = A->MeasuredCycles;
  if (Timing)
    St->Timing = toBreakdown(*Timing, RoundTripUs);
  St->K = A->Kernel;
  St->LocalArtifact = A;
  if (WantObject && A->Kernel) {
    // The same bytes a daemon would ship for this artifact (the server
    // reads exactly this path) -- what makes local/remote byte identity
    // checkable at the facade level.
    bool Ok = false;
    std::string Bytes = readFile(A->Kernel->soPath(), &Ok);
    if (!Ok)
      return Status::failure(Code::InternalError,
                             "cannot read compiled object at " +
                                 A->Kernel->soPath() +
                                 " (evicted from the disk tier?); retry "
                                 "with wantObject(false) if only the "
                                 "loaded kernel is needed");
    St->SoBytes = std::move(Bytes);
  }
  resolveDispatch(*St);
  Kernel K;
  K.S = std::move(St);
  return K;
}

Result<Kernel> KernelFactory::fromMessage(net::ArtifactMsg Msg,
                                          long RoundTripUs) {
  auto St = std::make_shared<KernelState>();
  St->Origin = Kernel::Origin::Remote;
  if (Msg.Timing)
    St->Timing = toBreakdown(*Msg.Timing, RoundTripUs);
  St->Key = std::move(Msg.Key);
  St->FuncName = std::move(Msg.FuncName);
  St->IsaName = std::move(Msg.IsaName);
  St->CSource = std::move(Msg.CSource);
  St->NumParams = Msg.NumParams;
  St->Batched = Msg.Batched;
  if (Msg.Batched) {
    St->StrategyName = std::move(Msg.StrategyName);
    St->BatchThreads = Msg.BatchThreads >= 1 ? Msg.BatchThreads : 1;
  }
  St->Choice = std::move(Msg.Choice);
  St->StaticCost = Msg.StaticCost;
  St->Measured = Msg.Measured;
  St->MeasuredCycles = Msg.MeasuredCycles;
  St->SoBytes = std::move(Msg.SoBytes);
  // An object this host cannot run is kept as bytes (objectBytes()) but
  // neither staged nor loaded: every dispatch on it is refused anyway.
  if (!St->SoBytes.empty() &&
      hostCanRun(isaByNameOrNull(St->IsaName.c_str()))) {
    std::string Err;
    auto K = runtime::JitKernel::loadFromBytes(St->SoBytes, St->FuncName,
                                               St->NumParams, Err,
                                               /*WithBatchEntry=*/St->Batched);
    if (!K)
      return Status::failure(Code::ProtocolError,
                             "shipped object failed to load: " + Err);
    St->K = std::make_shared<runtime::JitKernel>(std::move(*K));
  }
  resolveDispatch(*St);
  Kernel K;
  K.S = std::move(St);
  return K;
}
