//===- service/Tuner.h - variant autotuning and batch resolution ----------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's "measure the generated function" autotuning step, fully
/// wired: the static cost model pre-ranks Generator::enumerate() output,
/// the top-K candidates are JIT-compiled and timed with median-of-k runs on
/// deterministic inputs, and the fastest measured variant wins. When the
/// environment cannot measure (no system C compiler, no cycle counter, or
/// no candidate compiles), tuning degrades to the static ranking -- the
/// same policy Generator::best() implements -- and says so in the result.
/// Batched requests then resolve their strategy by the static cost model
/// alone (resolveBatchEmission).
///
//===----------------------------------------------------------------------===//

#ifndef SLINGEN_SERVICE_TUNER_H
#define SLINGEN_SERVICE_TUNER_H

#include "cir/Verify.h"
#include "runtime/Jit.h"
#include "runtime/Timing.h"
#include "slingen/SLinGen.h"

#include <memory>
#include <optional>
#include <string>

namespace slingen {
namespace service {

struct TuneOptions {
  int TopK = 4;         ///< candidates measured (by static-cost rank)
  int MaxVariants = 16; ///< Generator::enumerate() budget
  runtime::MeasureOptions Measure{/*Repeats=*/9, /*Warmup=*/2,
                                  /*MinCycles=*/10000};
  std::string ExtraFlags; ///< compiler flags (e.g. isaCompileFlags)
  /// The path the served object will be published at (the disk tier's
  /// `.so`), or empty for a process-local temporary. Candidates are
  /// compiled exactly as the served artifact will be: beside this path
  /// with the persistent flags (as provisional objects, see
  /// runtime::CompileOptions), or as temporaries when empty. So the tuner
  /// ranks the objects that are served, and its winner can be served
  /// without compiling it again.
  std::string KeepSoPath;
};

struct TuneResult {
  GenResult Result;
  bool Measured = false;      ///< ranking came from real timings
  double MedianCycles = 0.0;  ///< winner's median (when Measured)
  int CandidatesMeasured = 0; ///< JIT compiles the tuner performed
  /// The winner's loaded single-instance object (when Measured), compiled
  /// with the served options; provisional until published.
  std::shared_ptr<runtime::JitKernel> Kernel;
  /// Set when a candidate failed static verification (see
  /// verifyBeforeCompile): tuning stopped before compiling any candidate,
  /// and the request must be refused.
  std::optional<cir::VerifyError> Rejected;
};

/// The verifier gate every freshly generated emission passes before it is
/// compiled -- each tuner candidate and the served artifact: verifyEmittedIR
/// over \p R as emitted for \p Batched and \p Strategy, reusing the
/// caller's scalar recompile \p Pre when given. The `corrupt-ir` fault
/// point breaks a copy of the function's register file here, so tests drive
/// a rejection through whichever gate a request reaches first.
std::optional<cir::VerifyError>
verifyBeforeCompile(const GenResult &R, const GenOptions &O, bool Batched,
                    BatchStrategy Strategy,
                    const ScalarRecompile *Pre = nullptr);

/// Options for compiling one object exactly as the served artifact will be
/// compiled (see TuneOptions::KeepSoPath): a provisional object beside the
/// served path, named per process and call so concurrent services sharing a
/// cache directory never collide, or a process-local temporary when
/// KeepSoPath is empty. A provisional object is served by publishing it.
runtime::CompileOptions provisionalCompileOptions(const TuneOptions &T);

/// Picks the best variant of \p G in one tuning round: the TopK best-ranked
/// variants are all verified (a rejection returns before any compile
/// starts), compiled at once (runtime::compileAll, on at most the CPUs of
/// the affinity mask), then timed one by one in rank order; the lowest
/// median wins, the earlier rank on ties. Returns std::nullopt (with
/// \p Err) only when no variant can be generated at all.
std::optional<TuneResult> tuneKernel(const Generator &G, const TuneOptions &T,
                                     std::string &Err);

/// A batched request's emission: the strategy it resolved to and the
/// translation unit that strategy emits.
struct BatchChoice {
  BatchStrategy Strategy = BatchStrategy::ScalarLoop; ///< never Auto
  std::string Source; ///< the batched translation unit
  /// Set when the emission failed static verification; the request must be
  /// refused.
  std::optional<cir::VerifyError> Rejected;
};

/// The one resolution ladder of a batched request for \p Requested, shared
/// by the service and `slc`:
///   - Auto takes the static rule: the instance-parallel fused form iff
///     staticCost(scalar recompile) / Nu + elements / 2 < staticCost(R.Func),
///     i.e. the widened kernel amortized over Nu instances plus its
///     lane-at-a-time gathers/scatters beats the per-instance loop;
///   - fused on an ISA with Nu < 2, or whose widening fails, is the loop;
///   - the resolved strategy's translation unit is emitted and verified
///     (verifyBeforeCompile).
/// Stage 2/3 re-runs at most once, for the scalar recompile the rule, the
/// emission and the verify share. Nothing is compiled or timed: measuring
/// the two strategies never changed the choice on the workloads' kernels
/// (README, "Auto tuning").
BatchChoice resolveBatchEmission(const GenResult &R, const GenOptions &O,
                                 BatchStrategy Requested);

/// Resolves BatchStrategy::Auto for \p R generated under \p O:
/// resolveBatchEmission(R, O, BatchStrategy::Auto). The unnamed parameters
/// are no longer read; they keep the signature the benchmark calls until
/// its next change (ROADMAP item 3).
BatchChoice chooseBatchStrategy(const GenResult &R, const GenOptions &O,
                                const TuneOptions &, bool, int = 0);

} // namespace service
} // namespace slingen

#endif // SLINGEN_SERVICE_TUNER_H
