//===- service/Tuner.h - measured variant autotuning ----------------------===//
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
/// compiled -- each tuner candidate, each batch-strategy probe, and the
/// served artifact: verifyEmittedIR over \p R as emitted for \p Batched
/// and \p Strategy, reusing the caller's scalar recompile \p Pre when
/// given. The `corrupt-ir` fault point breaks a copy of the function's
/// register file here, so tests drive a rejection through whichever gate a
/// request reaches first.
std::optional<cir::VerifyError>
verifyBeforeCompile(const GenResult &R, const GenOptions &O, bool Batched,
                    BatchStrategy Strategy,
                    const ScalarRecompile *Pre = nullptr);

/// Picks the best variant of \p G in one tuning round: the TopK best-ranked
/// variants are all verified (a rejection returns before any compile
/// starts), compiled at once (runtime::compileAll, on at most the CPUs of
/// the affinity mask), then timed one by one in rank order; the lowest
/// median wins, the earlier rank on ties. Returns std::nullopt (with
/// \p Err) only when no variant can be generated at all.
std::optional<TuneResult> tuneKernel(const Generator &G, const TuneOptions &T,
                                     std::string &Err);

/// Outcome of resolving BatchStrategy::Auto for one batched kernel.
struct BatchChoice {
  BatchStrategy Strategy = BatchStrategy::ScalarLoop; ///< never Auto
  /// Resolved dispatch width (>= 1): how many threads the batch thread
  /// pool should spread AoSoA blocks across for this kernel. 1 means
  /// single-threaded dispatch.
  int Threads = 1;
  bool Measured = false; ///< strategy choice came from real timings
  /// Sum of the median cycles over the two probe batches (one Nu-divisible,
  /// one remainder-heavy; when Measured). Lower is better.
  double LoopCycles = 0.0;
  double FusedCycles = 0.0;
  /// True when the thread count was resolved by measurement (an auto
  /// policy on a multicore host with a runnable kernel).
  bool ThreadsMeasured = false;
  double SingleCycles = 0.0;   ///< winner at the large batch, one thread
  double ThreadedCycles = 0.0; ///< winner at the large batch, Threads wide
  /// The winning translation unit when the chooser already produced the
  /// emission (every measured choice, and a static fused choice), so
  /// the service does not regenerate it. Empty otherwise.
  std::string ChosenSource;
  /// The winner's loaded batched object (when Measured), compiled from
  /// ChosenSource with the served options; provisional until published.
  std::shared_ptr<runtime::JitKernel> Kernel;
  /// Set when a strategy's emission failed static verification; no probe
  /// was compiled, and the request must be refused.
  std::optional<cir::VerifyError> Rejected;
};

/// Resolves BatchStrategy::Auto for the tuned kernel \p R generated under
/// \p O: when a compiler, a cycle counter, and a host that can execute the
/// target ISA are all available (and \p AllowCompile), both batched
/// emissions -- the scalar loop and the instance-parallel fused form --
/// form one tuning round like tuneKernel's: both are verified first, then
/// JIT-compiled at once with the served options (see
/// TuneOptions::KeepSoPath), then timed one by one, in that order, over two
/// deterministic instance batches (one divisible by every supported Nu, one
/// remainder-heavy to exercise the masked tail); the lower summed median
/// wins, the loop on ties. Otherwise the static cost model compares the
/// scalar-loop estimate against the widened estimate (scalar kernel cost
/// over Nu lanes plus the strided-access overhead). Scalar targets always
/// resolve to ScalarLoop. Stage 2/3 re-runs once, for the scalar recompile
/// the emission and every verify share.
///
/// \p ThreadsPolicy pins the dispatch width when >= 1; 0 asks the chooser
/// to resolve it: the winning strategy is re-timed over a larger batch
/// single-threaded versus spread across defaultBatchThreads() cores, and
/// Threads records whichever won. Unmeasurable environments resolve an
/// auto policy to 1.
BatchChoice chooseBatchStrategy(const GenResult &R, const GenOptions &O,
                                const TuneOptions &T, bool AllowCompile,
                                int ThreadsPolicy = 0);

} // namespace service
} // namespace slingen

#endif // SLINGEN_SERVICE_TUNER_H
