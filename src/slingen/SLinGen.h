//===- slingen/SLinGen.h - the program generator driver --------------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SLinGen pipeline of paper Fig. 6. A Generator owns a normalized LA
/// program and produces optimized C-IR kernels:
///
///   Stage 1  HLACs are expanded into basic linear algebra programs via the
///            FLAME engine; each HLAC has several algorithmic variants
///            (loop invariants), selected by a per-HLAC choice vector.
///   Stage 2  Scalar-merging rules (Table 2) run, then every statement is
///            tiled into nu-BLACs and lowered to C-IR.
///   Stage 3  C-IR passes run (unrolling, CSE, the load/store analysis,
///            division by reciprocals, DCE) and the kernel is unparsed to C
///            with intrinsics.
///
/// Autotuning enumerates variant choices; a static cost model pre-ranks
/// them (used by tests), and the runtime harness re-ranks by measurement
/// (used by the benchmarks).
///
//===----------------------------------------------------------------------===//

#ifndef SLINGEN_SLINGEN_SLINGEN_H
#define SLINGEN_SLINGEN_SLINGEN_H

#include "cir/CIR.h"
#include "cir/Verify.h"
#include "cir/Widen.h"
#include "expr/Program.h"
#include "flame/Synthesizer.h"
#include "isa/ISA.h"
#include "slingen/BatchStrategy.h"

#include <optional>
#include <string>
#include <vector>

namespace slingen {

struct GenOptions {
  const VectorISA *Isa = &avxIsa();
  /// FLAME panel width; 0 means "use the vector length" (the paper's nu).
  int BlockSize = 0;
  int UnrollTiles = 32; ///< max tiles per statement before loop emission
  int UnrollK = 16;     ///< max unrolled reduction length
  int UnrollMaxTrip = 8;
  /// Stage/pass toggles, primarily for the ablation benchmarks.
  bool ApplyVectorRules = true;
  bool EnableUnroll = true;
  bool EnableCse = true;
  bool EnableLoadStoreOpt = true;
  bool EnableDce = true;
  std::string FuncName = "kernel";

  int nu() const { return Isa->Nu; }
  int blockSize() const { return BlockSize > 0 ? BlockSize : Isa->Nu; }
};

/// One fully generated kernel. Func references operands owned by Basic, so
/// the two must stay together.
struct GenResult {
  Program Basic;            ///< Stage-1 output (basic linear algebra program)
  cir::Function Func;       ///< optimized C-IR
  std::vector<int> Choice;  ///< per-HLAC algorithmic variant indices
  long Cost = 0;            ///< static cycle estimate (see staticCost)
};

/// Expands every HLAC of \p P (in statement order) using the variant index
/// from \p Choice (missing entries default to 0). Returns false if some
/// variant is infeasible for emission.
bool expandProgramHlacs(Program &P, int BlockSize,
                        const std::vector<int> &Choice,
                        flame::Database *DB = nullptr);

/// Compiles a basic (HLAC-free) program to C-IR: Stage 2 tiling, then
/// optimizeStage3.
cir::Function compileBasicProgram(Program &P, const GenOptions &O);

/// The Stage 3 pass pipeline, the one place its order is written:
/// unroll -> cse -> loadStoreOpt -> cse -> dce, each gated by its toggle
/// in \p O. Each cse also divides by reciprocals (cir::reciprocalDivide).
void optimizeStage3(cir::Function &F, const GenOptions &O);

/// Weighted static cycle estimate of a C-IR function (division/sqrt heavy,
/// matching the Sandy-Bridge-like issue costs the paper reports); used to
/// pre-rank variants without measuring.
long staticCost(const cir::Function &F);

/// Stable 64-bit content hash of a program: declarations (names, shapes,
/// structures, IO kinds) and statements. Equal programs hash equal across
/// processes and library versions, so the hash can key a persistent cache.
/// Hash the *normalized* program (Generator::normalized()) so syntactically
/// different but normalization-equivalent sources share cache entries.
uint64_t programFingerprint(const Program &P);

/// Stable hash of everything in \p O that changes the emitted C: the target
/// ISA, blocking, unroll budgets, pass toggles, and the function name.
uint64_t optionsFingerprint(const GenOptions &O);

class Generator {
public:
  /// Takes ownership of \p Source; normalization runs immediately.
  /// isValid()/error() report normalization failures.
  Generator(Program Source, GenOptions Opts);

  bool isValid() const { return Valid; }
  const std::string &error() const { return Err; }

  /// Number of HLAC statements found in the normalized program.
  int hlacCount() const { return static_cast<int>(Counts.size()); }
  /// Number of algorithmic variants per HLAC, in statement order.
  const std::vector<int> &variantCounts() const { return Counts; }

  /// Runs the full pipeline for one variant choice.
  std::optional<GenResult> generate(const std::vector<int> &Choice) const;

  /// Enumerates up to \p MaxVariants choices (cartesian product, clamped),
  /// compiles each, and returns them sorted by static cost.
  std::vector<GenResult> enumerate(int MaxVariants = 16) const;

  /// Cheapest result of enumerate() (cost-model autotuning).
  std::optional<GenResult> best(int MaxVariants = 16) const;

  /// Content key of (normalized program, options); the KernelService cache
  /// key. Only valid on a valid generator.
  uint64_t fingerprint() const;

  /// Algorithm-reuse database accumulated across generate() calls
  /// (paper Stage 1a).
  const flame::Database &database() const { return DB; }

  const Program &normalized() const { return Src; }
  const GenOptions &options() const { return O; }

private:
  Program Src;
  GenOptions O;
  std::vector<int> Counts;
  bool Valid = false;
  std::string Err;
  mutable flame::Database DB;
};

/// Complete C translation unit for a generated kernel.
std::string emitC(const GenResult &R);

//===----------------------------------------------------------------------===//
// Batched emission (the paper's Sec. 5 "batched computations" extension).
//
// Both strategies share one ABI: `<name>_batch(int count, p0, p1, ...)`
// applies the kernel to `count` independent problem instances stored
// contiguously per parameter (instance b of parameter i lives at
// p_i + b * Rows_i * Cols_i).
//===----------------------------------------------------------------------===//

/// ScalarLoop strategy: the kernel's translation unit plus a batch entry
/// that calls it per instance (per-parameter strides hoisted to constants).
/// Like every batched emission, also defines `<name>_batch_span(int start,
/// int count, ...)`, the sub-range entry threaded dispatch uses.
std::string emitBatchedC(const GenResult &R);

/// A scalar (nu = 1) re-compilation of a GenResult's Stage-1 basic program:
/// the input the instance-parallel widening operates on. Func references
/// operands owned by Basic, so the two must stay together.
struct ScalarRecompile {
  Program Basic;
  cir::Function Func;
};

/// Re-runs Stage 2/3 over a clone of \p R.Basic with the scalar ISA (other
/// knobs taken from \p Opts when given, defaults otherwise). Returns
/// std::nullopt when the scalar function's parameters do not line up with
/// R.Func's (never expected; callers then fall back to ScalarLoop).
std::optional<ScalarRecompile> recompileScalar(const GenResult &R,
                                               const GenOptions *Opts = nullptr);

/// The widened functions the instance-parallel emission compiles beside
/// the single-instance kernel.
struct InstanceParallelFuncs {
  cir::WidenedFunction Block; ///< `<name>_fusedblk`: Nu instances at once
  cir::WidenedFunction Tail;  ///< `<name>_fusedtail`: the first `active_`
};

/// Derives the instance-parallel block and masked tail of \p R from its
/// scalar recompile \p Pre: widened across R.Func.Nu lanes (see
/// cir::widenAcrossInstancesFused) and FMA-contracted at Nu >= 4. The one
/// derivation behind emitBatchedVectorFusedC, verifyEmittedIR and
/// `slc -verify-ir`. Returns std::nullopt when R.Func.Nu < 2 or widening is
/// infeasible; the emission then degrades to the scalar loop. The results
/// reference operands owned by \p Pre.
std::optional<InstanceParallelFuncs>
deriveInstanceParallelFuncs(const GenResult &R,
                            const ScalarRecompile &Pre);

/// InstanceParallelFused strategy: the kernel's translation unit plus the
/// block and tail of deriveInstanceParallelFuncs, whose parameter accesses
/// gather/scatter lane-strided instance data straight out of the batch ABI,
/// and a `<name>_batch` driver that passes block base pointers through,
/// with no transposes and no scratch blocks: floor(count/Nu) full blocks,
/// then one masked tail call for the `count % Nu` remainder. Falls back to
/// emitBatchedC when the target ISA is scalar or widening is infeasible;
/// \p UsedVector, when non-null, reports whether the instance-parallel
/// emission actually happened (callers labeling the output with a
/// BatchStrategy must downgrade to ScalarLoop when it is false).
/// \p Opts, when given, supplies the non-ISA codegen knobs for the scalar
/// re-compilation (pass the options the GenResult was generated under).
/// \p Pre, when given, is a ScalarRecompile the caller already computed
/// for this GenResult (the Stage-2/3 re-lowering dominates emission cost,
/// so callers that need it for other reasons should pass it in).
std::string emitBatchedVectorFusedC(const GenResult &R,
                                    const GenOptions *Opts = nullptr,
                                    bool *UsedVector = nullptr,
                                    const ScalarRecompile *Pre = nullptr);

/// Statically verifies every cir::Function the emission for \p R compiles:
/// the single-instance kernel always, plus -- for the instance-parallel
/// batch strategy -- the scalar recompile and the block and tail of
/// deriveInstanceParallelFuncs. Returns the first violation, or std::nullopt
/// when all functions verify (including when widening is infeasible and the
/// emission degrades to the scalar loop). \p Pre is as for
/// emitBatchedVectorFusedC. The KernelService runs this once before every
/// JIT compile of freshly generated IR and maps a violation to
/// Errc::InvalidKernelIR; the cost is a few IR walks, far below the C
/// compiler invocation it gates.
std::optional<cir::VerifyError>
verifyEmittedIR(const GenResult &R, const GenOptions *Opts, bool Batched,
                BatchStrategy Strategy, const ScalarRecompile *Pre = nullptr);

} // namespace slingen

#endif // SLINGEN_SLINGEN_SLINGEN_H
