//===- cir/Passes.h - C-IR optimization passes -----------------------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Code-level optimizations of paper Stage 3: loop unrolling, local common
/// subexpression elimination (with copy propagation), division by
/// reciprocals, dead code elimination, and the domain-specific load/store
/// analysis that replaces memory round-trips with register shuffles and
/// blends (paper Sec. 3.3 and Figs. 11/12) plus redundant-load and
/// dead-store elimination. slingen::optimizeStage3 runs them in their one
/// order; cse() divides by reciprocals itself.
///
/// The pass pipeline relies on a structural property of generated code:
/// every register has a single definition except explicit loop-carried
/// accumulators. Passes treat multi-def registers conservatively.
///
//===----------------------------------------------------------------------===//

#ifndef SLINGEN_CIR_PASSES_H
#define SLINGEN_CIR_PASSES_H

#include "cir/CIR.h"

namespace slingen {
namespace cir {

/// Fully unrolls (recursively) every loop whose trip count is at most
/// \p MaxTrip. Addresses referencing the induction variable are folded.
void unrollLoops(Function &F, int MaxTrip);

/// Local value numbering: CSE + copy propagation on single-def registers,
/// per straight-line region. Also folds fresh-zero accumulators (x + 0.0
/// becomes x and fma(a, b, 0.0) becomes a * b, scalar and vector, which
/// changes nothing but the sign of a zero result), turns a broadcast of an
/// extracted lane into one lane permutation, then divides by reciprocals
/// (reciprocalDivide) and -- on FMA ISAs (Nu >= 4), whose kernels compile
/// without implicit contraction -- finishes with contractFma.
void cse(Function &F);

/// Removes pure instructions (and dead loads) whose results are unused.
void dce(Function &F);

/// The load/store analysis: store-to-load forwarding across constant
/// addresses. Vector reloads of recently stored lanes become VShuffle /
/// blend combinations (Fig. 12b); redundant loads are reused; stores that
/// are provably overwritten before being read are removed. Forwarding is
/// limited to \p WindowInsts instructions of distance so register live
/// ranges stay local in very large unrolled kernels (0 = unbounded).
void loadStoreOpt(Function &F, int WindowInsts = 4096);

/// Contracts mul+add chains into fused multiply-adds: a single-use VMul
/// (SMul) feeding a VAdd (SAdd) becomes VFma (SFma), either operand order,
/// and one feeding the subtrahend of a VSub (SSub) becomes VFnma (SFnma,
/// Dst = C - A*B). Only fires when the
/// mul and its consumer sit in the same straight-line region and all
/// involved registers are single-def, so the folded operands provably hold
/// the same values at the consumer. Changes rounding (one rounding instead
/// of two on ISAs with hardware FMA), so callers must apply it -- or not --
/// consistently across every kernel variant they intend to compare
/// bit-exactly. The batched codegen applies it to all widened variants when
/// Nu >= 4, matching the interpreter's ISA-dependent FMA semantics, and
/// cse() to every function whose ISA has FMA.
void contractFma(Function &F);

/// Divides by reciprocals: rewrites a scalar division `a / d` (SDiv; the
/// instance-parallel VDiv only arises later, by widening) as `a * r` with
/// `r = 1 / d` placed right after the definition of d, so the division
/// leaves the dependence chain through a and one division serves every
/// quotient by d. A division by d is rewritten when d divides two or more
/// values, or when d is ready (erm::readyCycles) at least one multiply
/// latency before a; every other division stays, and so does every division
/// of or by the constant 1. Only single-definition divisors qualify.
///
/// Every scalar product by an existing `1 / d` (rule R1's, or an earlier
/// run's) first reads as the division it stands for, so each run decides
/// every quotient afresh: cse() runs the pass, and only its last run, after
/// the load/store analysis has joined equal divisors, decides the kernel.
/// An existing `1 / d` becomes r rather than a second reciprocal, but does
/// not by itself pull a division behind it: when d is ready last, a / d
/// beside 1 / d is shorter than 1 / d and a multiply.
///
/// Changes rounding: a * (1 / d) may differ from a / d in the last bit, and
/// for a subnormal d (|d| below about 5.6e-309) 1 / d overflows to
/// infinity, so a quotient a / d that is finite for a small a becomes
/// infinite.
void reciprocalDivide(Function &F);

/// Number of instructions (loops counted by body, once).
int countInsts(const Function &F);

} // namespace cir
} // namespace slingen

#endif // SLINGEN_CIR_PASSES_H
