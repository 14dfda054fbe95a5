//===- cir/CEmitter.h - unparse C-IR to C with intrinsics ------------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unparses a C-IR function into single-source C (paper Stage 3). Each
/// vector instruction maps to the intrinsics of its register width --
/// AVX-512F (8 lanes), AVX/AVX2 (4) or SSE2 (2), the narrower ones as the
/// VEX forms the function's ISA enables -- and FMAs are fused exactly when
/// that ISA has FMA; leftover lanes use masked loads/stores; VShuffle is
/// lowered to blend/permute sequences (the output of the load/store
/// analysis, paper Fig. 12b).
///
//===----------------------------------------------------------------------===//

#ifndef SLINGEN_CIR_CEMITTER_H
#define SLINGEN_CIR_CEMITTER_H

#include "cir/CIR.h"

#include <string>

namespace slingen {
namespace cir {

/// Returns the C definition of \p F (a `void NAME(double*, ...)` function).
/// The translation unit prelude (includes) is NOT included; see
/// emitTranslationUnit.
std::string emitFunction(const Function &F);

/// Like emitFunction, but very large kernels (more than \p MaxInstsPerPart
/// instructions) are split into a chain of static part-functions called in
/// sequence from the named entry point. Splits happen only at top-level
/// points where no virtual register is live across, so semantics are
/// unchanged; compiler temporaries (Locals) are promoted to file-scope
/// static arrays so all parts see them. Splitting keeps the C compiler's
/// per-function analyses (which scale superlinearly) fast on the fully
/// unrolled large-size kernels.
std::string emitFunctionSplit(const Function &F, int MaxInstsPerPart);

/// Returns a complete compilable C translation unit containing \p F.
/// Kernels beyond ~64k instructions are emitted via emitFunctionSplit.
std::string emitTranslationUnit(const Function &F);

/// The C prototype of \p F ("void name(double *A, const double *B)").
std::string emitPrototype(const Function &F);

} // namespace cir
} // namespace slingen

#endif // SLINGEN_CIR_CEMITTER_H
