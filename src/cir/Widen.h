//===- cir/Widen.h - instance-parallel lane widening -----------------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lane-widening walk behind the instance-parallel batched codegen
/// strategy (the paper's Sec. 5 "batched computations" sketch): a *scalar*
/// C-IR function (Nu == 1, only S* opcodes) is re-emitted with every
/// operation widened to Lanes vector lanes, where lane l of each register
/// holds problem instance `b*Lanes + l` of the corresponding scalar value.
///
/// Parameters keep the batch ABI's contiguous per-instance layout, so every
/// parameter access becomes a lane-strided gather/scatter straight out of
/// (and into) the caller's batch buffers. Compiler temporaries never cross
/// the ABI boundary, so locals use an interleaved AoSoA layout: element e of
/// instance-lane l lives at offset e*Lanes + l, and every local access is
/// one full-width contiguous vector load/store at Lanes times the scalar
/// offset. Division and square root go through the full-width VDiv/VSqrt
/// instructions, keeping per-instance IEEE semantics.
///
//===----------------------------------------------------------------------===//

#ifndef SLINGEN_CIR_WIDEN_H
#define SLINGEN_CIR_WIDEN_H

#include "cir/CIR.h"

#include <memory>
#include <optional>
#include <vector>

namespace slingen {
namespace cir {

/// A widened function plus the renamed local operands it references (the
/// clones keep the original shape; renaming avoids file-scope collisions
/// when both the scalar kernel and the widened kernel are emitted -- and
/// possibly split into part functions -- in one translation unit).
struct WidenedFunction {
  Function Func;
  std::vector<std::unique_ptr<Operand>> OwnedLocals;
};

/// Widens the scalar function \p F across problem instances: every register
/// becomes a Lanes-wide vector register and every operation its vector
/// counterpart. Lane l of a parameter access reads element
/// `affine + l * (Rows*Cols)` relative to the block base pointer -- a
/// lane-strided VLoadStrided/VStoreStrided whose stride is the parameter's
/// instance size -- so no layout transpose is required around the widened
/// kernel. Local addresses are scaled by Lanes (the AoSoA layout). Loop
/// structure, register ids, and loop variables are preserved one-to-one.
/// Returns std::nullopt when \p F is not purely scalar (Nu != 1 or any V*
/// instruction) or Lanes < 2.
std::optional<WidenedFunction>
widenAcrossInstancesFused(const Function &F, int Lanes,
                          const std::string &Name);

/// The masked-tail variant of widenAcrossInstancesFused: identical lane
/// layout and arithmetic, but every parameter access is runtime-masked
/// (VLoadStridedMasked/VStoreStridedMasked) against the function's trailing
/// `int active_` parameter (Function::HasTailMask). Calling it with
/// active_ = r executes exactly instances [0, r) of the block -- the
/// `count % Lanes` batch tail -- in the first r lanes; dead lanes load 0.0,
/// compute in parallel, and are never stored. Active lanes run the exact
/// instruction sequence of the unmasked fused block, so tail results are
/// bit-identical to running the same instances through a full block.
std::optional<WidenedFunction>
widenAcrossInstancesFusedMasked(const Function &F, int Lanes,
                                const std::string &Name);

} // namespace cir
} // namespace slingen

#endif // SLINGEN_CIR_WIDEN_H
