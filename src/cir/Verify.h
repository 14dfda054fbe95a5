//===- cir/Verify.h - C-IR static verifier --------------------------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A two-layer static analysis over cir::Function, in the spirit of LLVM's
/// module verifier: every pipeline stage that produces or rewrites C-IR is
/// checked in debug builds, and the KernelService runs it once,
/// unconditionally, before handing generated IR to the JIT.
///
/// Layer A (structural):
///  - register ids in range, RegIsVec sized to NumRegs;
///  - def-before-use in program order for every register (loop-carried
///    accumulators are initialized before their loop, so strict program
///    order is the generated-code invariant);
///  - opcode arity: exactly the operands an opcode consumes are present;
///  - width consistency: scalar and vector registers never mix (VAdd reads
///    two vector registers and defines one, VBroadcast reads a scalar, ...);
///    every register is 1 (scalar), 2, 4 or 8 lanes wide and no wider than
///    the function's Nu; the vector operands of one instruction share its
///    width; a function with Nu == 1 holds no V* instruction at all;
///  - masked ops (VLoadStridedMasked/VStoreStridedMasked) appear only in
///    HasTailMask functions -- and in an *instance-widened* HasTailMask
///    function (the `_fusedtail` emission) every parameter access *is*
///    masked, pinning the `active_` guard contract (hand-built tail
///    functions choose their own masking discipline);
///  - no store through a parameter declared read-only;
///  - no VFma/VFnma that duplicates a multiply which still has uses
///    (the contractFma single-use contract);
///  - shuffle selectors sized W with lanes in [-1, 2*W), extract lanes in
///    [0, W) and load/store lane counts in [1, W], for the instruction's
///    width W; masked tail accesses at the full Nu; loop structure sane
///    (positive step, in-scope affine bounds), address terms referencing
///    only in-scope loop variables.
///
/// Layer B (symbolic access bounds + alignment): every address is an affine
/// form base + sum(coeff * loopvar); loop variables have known intervals
/// (constant upper bounds, affine-in-outer-var lower bounds), so each
/// access's touched element range is an interval. A variable's last value
/// is the last point of its step grid below the upper bound, whenever every
/// lower bound it can start from lies on one grid. The verifier proves:
///  - scalar/contiguous accesses land in [0, size) of the named buffer
///    (params sized Rows*Cols per instance, times Nu for instance-widened
///    functions; locals sized Rows*Cols*LocalVecWidth);
///  - fused lane-strided accesses against the batch ABI land in
///    [0, Nu * instanceSize) -- lane l touches offset + l*stride, so the
///    base offset must stay inside instance 0 and the stride must equal the
///    parameter's instance size;
///  - masked tail accesses touch lane l only when l < active_, so they are
///    in bounds iff the base offset is within one instance and the stride
///    equals the instance size (the batch ABI guarantees exactly `active_`
///    trailing instances);
///  - in instance-widened functions every contiguous access to a local is
///    Nu-element aligned (offset and coefficients divisible by Nu): with the
///    64-byte base contract this is what lets the emitter use aligned
///    vector moves, so the invariant is verified, not assumed.
///
/// Violations are reported as structured VerifyError values; the service
/// maps them to Errc::InvalidKernelIR instead of compiling.
///
//===----------------------------------------------------------------------===//

#ifndef SLINGEN_CIR_VERIFY_H
#define SLINGEN_CIR_VERIFY_H

#include "cir/CIR.h"

#include <optional>
#include <string>
#include <vector>

namespace slingen {
namespace cir {

/// Violation classes; each seeded-mutation test asserts the exact kind.
enum class VerifyKind {
  BadRegister,    ///< register id out of range / RegIsVec size mismatch
  UseBeforeDef,   ///< register read before any definition in program order
  BadArity,       ///< operand present/absent pattern doesn't match opcode
  WidthMismatch,  ///< scalar register where a vector is required (or v.v.)
  BadLane,        ///< VExtract lane or load/store lane count out of range
  BadShuffle,     ///< selector not Nu-sized or lane index out of range
  BadLoop,        ///< nonpositive step, or affine bound/address term
                  ///< referencing an out-of-scope loop variable
  UnknownBuffer,  ///< address names an operand that is neither a parameter
                  ///< nor a local of the function
  ReadOnlyStore,  ///< store through a parameter declared read-only
  MaskOutsideTail,///< masked op in a function without HasTailMask
  MissingMask,    ///< unmasked parameter access in a HasTailMask function
  FmaMultiUse,    ///< VFma/VFnma duplicating a multiply that still has uses
  OutOfBounds,    ///< access range not provably inside the buffer
  Misaligned,     ///< widened local access not Nu-element aligned
  VectorInScalar, ///< V* instruction in a function with Nu == 1
};

const char *verifyKindName(VerifyKind K);

/// One violation, anchored to the linear (pre-order) instruction index so
/// reports and tests can point at the offending instruction.
struct VerifyError {
  std::string Fn;
  int InstrIndex = -1;
  VerifyKind Kind = VerifyKind::BadRegister;
  std::string Detail;

  std::string str() const;
};

/// Runs both layers over \p F. Returns every violation found (bounded to
/// \p MaxErrors so a badly corrupted function cannot balloon the report);
/// empty means the function verified.
std::vector<VerifyError> verify(const Function &F, int MaxErrors = 16);

/// First violation, or nullopt when \p F verifies -- the service-path form.
std::optional<VerifyError> verifyFirst(const Function &F);

/// Human-readable per-function report (the `slc -verify-ir` surface):
/// "<name>: ok (N instructions)" or one line per violation.
std::string verifyReportText(const Function &F);

/// Debug-build pipeline hook: verifies \p F and aborts with the full report
/// when it does not hold, naming \p Stage (the widening or pass that just
/// ran). NDEBUG builds compile this to nothing; the service path instead
/// calls verifyFirst() unconditionally and refuses to compile.
void verifyAssert(const Function &F, const char *Stage);

} // namespace cir
} // namespace slingen

#endif // SLINGEN_CIR_VERIFY_H
