//===- cir/CIR.h - the C-like intermediate representation ------------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// C-IR is the paper's C-like intermediate representation (Sec. 3, Stage 2):
/// scalar and vector virtual registers, loads/stores through operand-relative
/// affine addresses, For loops with affine bounds, and vector instructions
/// including the Vecload/Vecstore forms with explicit lane information that
/// the domain-specific load/store analysis operates on (paper Fig. 11).
///
/// Programs in C-IR can be (a) executed by the interpreter (hermetic tests),
/// and (b) unparsed to C with intrinsics by the CEmitter.
///
//===----------------------------------------------------------------------===//

#ifndef SLINGEN_CIR_CIR_H
#define SLINGEN_CIR_CIR_H

#include "expr/Operand.h"

#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace slingen {
namespace cir {

/// Instruction opcodes. The S* family operates on scalar registers, the V*
/// family on vector registers. Every vector register carries its own width
/// (Function::RegWidth: 2, 4 or 8 lanes, at most the function's Nu), and a
/// V* instruction operates at the width of its vector operands, which must
/// agree. Two things follow the function's Nu (its ISA) rather than the
/// instruction's width: FMA rounding (VFma/VFnma/SFma/SFnma are single-
/// rounded when Nu >= 4, mul-then-add otherwise) and the intrinsic set the
/// C emitter may use.
enum class Op {
  // Scalar.
  SConst, ///< Dst = Imm
  SLoad,  ///< Dst = *Address
  SStore, ///< *Address = A
  SAdd,   ///< Dst = A + B
  SSub,
  SMul,
  SDiv,
  SSqrt, ///< Dst = sqrt(A)
  SNeg,
  SFma,  ///< Dst = A * B + C (single rounding when Nu >= 4)
  SFnma, ///< Dst = C - A * B (single rounding when Nu >= 4)
  // Vector.
  VConst,       ///< Dst = splat(Imm)
  VLoad,        ///< Dst = contiguous load of Lanes elements (rest zero)
  VLoadStrided, ///< Dst[i] = Address[i * Stride], Lanes elements
  /// Runtime-masked strided load: Dst[i] = i < active_ ? Address[i*Stride]
  /// : 0.0, where active_ is the function's trailing lane-count parameter
  /// (Function::HasTailMask). This is how one fused block covers the
  /// count % Nu batch tail without a scalar loop.
  VLoadStridedMasked,
  VStore, ///< store first Lanes lanes of A contiguously
  VStoreStrided,
  VStoreStridedMasked, ///< stores only lanes i < active_
  VBroadcast, ///< Dst = splat(scalar A)
  VAdd,
  VSub,
  VMul,
  VDiv,
  VSqrt, ///< Dst = sqrt(A), per lane (instance-parallel batching)
  VNeg,  ///< Dst = -A, per lane
  VFma,       ///< Dst = A * B + C (single rounding when Nu >= 4)
  VFnma,      ///< Dst = C - A * B (fnmadd; single rounding when Nu >= 4)
  VExtract,   ///< scalar Dst = A[Lane]
  VReduceAdd, ///< scalar Dst = sum of lanes of A, as a halving tree:
              ///< lane i += lane i + W/2 until one lane is left
  VShuffle,   ///< Dst[i] = select(Sel[i]): 0..Ws-1 from A, Ws..2Ws-1 from
              ///< B, -1 produces 0.0 (covers blends, permutes, zeroing).
              ///< A and B share a width Ws, which may differ from Dst's.
};

/// True for the V* family (instructions that need a vector ISA).
bool isVector(Op O);

bool isStore(Op O);
bool hasDst(Op O);
/// True if the instruction has no side effects (candidate for CSE/DCE).
bool isPure(Op O);

/// Operand-relative affine address: Buf + Const + sum coeff_i * loopvar_i
/// (in elements of double). Buf is always a *root* operand: ow(...) chains
/// are resolved at address construction so aliasing is structural.
struct Addr {
  const Operand *Buf = nullptr;
  int Const = 0;
  std::vector<std::pair<int, int>> Terms; ///< (loop var id, coefficient)

  bool isConstant() const { return Terms.empty(); }
  std::string str() const;
  bool operator==(const Addr &O) const {
    return Buf == O.Buf && Const == O.Const && Terms == O.Terms;
  }
};

struct Inst {
  Op K;
  int Dst = -1;
  int A = -1, B = -1, C = -1;
  Addr Address;
  double Imm = 0.0;
  int Lanes = 0;  ///< active lanes for loads/stores; Lane for VExtract
  int Stride = 0; ///< element stride for strided access
  std::vector<int> Sel; ///< VShuffle selector (one entry per lane)

  std::string str() const;
};

struct Loop;
using Node = std::variant<Inst, Loop>;

/// A counted loop: for (var = Lo [+ LoVarCoeff*LoVar]; var < Hi; var += Step).
/// The optional affine lower bound (LoVar >= 0) expresses triangular
/// iteration spaces like Fig. 8's `for (j = i+nu; ...)`; upper bounds are
/// always constants (fixed-size operands).
struct Loop {
  int Var = -1;
  int Lo = 0, Hi = 0, Step = 1;
  int LoVar = -1;      ///< outer loop variable id, or -1
  int LoVarCoeff = 0;  ///< coefficient of LoVar in the lower bound
  std::vector<Node> Body;
};

/// A generated kernel: named function over the root operands of a program.
struct Function {
  std::string Name;
  std::vector<const Operand *> Params; ///< root operands, in signature order
  /// Per-parameter: true if the kernel writes this buffer (a root is
  /// writable if it, or any operand overwriting it via ow(...), is an
  /// output). Empty means "treat all as writable".
  std::vector<bool> ParamWritable;
  /// Compiler temporaries (root operands not in Params): emitted as
  /// zero-initialized stack arrays in C, allocated by the interpreter.
  std::vector<const Operand *> Locals;
  std::vector<Node> Body;
  int Nu = 1;       ///< the ISA's vector width: the widest register allowed
  /// True for masked batch-tail kernels: the C prototype gains a trailing
  /// `int active_` lane-count parameter consumed by the *Masked ops, and
  /// the interpreter takes the active lane count as an extra argument.
  bool HasTailMask = false;
  /// Element-count multiplier for Locals storage. 1 for ordinary kernels;
  /// instance-widened kernels (see cir/Widen.h) keep Nu interleaved copies
  /// of every temporary, so their Locals arrays are Rows*Cols*LocalVecWidth
  /// doubles. Honored by the C emitter and the interpreter.
  int LocalVecWidth = 1;
  int NumRegs = 0;  ///< scalar+vector register count (ids are shared)
  int NumVars = 0;  ///< loop variable count
  /// Lanes per register: 1 for scalar registers, 2/4/8 for vector ones.
  std::vector<int> RegWidth;

  bool isVecReg(int R) const { return RegWidth[R] > 1; }

  std::string str() const;
};

/// Incremental builder used by the tiling layer and codelet generators.
class FuncBuilder {
public:
  FuncBuilder(std::string Name, int Nu);

  int newSReg();
  /// A vector register of \p Width lanes (0 = the function's Nu).
  int newVReg(int Width = 0);

  /// Emits an instruction into the current block and returns its Dst.
  int emit(Inst I);

  /// Opens a loop; emission goes to its body until endLoop. Returns the
  /// loop variable id.
  int beginLoop(int Lo, int Hi, int Step);
  /// Loop with the affine lower bound Lo + LoVarCoeff * LoVar.
  int beginLoopAffine(int Lo, int LoVar, int LoVarCoeff, int Hi, int Step);
  void endLoop();

  Addr addr(const Operand *Op, int Const,
            std::vector<std::pair<int, int>> Terms = {}) const;

  // Convenience wrappers. Vector producers without vector operands take the
  // register width (0 = the function's Nu); the others inherit it from A.
  int sconst(double V);
  int sload(Addr A);
  void sstore(Addr A, int Val);
  int sbin(Op K, int A, int B);
  int ssqrt(int A);
  int sneg(int A);
  int vconst(double V, int Width = 0);
  int vload(Addr A, int Lanes, int Width = 0);
  int vloadStrided(Addr A, int Stride, int Lanes, int Width = 0);
  int vloadStridedMasked(Addr A, int Stride, int Lanes);
  void vstore(Addr A, int Val, int Lanes);
  void vstoreStrided(Addr A, int Val, int Stride, int Lanes);
  void vstoreStridedMasked(Addr A, int Val, int Stride, int Lanes);
  int vbroadcast(int SReg, int Width = 0);
  int vbin(Op K, int A, int B);
  int vfma(int A, int B, int C);
  int vfnma(int A, int B, int C);
  /// Re-assigning forms for loop-carried accumulators (Dst is an existing
  /// register; the only non-SSA construct in generated code).
  void vfmaInto(int Dst, int A, int B, int C);
  void vbinInto(int Dst, Op K, int A, int B);
  void sbinInto(int Dst, Op K, int A, int B);
  int vextract(int A, int Lane);
  int vreduceAdd(int A);
  int vshuffle(int A, int B, std::vector<int> Sel);

  Function take(std::vector<const Operand *> Params);

  int nu() const { return F.Nu; }
  int width(int Reg) const { return F.RegWidth[Reg]; }

private:
  Function F;
  std::vector<std::vector<Node> *> BlockStack;

  std::vector<Node> &cur() { return *BlockStack.back(); }
};

} // namespace cir
} // namespace slingen

#endif // SLINGEN_CIR_CIR_H
