//===- cir/CEmitter.cpp ---------------------------------------------------==//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "cir/CEmitter.h"

#include "support/Format.h"

#include <cassert>
#include <map>
#include <set>

using namespace slingen;
using namespace slingen::cir;

namespace {

class Emitter {
public:
  explicit Emitter(const Function &F) : F(F), Nu(F.Nu) {
    for (const Operand *L : F.Locals)
      Locals.insert(L);
  }

  std::string run() {
    Sink.line(prototype(F) + " {");
    Sink.indent();
    emitLocalDecls();
    emitRegDecls();
    emitMaskDecls();
    emitBlock(F.Body);
    Sink.dedent();
    Sink.line("}");
    return Sink.str();
  }

  /// Splits the body into static part-functions of roughly
  /// \p MaxInstsPerPart instructions, cut only where no register is live
  /// across (see the header comment on emitFunctionSplit).
  std::string runSplit(int MaxInstsPerPart) {
    std::vector<std::pair<size_t, size_t>> Parts = partition(MaxInstsPerPart);
    if (Parts.size() <= 1)
      return run();

    // Compiler temporaries become file-scope so every part sees them.
    // (They are always fully written before being read within a call, so
    // static persistence across calls is unobservable.)
    for (const Operand *L : F.Locals)
      Sink.line(formatf(
          "static double %s[%d] __attribute__((aligned(64)));",
          L->Name.c_str(), L->Rows * L->Cols * F.LocalVecWidth));

    for (size_t P = 0; P < Parts.size(); ++P) {
      std::string Name = formatf("%s_part%zu", F.Name.c_str(), P);
      Sink.line("static " + prototype(F, Name.c_str()) + " {");
      Sink.indent();
      emitRegDeclsForRange(Parts[P].first, Parts[P].second);
      emitMaskDeclsForRange(Parts[P].first, Parts[P].second);
      for (size_t I = Parts[P].first; I < Parts[P].second; ++I)
        emitNode(F.Body[I]);
      Sink.dedent();
      Sink.line("}");
      Sink.line("");
    }

    Sink.line(prototype(F) + " {");
    Sink.indent();
    for (size_t P = 0; P < Parts.size(); ++P) {
      std::string Call = formatf("%s_part%zu(", F.Name.c_str(), P);
      for (size_t I = 0; I < F.Params.size(); ++I)
        Call += formatf("%s%s", I ? ", " : "", F.Params[I]->Name.c_str());
      if (F.HasTailMask)
        Call += formatf("%sactive_", F.Params.empty() ? "" : ", ");
      Sink.line(Call + ");");
    }
    Sink.dedent();
    Sink.line("}");
    return Sink.str();
  }

  static std::string prototype(const Function &F,
                               const char *NameOverride = nullptr) {
    std::string S =
        formatf("void %s(", NameOverride ? NameOverride : F.Name.c_str());
    for (size_t I = 0; I < F.Params.size(); ++I) {
      bool Writable = F.ParamWritable.empty() || F.ParamWritable[I];
      S += formatf("%s%sdouble *__restrict %s", I ? ", " : "",
                   Writable ? "" : "const ", F.Params[I]->Name.c_str());
    }
    if (F.HasTailMask)
      S += formatf("%sint active_", F.Params.empty() ? "" : ", ");
    else if (F.Params.empty())
      S += "void";
    S += ")";
    return S;
  }

private:
  const Function &F;
  int Nu;
  CodeSink Sink;
  std::set<const Operand *> Locals;

  /// True when the address provably sits at a \p W-element boundary of a
  /// 64-byte-aligned local array: every offset contribution (constant and
  /// per-variable coefficient) is a multiple of W doubles. Such full-width
  /// accesses use aligned vector moves. Parameters are never eligible --
  /// their alignment is the caller's business (the batch ABI asserts it, but
  /// block base pointers advance by instance strides that need not keep
  /// 64-byte alignment).
  bool alignedLocalAddr(const Addr &A, int W) const {
    if (W < 2 || !Locals.count(A.Buf) || A.Const % W != 0)
      return false;
    for (auto [Var, Coeff] : A.Terms) {
      (void)Var;
      if (Coeff % W != 0)
        return false;
    }
    return true;
  }

  std::string reg(int Id) const { return formatf("r%d", Id); }
  std::string var(int Id) const { return formatf("i%d", Id); }

  std::string address(const Addr &A) const {
    std::string S = A.Buf->Name;
    S += formatf(" + %d", A.Const);
    for (auto [Var, Coeff] : A.Terms) {
      if (Coeff == 1)
        S += formatf(" + %s", var(Var).c_str());
      else
        S += formatf(" + %d*%s", Coeff, var(Var).c_str());
    }
    return S;
  }

  void collectMaskLanes(const std::vector<Node> &Body,
                        std::set<int> &Out) const {
    for (const Node &N : Body) {
      if (const auto *L = std::get_if<Loop>(&N)) {
        collectMaskLanes(L->Body, Out);
        continue;
      }
      const Inst &I = std::get<Inst>(N);
      if (isPartialYmm(I))
        Out.insert(I.Lanes);
    }
  }

  /// Lanes of the vector register an instruction operates on.
  int widthOf(const Inst &I) const {
    if (hasDst(I.K) && F.isVecReg(I.Dst))
      return F.RegWidth[I.Dst];
    return F.RegWidth[I.A];
  }

  /// A contiguous 256-bit access with fewer live lanes than its register:
  /// lowered to maskload/maskstore with a constant lane mask (mkN).
  bool isPartialYmm(const Inst &I) const {
    return (I.K == Op::VLoad || I.K == Op::VStore) && widthOf(I) == 4 &&
           I.Lanes < 4;
  }

  static bool isMaskedOp(Op K) {
    return K == Op::VLoadStridedMasked || K == Op::VStoreStridedMasked;
  }

  bool hasMaskedOps(const std::vector<Node> &Body) const {
    for (const Node &N : Body) {
      if (const auto *L = std::get_if<Loop>(&N)) {
        if (hasMaskedOps(L->Body))
          return true;
        continue;
      }
      if (isMaskedOp(std::get<Inst>(N).K))
        return true;
    }
    return false;
  }

  void emitLocalDecls() {
    // Locals are 64-byte aligned so full-width accesses at width-multiple
    // offsets can use aligned vector moves (see alignedLocalAddr).
    for (const Operand *L : F.Locals)
      Sink.line(formatf(
          "double %s[%d] __attribute__((aligned(64))) = {0.0};",
          L->Name.c_str(), L->Rows * L->Cols * F.LocalVecWidth));
  }

  /// Declares the registers some instruction still names (passes leave
  /// the ids of deleted instructions behind).
  void emitRegDecls() {
    std::vector<bool> Used(F.NumRegs, false);
    for (const Node &N : F.Body)
      forEachInst(N, [&](const Inst &In) {
        forEachReg(In, [&](int R) { Used[R] = true; });
      });
    for (int R = 0; R < F.NumRegs; ++R)
      if (Used[R])
        emitRegDecl(R);
  }

  void emitRegDecl(int R) {
    Sink.line(formatf("%s r%d;", regType(F.RegWidth[R]), R));
  }

  static const char *regType(int W) {
    switch (W) {
    case 8:
      return "__m512d";
    case 4:
      return "__m256d";
    case 2:
      return "__m128d";
    default:
      return "double";
    }
  }

  void emitMaskDecls() {
    std::set<int> Lanes;
    collectMaskLanes(F.Body, Lanes);
    emitMaskLines(Lanes);
    if (hasMaskedOps(F.Body))
      emitActiveMaskLines();
  }

  /// The runtime tail mask derived from the `int active_` parameter: lanes
  /// [0, active_) on. AVX-512 wants a k-register mask; AVX wants a per-lane
  /// all-ones/all-zeros __m256i for maskload/maskstore (built with an AVX2
  /// compare, which the avx target enables); SSE2 branches on active_
  /// inline and needs no materialized mask.
  void emitActiveMaskLines() {
    if (Nu == 8)
      Sink.line("const __mmask8 kact_ = (__mmask8)((1u << active_) - 1);");
    else if (Nu == 4)
      Sink.line("const __m256i mact_ = "
                "_mm256_cmpgt_epi64(_mm256_set1_epi64x(active_), "
                "_mm256_set_epi64x(3, 2, 1, 0));");
  }

  void emitMaskLines(const std::set<int> &Lanes) {
    for (int L : Lanes) {
      assert(L >= 1 && L <= 3 && "bad AVX mask lane count");
      std::string Args;
      for (int I = 3; I >= 0; --I)
        Args += formatf("%s%s", I == 3 ? "" : ", ", I < L ? "-1ll" : "0ll");
      Sink.line(formatf("const __m256i mk%d = _mm256_set_epi64x(%s);", L,
                        Args.c_str()));
    }
  }

  void emitBlock(const std::vector<Node> &Body) {
    for (const Node &N : Body)
      emitNode(N);
  }

  void emitNode(const Node &N) {
    if (const auto *L = std::get_if<Loop>(&N)) {
      std::string LoStr = formatf("%d", L->Lo);
      if (L->LoVar >= 0)
        LoStr += formatf(" + %d*%s", L->LoVarCoeff, var(L->LoVar).c_str());
      Sink.line(formatf("for (int %s = %s; %s < %d; %s += %d) {",
                        var(L->Var).c_str(), LoStr.c_str(),
                        var(L->Var).c_str(), L->Hi, var(L->Var).c_str(),
                        L->Step));
      Sink.indent();
      emitBlock(L->Body);
      Sink.dedent();
      Sink.line("}");
      return;
    }
    emitInst(std::get<Inst>(N));
  }

  //===--------------------------------------------------------------------===//
  // Splitting machinery.
  //===--------------------------------------------------------------------===//

  /// Applies \p Fn to every register id an instruction touches.
  template <typename FnT>
  static void forEachReg(const Inst &I, FnT Fn) {
    if (hasDst(I.K) && I.Dst >= 0)
      Fn(I.Dst);
    for (int R : {I.A, I.B, I.C})
      if (R >= 0)
        Fn(R);
  }

  template <typename FnT>
  static void forEachInst(const Node &N, FnT Fn) {
    if (const auto *I = std::get_if<Inst>(&N)) {
      Fn(*I);
      return;
    }
    for (const Node &Sub : std::get<Loop>(N).Body)
      forEachInst(Sub, Fn);
  }

  /// Registers holding pure constants (single def, SConst/VConst): CSE
  /// makes them live across the entire function, which would forbid every
  /// split point. They are rematerialized per part instead, so liveness
  /// ignores them. ConstDefs maps such a register to its defining
  /// instruction.
  std::map<int, const Inst *> ConstDefs;

  void collectConstDefs() {
    std::vector<int> Defs(F.NumRegs, 0);
    std::map<int, const Inst *> Single;
    for (const Node &N : F.Body)
      forEachInst(N, [&](const Inst &In) {
        if (!hasDst(In.K) || In.Dst < 0)
          return;
        if (++Defs[In.Dst] == 1 &&
            (In.K == Op::SConst || In.K == Op::VConst))
          Single[In.Dst] = &In;
      });
    for (auto [R, I] : Single)
      if (Defs[R] == 1)
        ConstDefs[R] = I;
  }

  bool isConstReg(int R) const { return ConstDefs.count(R) != 0; }

  /// Greedy partition of the top-level body into [first, last) ranges of
  /// at least MaxInstsPerPart instructions, cut only at nodes after which
  /// no (non-constant) register is live.
  std::vector<std::pair<size_t, size_t>> partition(int MaxInstsPerPart) {
    collectConstDefs();
    size_t NNodes = F.Body.size();
    std::vector<int> InstCount(NNodes, 0);
    std::vector<int> LastTouch(F.NumRegs, -1);
    for (size_t I = 0; I < NNodes; ++I)
      forEachInst(F.Body[I], [&](const Inst &In) {
        ++InstCount[I];
        forEachReg(In, [&](int R) { LastTouch[R] = static_cast<int>(I); });
      });
    long Active = -1;
    std::vector<std::pair<size_t, size_t>> Parts;
    size_t Start = 0;
    long Accum = 0;
    for (size_t I = 0; I < NNodes; ++I) {
      forEachInst(F.Body[I], [&](const Inst &In) {
        forEachReg(In, [&](int R) {
          if (!isConstReg(R))
            Active = std::max(Active, static_cast<long>(LastTouch[R]));
        });
      });
      Accum += InstCount[I];
      bool Clean = Active <= static_cast<long>(I);
      if (Clean && Accum >= MaxInstsPerPart && I + 1 < NNodes) {
        Parts.push_back({Start, I + 1});
        Start = I + 1;
        Accum = 0;
      }
    }
    if (Start < NNodes || Parts.empty())
      Parts.push_back({Start, NNodes});
    return Parts;
  }

  void emitRegDeclsForRange(size_t First, size_t Last) {
    std::set<int> Regs, Defined;
    for (size_t I = First; I < Last; ++I)
      forEachInst(F.Body[I], [&](const Inst &In) {
        forEachReg(In, [&](int R) { Regs.insert(R); });
        if (hasDst(In.K) && In.Dst >= 0)
          Defined.insert(In.Dst);
      });
    for (int R : Regs)
      emitRegDecl(R);
    // Rematerialize constants defined in other parts.
    for (int R : Regs)
      if (!Defined.count(R)) {
        auto It = ConstDefs.find(R);
        assert(It != ConstDefs.end() &&
               "non-constant register live across a split point");
        emitInst(*It->second);
      }
  }

  void emitMaskDeclsForRange(size_t First, size_t Last) {
    bool Masked = false;
    std::set<int> Lanes;
    for (size_t I = First; I < Last; ++I)
      forEachInst(F.Body[I], [&](const Inst &In) {
        if (isPartialYmm(In))
          Lanes.insert(In.Lanes);
        Masked |= isMaskedOp(In.K);
      });
    emitMaskLines(Lanes);
    if (Masked)
      emitActiveMaskLines();
  }

  void emitInst(const Inst &I) {
    switch (I.K) {
    case Op::SConst:
      Sink.line(formatf("r%d = %.17g;", I.Dst, I.Imm));
      break;
    case Op::SLoad:
      Sink.line(formatf("r%d = *(%s);", I.Dst, address(I.Address).c_str()));
      break;
    case Op::SStore:
      Sink.line(formatf("*(%s) = r%d;", address(I.Address).c_str(), I.A));
      break;
    case Op::SAdd:
      Sink.line(formatf("r%d = r%d + r%d;", I.Dst, I.A, I.B));
      break;
    case Op::SSub:
      Sink.line(formatf("r%d = r%d - r%d;", I.Dst, I.A, I.B));
      break;
    case Op::SMul:
      Sink.line(formatf("r%d = r%d * r%d;", I.Dst, I.A, I.B));
      break;
    case Op::SDiv:
      Sink.line(formatf("r%d = r%d / r%d;", I.Dst, I.A, I.B));
      break;
    case Op::SSqrt:
      Sink.line(formatf("r%d = sqrt(r%d);", I.Dst, I.A));
      break;
    case Op::SNeg:
      Sink.line(formatf("r%d = -r%d;", I.Dst, I.A));
      break;
    case Op::SFma:
      // fma() inlines to one vfmadd under -mfma -fno-math-errno.
      if (Nu >= 4)
        Sink.line(formatf("r%d = fma(r%d, r%d, r%d);", I.Dst, I.A, I.B, I.C));
      else
        Sink.line(formatf("r%d = r%d * r%d + r%d;", I.Dst, I.A, I.B, I.C));
      break;
    case Op::SFnma:
      if (Nu >= 4)
        Sink.line(
            formatf("r%d = fma(-r%d, r%d, r%d);", I.Dst, I.A, I.B, I.C));
      else
        Sink.line(formatf("r%d = r%d - r%d * r%d;", I.Dst, I.C, I.A, I.B));
      break;
    default:
      emitVector(I);
      break;
    }
  }

  /// Intrinsic prefix of a W-lane operation. 128- and 256-bit operations in
  /// an AVX-512 function use the AVX/AVX2/FMA VEX forms: the avx512 target
  /// enables AVX-512F only, without VL.
  static const char *pfx(int W) {
    return W == 8 ? "_mm512" : (W == 4 ? "_mm256" : "_mm");
  }

  /// A __m128d expression holding lanes 2*Pair and 2*Pair+1 of \p R, a
  /// W-lane register expression; lane moves stay in registers (one
  /// vextractf32x4 / vextractf128 at most).
  static std::string half(const std::string &R, int W, int Pair) {
    if (W == 8)
      return Pair == 0 ? "_mm512_castpd512_pd128(" + R + ")"
                       : formatf("_mm_castps_pd(_mm512_extractf32x4_ps("
                                 "_mm512_castpd_ps(%s), %d))",
                                 R.c_str(), Pair);
    if (W == 4)
      return Pair == 0 ? "_mm256_castpd256_pd128(" + R + ")"
                       : "_mm256_extractf128_pd(" + R + ", 1)";
    return R;
  }

  /// The scalar in lane \p Lane of the W-lane register \p R: one lane move
  /// into lane 0 (none for lane 0), then a free convert.
  std::string laneValue(int R, int W, int Lane) const {
    const char *P = pfx(W);
    if (Lane == 0)
      return formatf("%s_cvtsd_f64(r%d)", P, R);
    if (W == 2 && Nu == 2) // SSE2 has no vpermilpd
      return formatf("_mm_cvtsd_f64(_mm_unpackhi_pd(r%d, r%d))", R, R);
    if (Lane == 1) // in-lane swap
      return formatf("%s_cvtsd_f64(%s_permute_pd(r%d, 1))", P, P, R);
    if (W == 4)
      return Lane == 2
                 ? formatf("_mm_cvtsd_f64(_mm256_extractf128_pd(r%d, 1))", R)
                 : formatf("_mm256_cvtsd_f64(_mm256_permute4x64_pd(r%d, 3))",
                           R);
    return formatf("_mm512_cvtsd_f64(_mm512_permutexvar_pd("
                   "_mm512_set1_epi64(%d), r%d))",
                   Lane, R);
  }

  void emitVector(const Inst &I) {
    assert(Nu > 1 && "vector instruction in a scalar function");
    const int W = widthOf(I);
    const char *P = pfx(W);
    switch (I.K) {
    case Op::VConst:
      Sink.line(formatf("r%d = %s_set1_pd(%.17g);", I.Dst, P, I.Imm));
      break;
    case Op::VBroadcast:
      Sink.line(formatf("r%d = %s_set1_pd(r%d);", I.Dst, P, I.A));
      break;
    case Op::VLoad:
      if (I.Lanes == W) {
        Sink.line(formatf("r%d = %s_load%s_pd(%s);", I.Dst, P,
                          alignedLocalAddr(I.Address, W) ? "" : "u",
                          address(I.Address).c_str()));
      } else if (W == 8) {
        // AVX-512 masked loads take an immediate lane mask; masked-off
        // lanes are zeroed (maskz), matching VLoad semantics.
        Sink.line(formatf(
            "r%d = _mm512_maskz_loadu_pd((__mmask8)0x%x, %s);", I.Dst,
            (1 << I.Lanes) - 1, address(I.Address).c_str()));
      } else if (W == 4) {
        Sink.line(formatf("r%d = _mm256_maskload_pd(%s, mk%d);", I.Dst,
                          address(I.Address).c_str(), I.Lanes));
      } else { // one lane of two
        Sink.line(formatf("r%d = _mm_load_sd(%s);", I.Dst,
                          address(I.Address).c_str()));
      }
      break;
    case Op::VStore:
      if (I.Lanes == W) {
        Sink.line(formatf("%s_store%s_pd(%s, r%d);", P,
                          alignedLocalAddr(I.Address, W) ? "" : "u",
                          address(I.Address).c_str(), I.A));
      } else if (W == 8) {
        Sink.line(formatf("_mm512_mask_storeu_pd(%s, (__mmask8)0x%x, r%d);",
                          address(I.Address).c_str(), (1 << I.Lanes) - 1,
                          I.A));
      } else if (W == 4) {
        Sink.line(formatf("_mm256_maskstore_pd(%s, mk%d, r%d);",
                          address(I.Address).c_str(), I.Lanes, I.A));
      } else {
        Sink.line(formatf("_mm_store_sd(%s, r%d);",
                          address(I.Address).c_str(), I.A));
      }
      break;
    case Op::VLoadStrided: {
      // Gather a strided (column) access with a set; lanes beyond the
      // active count become zero.
      std::string Args;
      for (int L = W - 1; L >= 0; --L) {
        if (L < I.Lanes)
          Args += formatf("(%s)[%d]", address(I.Address).c_str(),
                          L * I.Stride);
        else
          Args += "0.0";
        if (L)
          Args += ", ";
      }
      Sink.line(formatf("r%d = %s_set_pd(%s);", I.Dst, P, Args.c_str()));
      break;
    }
    case Op::VStoreStrided: {
      // Scatter lane by lane from 128-bit quarters: movsd for even lanes,
      // movhpd for odd ones.
      std::string Base = address(I.Address);
      Sink.line("{");
      Sink.indent();
      for (int Pair = 0; 2 * Pair < I.Lanes; ++Pair)
        Sink.line(formatf("__m128d h%d_ = %s;", Pair,
                          half(reg(I.A), W, Pair).c_str()));
      for (int L = 0; L < I.Lanes; ++L)
        Sink.line(formatf("%s((%s) + %d, h%d_);",
                          L % 2 ? "_mm_storeh_pd" : "_mm_store_sd",
                          Base.c_str(), L * I.Stride, L / 2));
      Sink.dedent();
      Sink.line("}");
      break;
    }
    case Op::VLoadStridedMasked:
      // Runtime-masked lane-strided load for the batch tail: lanes
      // [0, active_) gather instance data, dead lanes are zeroed so their
      // garbage can never raise FP exceptions into real results.
      if (Nu == 8 && I.Stride == 1) {
        Sink.line(formatf("r%d = _mm512_maskz_loadu_pd(kact_, %s);", I.Dst,
                          address(I.Address).c_str()));
      } else if (Nu == 8) {
        Sink.line(formatf(
            "r%d = _mm512_mask_i64gather_pd(_mm512_setzero_pd(), kact_, "
            "_mm512_set_epi64(%d, %d, %d, %d, %d, %d, %d, 0), %s, 8);",
            I.Dst, 7 * I.Stride, 6 * I.Stride, 5 * I.Stride, 4 * I.Stride,
            3 * I.Stride, 2 * I.Stride, I.Stride,
            address(I.Address).c_str()));
      } else if (Nu == 4 && I.Stride == 1) {
        Sink.line(formatf("r%d = _mm256_maskload_pd(%s, mact_);", I.Dst,
                          address(I.Address).c_str()));
      } else if (Nu == 4) {
        Sink.line(formatf(
            "r%d = _mm256_mask_i64gather_pd(_mm256_setzero_pd(), %s, "
            "_mm256_set_epi64x(%d, %d, %d, 0), _mm256_castsi256_pd(mact_), "
            "8);",
            I.Dst, address(I.Address).c_str(), 3 * I.Stride, 2 * I.Stride,
            I.Stride));
      } else { // SSE2: lane 0 is always active (active_ >= 1)
        Sink.line(formatf(
            "r%d = _mm_set_pd(active_ > 1 ? (%s)[%d] : 0.0, (%s)[0]);",
            I.Dst, address(I.Address).c_str(), I.Stride,
            address(I.Address).c_str()));
      }
      break;
    case Op::VStoreStridedMasked:
      if (Nu == 8 && I.Stride == 1) {
        Sink.line(formatf("_mm512_mask_storeu_pd(%s, kact_, r%d);",
                          address(I.Address).c_str(), I.A));
      } else if (Nu == 8) {
        Sink.line(formatf(
            "_mm512_mask_i64scatter_pd(%s, kact_, "
            "_mm512_set_epi64(%d, %d, %d, %d, %d, %d, %d, 0), r%d, 8);",
            address(I.Address).c_str(), 7 * I.Stride, 6 * I.Stride,
            5 * I.Stride, 4 * I.Stride, 3 * I.Stride, 2 * I.Stride, I.Stride,
            I.A));
      } else if (Nu == 4 && I.Stride == 1) {
        Sink.line(formatf("_mm256_maskstore_pd(%s, mact_, r%d);",
                          address(I.Address).c_str(), I.A));
      } else if (Nu == 4) {
        // No AVX scatter: spill and store the active lanes scalarly.
        Sink.line("{");
        Sink.indent();
        Sink.line(formatf("double t%d_[4];", I.A));
        Sink.line(formatf("_mm256_storeu_pd(t%d_, r%d);", I.A, I.A));
        Sink.line(formatf("for (int l_ = 0; l_ < active_; ++l_)"));
        Sink.indent();
        Sink.line(formatf("(%s)[l_ * %d] = t%d_[l_];",
                          address(I.Address).c_str(), I.Stride, I.A));
        Sink.dedent();
        Sink.dedent();
        Sink.line("}");
      } else {
        Sink.line(formatf("_mm_store_sd(%s, r%d);",
                          address(I.Address).c_str(), I.A));
        Sink.line(formatf("if (active_ > 1) _mm_storeh_pd((%s) + %d, r%d);",
                          address(I.Address).c_str(), I.Stride, I.A));
      }
      break;
    case Op::VAdd:
      Sink.line(formatf("r%d = %s_add_pd(r%d, r%d);", I.Dst, P, I.A, I.B));
      break;
    case Op::VSub:
      Sink.line(formatf("r%d = %s_sub_pd(r%d, r%d);", I.Dst, P, I.A, I.B));
      break;
    case Op::VMul:
      Sink.line(formatf("r%d = %s_mul_pd(r%d, r%d);", I.Dst, P, I.A, I.B));
      break;
    case Op::VDiv:
      Sink.line(formatf("r%d = %s_div_pd(r%d, r%d);", I.Dst, P, I.A, I.B));
      break;
    case Op::VSqrt:
      Sink.line(formatf("r%d = %s_sqrt_pd(r%d);", I.Dst, P, I.A));
      break;
    case Op::VNeg:
      // Sign-bit flip, not 0-x: subtraction would turn -0.0 into +0.0 and
      // diverge from the scalar kernel's `-r` through later divisions.
      // _mm512_xor_pd is AVX-512DQ, which the avx512 target deliberately
      // does not enable (see isaCompileFlags), so 8 lanes flip the sign
      // through the AVX-512F integer xor instead.
      if (W == 8)
        Sink.line(formatf(
            "r%d = _mm512_castsi512_pd(_mm512_xor_epi64(_mm512_castpd_si512("
            "r%d), _mm512_castpd_si512(_mm512_set1_pd(-0.0))));",
            I.Dst, I.A));
      else
        Sink.line(formatf("r%d = %s_xor_pd(%s_set1_pd(-0.0), r%d);", I.Dst,
                          P, P, I.A));
      break;
    case Op::VFma:
      if (Nu >= 4)
        Sink.line(formatf("r%d = %s_fmadd_pd(r%d, r%d, r%d);", I.Dst, P, I.A,
                          I.B, I.C));
      else
        Sink.line(formatf("r%d = _mm_add_pd(_mm_mul_pd(r%d, r%d), r%d);",
                          I.Dst, I.A, I.B, I.C));
      break;
    case Op::VFnma:
      if (Nu >= 4)
        Sink.line(formatf("r%d = %s_fnmadd_pd(r%d, r%d, r%d);", I.Dst, P,
                          I.A, I.B, I.C));
      else
        Sink.line(formatf("r%d = _mm_sub_pd(r%d, _mm_mul_pd(r%d, r%d));",
                          I.Dst, I.C, I.A, I.B));
      break;
    case Op::VExtract:
      Sink.line(formatf("r%d = %s;", I.Dst,
                        laneValue(I.A, W, I.Lanes).c_str()));
      break;
    case Op::VReduceAdd: {
      // Halving tree (the interpreter's order): upper half onto lower half
      // until one lane is left.
      if (W == 2) {
        Sink.line(formatf(
            "r%d = _mm_cvtsd_f64(_mm_add_sd(r%d, _mm_unpackhi_pd(r%d, "
            "r%d)));",
            I.Dst, I.A, I.A, I.A));
        break;
      }
      std::string Y = reg(I.A);
      if (W == 8)
        Y = formatf("_mm256_add_pd(_mm512_castpd512_pd256(r%d), "
                    "_mm512_extractf64x4_pd(r%d, 1))",
                    I.A, I.A);
      Sink.line("{");
      Sink.indent();
      Sink.line(formatf("__m256d t%d_y = %s;", I.Dst, Y.c_str()));
      Sink.line(formatf("__m128d t%d_x = _mm_add_pd(_mm256_castpd256_pd128("
                        "t%d_y), _mm256_extractf128_pd(t%d_y, 1));",
                        I.Dst, I.Dst, I.Dst));
      Sink.line(formatf("r%d = _mm_cvtsd_f64(_mm_add_sd(t%d_x, "
                        "_mm_unpackhi_pd(t%d_x, t%d_x)));",
                        I.Dst, I.Dst, I.Dst, I.Dst));
      Sink.dedent();
      Sink.line("}");
      break;
    }
    case Op::VShuffle:
      emitShuffle(I, W);
      break;
    default:
      assert(false && "unhandled opcode");
    }
  }

  /// Lowers VShuffle. The sources may be wider or narrower than the result
  /// (the load/store analysis reuses registers of any width): narrower
  /// sources are zero-extended first, and a narrower result takes the low
  /// lanes of a shuffle at the sources' width.
  void emitShuffle(const Inst &I, int W) {
    const int Ws = F.RegWidth[I.A];
    std::string A = reg(I.A), B = reg(I.B < 0 ? I.A : I.B);
    std::vector<int> Sel = I.Sel;
    bool Splat = Sel[0] >= 0;
    for (int S : Sel)
      Splat = Splat && S == Sel[0];
    if (Splat) {
      Sink.line(formatf("r%d = %s;", I.Dst,
                        splat(Sel[0] < Ws ? A : B, Ws, W, Sel[0] % Ws)
                            .c_str()));
      return;
    }
    if (Ws < W) {
      // Two halves side by side are one insert.
      bool Concat = Ws * 2 == W;
      for (int L = 0; L < W; ++L)
        Concat = Concat && Sel[L] == L;
      if (Concat) {
        Sink.line(formatf(
            W == 8 ? "r%d = _mm512_insertf64x4(_mm512_castpd256_pd512(%s), "
                     "%s, 1);"
                   : "r%d = _mm256_insertf128_pd(_mm256_castpd128_pd256(%s), "
                     "%s, 1);",
            I.Dst, A.c_str(), B.c_str()));
        return;
      }
      A = zext(A, Ws, W);
      B = zext(B, Ws, W);
      for (int &S : Sel)
        if (S >= Ws)
          S += W - Ws;
      Sink.line(formatf("r%d = %s;", I.Dst, shuffleExpr(Sel, A, B, W).c_str()));
      return;
    }
    if (Ws > W) {
      // An aligned block of one source is a plain extract.
      bool Block = Sel[0] >= 0 && Sel[0] % W == 0;
      for (int L = 0; L < W; ++L)
        Block = Block && Sel[L] == Sel[0] + L && Sel[L] / Ws == Sel[0] / Ws;
      if (Block) {
        int Lane = Sel[0] % Ws;
        Sink.line(formatf("r%d = %s;", I.Dst,
                          block(Sel[0] < Ws ? A : B, Ws, W, Lane).c_str()));
        return;
      }
      Sel.resize(Ws, DontCare);
    }
    std::string E = shuffleExpr(Sel, A, B, Ws);
    if (Ws > W)
      E = block(E, Ws, W, 0);
    Sink.line(formatf("r%d = %s;", I.Dst, E.c_str()));
  }

  /// Lane \p Lane of the Ws-lane register \p R broadcast to W lanes.
  std::string splat(const std::string &R, int Ws, int W, int Lane) const {
    if (W == 8) {
      if (Ws == 8)
        return formatf("_mm512_permutexvar_pd(_mm512_set1_epi64(%d), %s)",
                       Lane, R.c_str());
      std::string H = half(R, Ws, Lane / 2); // lane to the low slot
      if (Lane % 2)
        H = "_mm_permute_pd(" + H + ", 1)";
      return "_mm512_broadcastsd_pd(" + H + ")";
    }
    if (Ws == 2 && W == 2)
      return formatf("_mm_shuffle_pd(%s, %s, %d)", R.c_str(), R.c_str(),
                     3 * Lane);
    // AVX2 vpermpd within a 256-bit block, narrowed for two lanes.
    std::string Y = R;
    if (Ws == 8)
      Y = Lane < 4 ? "_mm512_castpd512_pd256(" + R + ")"
                   : "_mm512_extractf64x4_pd(" + R + ", 1)";
    else if (Ws == 2)
      Y = "_mm256_castpd128_pd256(" + R + ")";
    std::string E = formatf("_mm256_permute4x64_pd(%s, %d)", Y.c_str(),
                            0x55 * (Lane % 4));
    return W == 4 ? E : "_mm256_castpd256_pd128(" + E + ")";
  }

  /// Selector lanes whose value is never read.
  static constexpr int DontCare = -2;

  /// Lanes [Lane, Lane + W) of the Ws-lane register expression \p R.
  static std::string block(const std::string &R, int Ws, int W, int Lane) {
    if (W == 2)
      return half(R, Ws, Lane / 2);
    assert(Ws == 8 && W == 4 && "unsupported narrowing");
    return Lane == 0 ? "_mm512_castpd512_pd256(" + R + ")"
                     : "_mm512_extractf64x4_pd(" + R + ", 1)";
  }

  /// \p R (Ws lanes) widened to W lanes, the new lanes zero.
  static std::string zext(const std::string &R, int Ws, int W) {
    return formatf("_mm%s_zextpd%d_pd%d(%s)", W == 8 ? "512" : "256",
                   Ws * 64, W * 64, R.c_str());
  }

  std::string shuffleExpr(const std::vector<int> &Sel, const std::string &A,
                          const std::string &B, int W) const {
    if (W == 2) {
      // _mm_shuffle_pd(x, y, imm) yields {x[imm&1], y[imm>>1]}; choose x
      // and y independently among A, B, and a zero vector.
      std::string Src[2];
      int LaneBit[2];
      for (int L = 0; L < 2; ++L) {
        int S = Sel[L];
        if (S < 0) {
          Src[L] = "_mm_setzero_pd()";
          LaneBit[L] = 0;
        } else if (S < 2) {
          Src[L] = A;
          LaneBit[L] = S;
        } else {
          Src[L] = B;
          LaneBit[L] = S - 2;
        }
      }
      return formatf("_mm_shuffle_pd(%s, %s, %d)", Src[0].c_str(),
                     Src[1].c_str(), LaneBit[0] | (LaneBit[1] << 1));
    }
    if (W == 8) {
      // Lanes that stay in place are a masked blend; anything else is one
      // masked lane permutation (of one source, or of both: index bit 3
      // picks the source). The zeroing mask clears the -1 lanes.
      int Live = 0, FromB = 0;
      bool PerLane = true, UsesA = false;
      std::string Idx;
      for (int L = 7; L >= 0; --L) {
        int S = Sel[L];
        if (S >= 0) {
          Live |= 1 << L;
          FromB |= (S >= 8) << L;
          UsesA = UsesA || S < 8;
          PerLane = PerLane && S % 8 == L;
        }
        Idx += formatf("%s%d", L == 7 ? "" : ", ", S < 0 ? 0 : S);
      }
      if (PerLane) {
        std::string E = FromB == 0      ? A
                        : FromB == Live ? B
                                        : formatf("_mm512_mask_blend_pd("
                                                  "(__mmask8)0x%x, %s, %s)",
                                                  FromB, A.c_str(), B.c_str());
        if (Live == 0xff)
          return E;
        return formatf("_mm512_maskz_mov_pd((__mmask8)0x%x, %s)", Live,
                       E.c_str());
      }
      if (!UsesA || FromB == 0)
        return formatf("_mm512_maskz_permutexvar_pd((__mmask8)0x%x, "
                       "_mm512_set_epi64(%s), %s)",
                       Live, Idx.c_str(), FromB ? B.c_str() : A.c_str());
      return formatf("_mm512_maskz_permutex2var_pd((__mmask8)0x%x, %s, "
                     "_mm512_set_epi64(%s), %s)",
                     Live, A.c_str(), Idx.c_str(), B.c_str());
    }
    assert(W == 4 && "unsupported vector width");
    bool UsesA = false, UsesB = false;
    bool PerLane = true; // every lane L selects L from A or L from B
    int ZeroMask = 0, BMask = 0;
    for (int L = 0; L < 4; ++L) {
      int S = Sel[L];
      if (S == DontCare)
        continue;
      if (S < 0)
        ZeroMask |= 1 << L;
      else if (S < 4) {
        UsesA = true;
        PerLane = PerLane && S == L;
      } else {
        UsesB = true;
        BMask |= 1 << L;
        PerLane = PerLane && S - 4 == L;
      }
    }
    auto BlendZero = [&](const std::string &Expr) {
      if (!ZeroMask)
        return Expr;
      return formatf("_mm256_blend_pd(%s, _mm256_setzero_pd(), %d)",
                     Expr.c_str(), ZeroMask);
    };
    // Permute each source with AVX2 permute4x64 unless every lane already
    // sits in place, then blend.
    auto Source = [&](bool FromB) {
      const std::string &R = FromB ? B : A;
      if (PerLane)
        return R;
      int Imm = 0;
      for (int L = 0; L < 4; ++L) {
        int S = Sel[L];
        int Lane = L;
        if (S >= 0 && (S >= 4) == FromB)
          Lane = FromB ? S - 4 : S;
        Imm |= Lane << (2 * L);
      }
      return formatf("_mm256_permute4x64_pd(%s, %d)", R.c_str(), Imm);
    };
    if (UsesA && UsesB)
      return BlendZero(formatf("_mm256_blend_pd(%s, %s, %d)",
                               Source(false).c_str(), Source(true).c_str(),
                               BMask));
    return BlendZero(Source(UsesB));
  }
};

} // namespace

std::string cir::emitFunction(const Function &F) {
  Emitter E(F);
  return E.run();
}

std::string cir::emitFunctionSplit(const Function &F, int MaxInstsPerPart) {
  Emitter E(F);
  return E.runSplit(MaxInstsPerPart);
}

std::string cir::emitPrototype(const Function &F) {
  return Emitter::prototype(F);
}

std::string cir::emitTranslationUnit(const Function &F) {
  std::string S;
  S += "#include <math.h>\n";
  if (F.Nu > 1)
    S += "#include <immintrin.h>\n";
  S += "\n";
  // Very large fully-unrolled kernels are split into part-functions to
  // keep the C compiler's superlinear per-function analyses tractable.
  S += emitFunctionSplit(F, /*MaxInstsPerPart=*/1 << 14);
  return S;
}
