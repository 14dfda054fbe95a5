//===- lgen/Tiler.cpp -----------------------------------------------------==//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "lgen/Tiler.h"

#include "lgen/NuBlacs.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace slingen;
using namespace slingen::lgen;
using cir::FuncBuilder;
using cir::Op;

//===----------------------------------------------------------------------===//
// Term flattening.
//===----------------------------------------------------------------------===//

static bool flattenInto(const ExprPtr &E, int Sign, std::vector<Term> &Out) {
  switch (E->kind()) {
  case ExprKind::Add: {
    const auto *B = cast<BinaryExpr>(E.get());
    return flattenInto(B->L, Sign, Out) && flattenInto(B->R, Sign, Out);
  }
  case ExprKind::Sub: {
    const auto *B = cast<BinaryExpr>(E.get());
    return flattenInto(B->L, Sign, Out) && flattenInto(B->R, -Sign, Out);
  }
  case ExprKind::Neg:
    return flattenInto(cast<UnaryExpr>(E.get())->Sub, -Sign, Out);
  case ExprKind::Mul: {
    const auto *B = cast<BinaryExpr>(E.get());
    std::vector<Term> L, R;
    if (!flattenInto(B->L, Sign, L) || !flattenInto(B->R, 1, R))
      return false;
    if (L.size() != 1 || R.size() != 1)
      return false; // no distribution: SLinGen pre-normalizes
    Term T;
    T.Sign = L[0].Sign * R[0].Sign;
    T.Mat = L[0].Mat;
    T.Mat.insert(T.Mat.end(), R[0].Mat.begin(), R[0].Mat.end());
    T.Sca = L[0].Sca;
    T.Sca.insert(T.Sca.end(), R[0].Sca.begin(), R[0].Sca.end());
    if (T.Mat.size() > 2)
      return false;
    Out.push_back(std::move(T));
    return true;
  }
  case ExprKind::View:
  case ExprKind::Trans:
  case ExprKind::Const: {
    Term T;
    T.Sign = Sign;
    if (E->isScalarShaped()) {
      T.Sca.push_back(E);
    } else {
      bool Tr = false;
      const ViewExpr *V = asViewMaybeTrans(E, Tr);
      if (!V)
        return false;
      T.Mat.push_back({V, Tr});
    }
    Out.push_back(std::move(T));
    return true;
  }
  default:
    return false; // Div/Sqrt/Inv do not appear in sBLACs
  }
}

bool lgen::flattenRhs(const ExprPtr &E, std::vector<Term> &Out) {
  Out.clear();
  return flattenInto(E, 1, Out);
}

//===----------------------------------------------------------------------===//
// Scalar statements.
//===----------------------------------------------------------------------===//

static int emitScalarExpr(FuncBuilder &B, const ExprPtr &E) {
  assert(E->isScalarShaped() && "non-scalar in scalar statement");
  if (const auto *V = dyn_cast<ViewExpr>(E))
    return loadElem(B, *V, false, 0, 0);
  if (const auto *C = dyn_cast<ConstExpr>(E))
    return B.sconst(C->Value);
  if (const auto *U = dyn_cast<UnaryExpr>(E)) {
    switch (U->kind()) {
    case ExprKind::Trans:
      return emitScalarExpr(B, U->Sub);
    case ExprKind::Neg:
      return B.sneg(emitScalarExpr(B, U->Sub));
    case ExprKind::Sqrt:
      return B.ssqrt(emitScalarExpr(B, U->Sub));
    default:
      assert(false && "bad scalar unary");
    }
  }
  const auto *Bin = cast<BinaryExpr>(E.get());
  int L = emitScalarExpr(B, Bin->L);
  int R = emitScalarExpr(B, Bin->R);
  switch (Bin->kind()) {
  case ExprKind::Add:
    return B.sbin(Op::SAdd, L, R);
  case ExprKind::Sub:
    return B.sbin(Op::SSub, L, R);
  case ExprKind::Mul:
    return B.sbin(Op::SMul, L, R);
  case ExprKind::Div:
    return B.sbin(Op::SDiv, L, R);
  default:
    assert(false && "bad scalar binary");
    return -1;
  }
}

void lgen::compileScalarStmt(FuncBuilder &B, const EqStmt &S) {
  const auto *L = cast<ViewExpr>(S.Lhs.get());
  int R = emitScalarExpr(B, S.Rhs);
  storeElem(B, *L, false, 0, 0, R);
}

//===----------------------------------------------------------------------===//
// Tiled emission.
//===----------------------------------------------------------------------===//

namespace {

class SBlacTiler {
public:
  SBlacTiler(FuncBuilder &B, const EqStmt &S, const TileOptions &Opt)
      : B(B), Opt(Opt), Nu(Opt.Nu), Lhs(cast<ViewExpr>(S.Lhs.get())) {
    [[maybe_unused]] bool Ok = flattenRhs(S.Rhs, Terms);
    assert(Ok && "unsupported sBLAC shape reached the tiler");
    checkAliasing();
    hoistScalars();
  }

  void run() {
    int M = Lhs->rows(), N = Lhs->cols();
    if (M == 1 && N == 1) {
      emitReducedRowsUnrolled(0, 1);
      return;
    }
    if (Nu == 1) {
      emitScalarized();
      return;
    }
    if (N == 1) {
      bool HasProduct = false;
      for (const Term &T : Terms)
        HasProduct |= T.Mat.size() == 2;
      if (HasProduct)
        emitReducedRows();
      else
        emitLinearColumn();
      return;
    }
    emitBroadcastTiles();
  }

private:
  FuncBuilder &B;
  const TileOptions &Opt;
  int Nu;
  const ViewExpr *Lhs;
  std::vector<Term> Terms;
  std::vector<int> CoefReg; ///< per-term signed scalar coefficient (or -1)

  /// RHS views must be identical to or disjoint from the LHS region.
  void checkAliasing() const {
    for (const Term &T : Terms)
      for (const Factor &F : T.Mat) {
        if (!F.V->overlaps(*Lhs))
          continue;
        [[maybe_unused]] bool Same =
            F.V->Op->root() == Lhs->Op->root() && F.V->R0 == Lhs->R0 &&
            F.V->C0 == Lhs->C0 && F.V->rows() == Lhs->rows() &&
            F.V->cols() == Lhs->cols() && !F.Trans &&
            T.Mat.size() == 1;
        assert(Same && "partial aliasing between LHS and RHS views");
      }
  }

  /// Evaluates the scalar coefficient of each term once, folding the sign.
  /// CoefReg[t] < 0 means "no coefficient" (sign handled at use sites).
  void hoistScalars() {
    CoefReg.assign(Terms.size(), -1);
    for (size_t T = 0; T < Terms.size(); ++T) {
      if (Terms[T].Sca.empty())
        continue;
      int R = -1;
      for (const ExprPtr &S : Terms[T].Sca) {
        int V = emitScalarExpr(B, S);
        R = R < 0 ? V : B.sbin(Op::SMul, R, V);
      }
      if (Terms[T].Sign < 0) {
        R = B.sneg(R);
        Terms[T].Sign = 1;
      }
      CoefReg[T] = R;
    }
  }

  bool symOutUpper() const {
    return Lhs->structure() == StructureKind::SymmetricUpper;
  }
  bool symOutLower() const {
    return Lhs->structure() == StructureKind::SymmetricLower;
  }

  /// Inner-index range [Lo, Hi) with possible non-zeros for a product term,
  /// given the output tile rows [RLo, RHi) and cols [CLo, CHi). Constant
  /// positions only (unrolled mode).
  static std::pair<int, int> nonzeroPRange(const Factor &A, const Factor &X,
                                           int K, int RLo, int RHi, int CLo,
                                           int CHi) {
    int Lo = 0, Hi = K;
    switch (A.effStructure()) {
    case StructureKind::LowerTriangular:
      Hi = std::min(Hi, RHi);
      break;
    case StructureKind::UpperTriangular:
      Lo = std::max(Lo, RLo);
      break;
    case StructureKind::Diagonal:
    case StructureKind::Identity:
      Lo = std::max(Lo, RLo);
      Hi = std::min(Hi, RHi);
      break;
    case StructureKind::Zero:
      return {0, 0};
    default:
      break;
    }
    switch (X.effStructure()) {
    case StructureKind::LowerTriangular:
      Lo = std::max(Lo, CLo);
      break;
    case StructureKind::UpperTriangular:
      Hi = std::min(Hi, CHi);
      break;
    case StructureKind::Diagonal:
    case StructureKind::Identity:
      Lo = std::max(Lo, CLo);
      Hi = std::min(Hi, CHi);
      break;
    case StructureKind::Zero:
      return {0, 0};
    default:
      break;
    }
    return {Lo, std::max(Lo, Hi)};
  }

  static bool termIsZero(const Term &T) {
    for (const Factor &F : T.Mat)
      if (F.effStructure() == StructureKind::Zero)
        return true;
    return false;
  }

  //===--------------------------------------------------------------------===//
  // Width-generic register operations on W lanes; W == 1 is a scalar.
  //===--------------------------------------------------------------------===//

  int zeroReg(int W) { return W == 1 ? B.sconst(0.0) : B.vconst(0.0, W); }
  int splat(int S, int W) { return W == 1 ? S : B.vbroadcast(S, W); }
  int add(int A, int C, int W) {
    return W == 1 ? B.sbin(Op::SAdd, A, C) : B.vbin(Op::VAdd, A, C);
  }
  int sub(int A, int C, int W) {
    return W == 1 ? B.sbin(Op::SSub, A, C) : B.vbin(Op::VSub, A, C);
  }
  /// Acc + X * Y. Scalar chains stay mul + add here; cir::cse fuses them
  /// on FMA ISAs.
  int madd(int X, int Y, int Acc, int W) {
    if (W > 1)
      return B.vfma(X, Y, Acc);
    return B.sbin(Op::SAdd, Acc, B.sbin(Op::SMul, X, Y));
  }
  void maddInto(int Acc, int X, int Y, int W) {
    if (W > 1)
      B.vfmaInto(Acc, X, Y, Acc);
    else
      B.sbinInto(Acc, Op::SAdd, Acc, B.sbin(Op::SMul, X, Y));
  }
  int load(const Factor &F, Pos R, Pos C, int Count, bool AlongCols, int W) {
    if (W == 1)
      return loadElem(B, *F.V, F.Trans, R, C);
    return loadSpan(B, *F.V, F.Trans, R, C, Count, AlongCols, W);
  }
  void store(Pos R, Pos C, int Count, bool AlongCols, int Reg) {
    if (B.width(Reg) == 1)
      storeElem(B, *Lhs, false, R, C, Reg);
    else
      storeSpan(B, *Lhs, false, R, C, Count, AlongCols, Reg);
  }

  //===--------------------------------------------------------------------===//
  // Matrix output: broadcast-FMA register tiles.
  //===--------------------------------------------------------------------===//

  void emitBroadcastTiles() {
    int M = Lhs->rows(), N = Lhs->cols();
    int TilesR = (M + Nu - 1) / Nu, TilesC = (N + Nu - 1) / Nu;
    long TileCount = static_cast<long>(TilesR) * TilesC;
    bool Divisible = M % Nu == 0 && N % Nu == 0;
    if (!Divisible || TileCount <= Opt.UnrollTiles) {
      for (int R0 = 0; R0 < M; R0 += Nu)
        for (int C0 = 0; C0 < N; C0 += Nu) {
          int TR = std::min(Nu, M - R0), TC = std::min(Nu, N - C0);
          if (symOutUpper() && R0 >= C0 + TC)
            continue; // strictly below the diagonal: mirrored later
          if (symOutLower() && C0 >= R0 + TR)
            continue;
          emitOneTile(Pos(R0), Pos(C0), TR, TC, /*Constant=*/true);
        }
      return;
    }
    // Loop mode (full tiles only; divisibility checked above). Symmetric
    // outputs get a triangular iteration space via the affine lower bound.
    int RV = B.beginLoop(0, M, Nu);
    int CV;
    if (symOutUpper())
      CV = B.beginLoopAffine(0, RV, 1, N, Nu);
    else
      CV = B.beginLoop(0, N, Nu);
    if (symOutLower()) {
      // Iterate the lower triangle: rows from the column tile downwards.
      // (Equivalent to swapping the roles of RV/CV in the upper case.)
    }
    emitOneTile(Pos::var(RV), Pos::var(CV), Nu, Nu, /*Constant=*/false);
    B.endLoop();
    B.endLoop();
  }

  /// One TR x TC tile: a register per row, each as wide as the TC live
  /// lanes need (a scalar for a single column).
  void emitOneTile(Pos R0, Pos C0, int TR, int TC, bool Constant) {
    const int W = tileWidth(TC, Nu);
    std::vector<int> Acc(TR, zeroReg(W));
    for (size_t T = 0; T < Terms.size(); ++T) {
      const Term &Tm = Terms[T];
      if (termIsZero(Tm))
        continue;
      if (Tm.Mat.empty()) {
        // Pure scalar term broadcast over the tile (e.g. "view = 0").
        int BC = splat(CoefReg[T], W);
        for (int R = 0; R < TR; ++R)
          Acc[R] = add(Acc[R], BC, W);
      } else if (Tm.Mat.size() == 1)
        emitLinearTermTile(Tm, CoefReg[T], R0, C0, TR, TC, W, Acc);
      else
        emitProductTermTile(Tm, CoefReg[T], R0, C0, TR, TC, W, Constant,
                            Acc);
    }
    for (int R = 0; R < TR; ++R)
      store(R0.plus(R), C0, TC, /*AlongCols=*/true, Acc[R]);
  }

  void emitLinearTermTile(const Term &Tm, int Coef, Pos R0, Pos C0, int TR,
                          int TC, int W, std::vector<int> &Acc) {
    const Factor &F = Tm.Mat[0];
    int BCoef = Coef >= 0 ? splat(Coef, W) : -1;
    for (int R = 0; R < TR; ++R) {
      int Span = load(F, R0.plus(R), C0, TC, /*AlongCols=*/true, W);
      if (BCoef >= 0)
        Acc[R] = madd(BCoef, Span, Acc[R], W);
      else if (Tm.Sign > 0)
        Acc[R] = add(Acc[R], Span, W);
      else
        Acc[R] = sub(Acc[R], Span, W);
    }
  }

  void emitProductTermTile(const Term &Tm, int Coef, Pos R0, Pos C0, int TR,
                           int TC, int W, bool Constant,
                           std::vector<int> &Acc) {
    const Factor &A = Tm.Mat[0], &X = Tm.Mat[1];
    int K = A.cols();
    assert(K == X.rows() && "inner dimension mismatch in term");
    int PLo = 0, PHi = K;
    if (Constant) {
      auto [Lo, Hi] = nonzeroPRange(A, X, K, R0.Const, R0.Const + TR,
                                    C0.Const, C0.Const + TC);
      PLo = Lo;
      PHi = Hi;
    }
    if (PHi - PLo > Opt.UnrollK) {
      // Materialize the reduction as a loop with stable accumulators.
      std::vector<int> LoopAcc(TR);
      for (int R = 0; R < TR; ++R)
        LoopAcc[R] = zeroReg(W);
      int PV = B.beginLoop(PLo, PHi, 1);
      int BSpan = load(X, Pos::var(PV), C0, TC, /*AlongCols=*/true, W);
      for (int R = 0; R < TR; ++R) {
        int AElem = loadElem(B, *A.V, A.Trans, R0.plus(R), Pos::var(PV));
        AElem = scaleElem(AElem, Tm.Sign, Coef);
        maddInto(LoopAcc[R], splat(AElem, W), BSpan, W);
      }
      B.endLoop();
      for (int R = 0; R < TR; ++R)
        Acc[R] = add(Acc[R], LoopAcc[R], W);
      return;
    }
    for (int P = PLo; P < PHi; ++P) {
      int BSpan = load(X, Pos(P), C0, TC, /*AlongCols=*/true, W);
      for (int R = 0; R < TR; ++R) {
        int AElem = loadElem(B, *A.V, A.Trans, R0.plus(R), Pos(P));
        AElem = scaleElem(AElem, Tm.Sign, Coef);
        Acc[R] = madd(splat(AElem, W), BSpan, Acc[R], W);
      }
    }
  }

  int scaleElem(int Reg, int Sign, int Coef) {
    if (Coef >= 0)
      return B.sbin(Op::SMul, Reg, Coef); // sign already folded into Coef
    return Sign > 0 ? Reg : B.sneg(Reg);
  }

  //===--------------------------------------------------------------------===//
  // Column-vector output without products: 1-D span kernel.
  //===--------------------------------------------------------------------===//

  void emitLinearColumn() {
    int M = Lhs->rows();
    auto EmitChunk = [&](Pos R0, int Count) {
      const int W = tileWidth(Count, Nu);
      int Acc = zeroReg(W);
      for (size_t T = 0; T < Terms.size(); ++T) {
        const Term &Tm = Terms[T];
        if (termIsZero(Tm))
          continue;
        if (Tm.Mat.empty()) {
          Acc = add(Acc, splat(CoefReg[T], W), W);
          continue;
        }
        assert(Tm.Mat.size() == 1 && "product in linear kernel");
        int Span = load(Tm.Mat[0], R0, 0, Count, /*AlongCols=*/false, W);
        if (CoefReg[T] >= 0)
          Acc = madd(splat(CoefReg[T], W), Span, Acc, W);
        else if (Tm.Sign > 0)
          Acc = add(Acc, Span, W);
        else
          Acc = sub(Acc, Span, W);
      }
      store(R0, 0, Count, /*AlongCols=*/false, Acc);
    };
    int Tiles = (M + Nu - 1) / Nu;
    if (M % Nu != 0 || Tiles <= Opt.UnrollTiles) {
      for (int R0 = 0; R0 < M; R0 += Nu)
        EmitChunk(Pos(R0), std::min(Nu, M - R0));
      return;
    }
    int RV = B.beginLoop(0, M, Nu);
    EmitChunk(Pos::var(RV), Nu);
    B.endLoop();
  }

  //===--------------------------------------------------------------------===//
  // Column-vector / scalar output with products: per-row dot reductions.
  //===--------------------------------------------------------------------===//

  void emitReducedRows() {
    int M = Lhs->rows();
    if (M <= Opt.UnrollTiles * Nu) {
      emitReducedRowsUnrolled(0, M);
      return;
    }
    int RV = B.beginLoop(0, M, 1);
    emitReducedRow(Pos::var(RV), /*Constant=*/false);
    B.endLoop();
  }

  void emitReducedRowsUnrolled(int Lo, int Hi) {
    for (int R = Lo; R < Hi; ++R)
      emitReducedRow(Pos(R), /*Constant=*/true);
  }

  /// op(A)(R, PLo:PHi) . op(X)(PLo:PHi, 0). Reductions longer than UnrollK
  /// full registers run as a loop; dots of four or more elements go to
  /// vector accumulators, one per width, each chunk as wide as its live
  /// lanes; shorter dots and a single leftover element are scalar chains.
  int emitDot(const Factor &A, const Factor &X, Pos R, int PLo, int PHi) {
    int Dot = -1;
    auto AddTo = [&](int V) {
      Dot = Dot < 0 ? V : B.sbin(Op::SAdd, Dot, V);
    };
    int P = PLo;
    if (PHi - PLo > Opt.UnrollK * Nu) {
      int Acc = zeroReg(Nu);
      int Full = PLo + (PHi - PLo) / Nu * Nu;
      int PV = B.beginLoop(PLo, Full, Nu);
      int VA = load(A, R, Pos::var(PV), Nu, /*AlongCols=*/true, Nu);
      int VX = load(X, Pos::var(PV), 0, Nu, /*AlongCols=*/false, Nu);
      maddInto(Acc, VA, VX, Nu);
      B.endLoop();
      AddTo(Nu == 1 ? Acc : B.vreduceAdd(Acc));
      P = Full;
    }
    std::map<int, int> Accs; // width -> accumulator
    if (Nu > 1 && PHi - PLo >= 4) {
      for (; PHi - P >= 2;) {
        int Cnt = std::min(Nu, PHi - P), W = tileWidth(Cnt, Nu);
        int VA = load(A, R, Pos(P), Cnt, /*AlongCols=*/true, W);
        int VX = load(X, Pos(P), 0, Cnt, /*AlongCols=*/false, W);
        auto It = Accs.find(W);
        Accs[W] = It == Accs.end() ? B.vbin(Op::VMul, VA, VX)
                                   : B.vfma(VA, VX, It->second);
        P += Cnt;
      }
    }
    for (auto It = Accs.rbegin(); It != Accs.rend(); ++It)
      AddTo(B.vreduceAdd(It->second));
    for (; P < PHi; ++P) {
      int EA = loadElem(B, *A.V, A.Trans, R, Pos(P));
      int EX = loadElem(B, *X.V, X.Trans, Pos(P), 0);
      AddTo(B.sbin(Op::SMul, EA, EX));
    }
    return Dot < 0 ? B.sconst(0.0) : Dot;
  }

  void emitReducedRow(Pos R, bool Constant) {
    int Result = -1; // scalar accumulator chain
    auto Combine = [&](int Val, int Sign) {
      if (Result < 0)
        Result = Sign > 0 ? Val : B.sneg(Val);
      else
        Result = B.sbin(Sign > 0 ? Op::SAdd : Op::SSub, Result, Val);
    };
    for (size_t T = 0; T < Terms.size(); ++T) {
      const Term &Tm = Terms[T];
      if (termIsZero(Tm))
        continue;
      if (Tm.Mat.empty()) {
        Combine(CoefReg[T], 1);
        continue;
      }
      if (Tm.Mat.size() == 1) {
        int E = loadElem(B, *Tm.Mat[0].V, Tm.Mat[0].Trans, R, 0);
        if (CoefReg[T] >= 0)
          E = B.sbin(Op::SMul, E, CoefReg[T]);
        Combine(E, CoefReg[T] >= 0 ? 1 : Tm.Sign);
        continue;
      }
      const Factor &A = Tm.Mat[0], &X = Tm.Mat[1];
      int K = A.cols();
      int PLo = 0, PHi = K;
      if (Constant) {
        auto [Lo2, Hi2] =
            nonzeroPRange(A, X, K, R.Const, R.Const + 1, 0, 1);
        PLo = Lo2;
        PHi = Hi2;
      }
      int Dot = emitDot(A, X, R, PLo, PHi);
      if (CoefReg[T] >= 0)
        Dot = B.sbin(Op::SMul, Dot, CoefReg[T]);
      Combine(Dot, CoefReg[T] >= 0 ? 1 : Tm.Sign);
    }
    if (Result < 0)
      Result = B.sconst(0.0);
    storeElem(B, *Lhs, false, R, 0, Result);
  }

  //===--------------------------------------------------------------------===//
  // Scalar (nu = 1) fallback for matrix outputs.
  //===--------------------------------------------------------------------===//

  void emitScalarized() {
    int M = Lhs->rows(), N = Lhs->cols();
    for (int R = 0; R < M; ++R)
      for (int C = 0; C < N; ++C) {
        if (symOutUpper() && R > C)
          continue;
        if (symOutLower() && C > R)
          continue;
        int Result = -1;
        auto Combine = [&](int Val, int Sign) {
          if (Result < 0)
            Result = Sign > 0 ? Val : B.sneg(Val);
          else
            Result = B.sbin(Sign > 0 ? Op::SAdd : Op::SSub, Result, Val);
        };
        for (size_t T = 0; T < Terms.size(); ++T) {
          const Term &Tm = Terms[T];
          if (termIsZero(Tm))
            continue;
          if (Tm.Mat.empty()) {
            Combine(CoefReg[T], 1);
            continue;
          }
          int Val;
          if (Tm.Mat.size() == 1) {
            Val = loadElem(B, *Tm.Mat[0].V, Tm.Mat[0].Trans, R, C);
          } else {
            const Factor &A = Tm.Mat[0], &X = Tm.Mat[1];
            auto [PLo, PHi] = nonzeroPRange(A, X, A.cols(), R, R + 1, C,
                                            C + 1);
            int Acc = B.sconst(0.0);
            for (int P = PLo; P < PHi; ++P) {
              int EA = loadElem(B, *A.V, A.Trans, R, P);
              int EX = loadElem(B, *X.V, X.Trans, P, C);
              Acc = B.sbin(Op::SAdd, Acc, B.sbin(Op::SMul, EA, EX));
            }
            Val = Acc;
          }
          if (CoefReg[T] >= 0)
            Val = B.sbin(Op::SMul, Val, CoefReg[T]);
          Combine(Val, CoefReg[T] >= 0 ? 1 : Tm.Sign);
        }
        if (Result < 0)
          Result = B.sconst(0.0);
        storeElem(B, *Lhs, false, R, C, Result);
      }
  }
};

} // namespace

static bool allViewsScalar(const ExprPtr &E) {
  if (const auto *V = dyn_cast<ViewExpr>(E))
    return V->rows() == 1 && V->cols() == 1;
  if (isa<ConstExpr>(E))
    return true;
  if (const auto *U = dyn_cast<UnaryExpr>(E))
    return allViewsScalar(U->Sub);
  const auto *B = cast<BinaryExpr>(E.get());
  return allViewsScalar(B->L) && allViewsScalar(B->R);
}

void lgen::compileSBlac(FuncBuilder &B, const EqStmt &S,
                        const TileOptions &Opt) {
  const auto *L = cast<ViewExpr>(S.Lhs.get());
  if (L->rows() == 1 && L->cols() == 1 && allViewsScalar(S.Rhs)) {
    // Pure scalar statements take the direct path (they may contain
    // division and sqrt, which the tiler rejects).
    compileScalarStmt(B, S);
    return;
  }
  SBlacTiler T(B, S, Opt);
  T.run();
}

void lgen::emitStructureNormalize(cir::FuncBuilder &B, const ViewExpr &V,
                                  const TileOptions &Opt) {
  StructureKind S = V.structure();
  int N = V.rows();
  if (N != V.cols())
    return;
  auto MirrorOrZero = [&](bool Mirror, bool UpperStored) {
    // Iterate the non-stored triangle as (outer, inner) with an affine
    // inner lower bound so both loops have constant upper bounds.
    if (N <= Opt.UnrollTiles) {
      for (int R = 0; R < N; ++R)
        for (int C = R + 1; C < N; ++C) {
          // (R, C) is in the upper triangle.
          Pos Dst[2] = {UpperStored ? Pos(C) : Pos(R),
                        UpperStored ? Pos(R) : Pos(C)};
          Pos Src[2] = {UpperStored ? Pos(R) : Pos(C),
                        UpperStored ? Pos(C) : Pos(R)};
          int Val = Mirror ? loadElem(B, V, false, Src[0], Src[1])
                           : B.sconst(0.0);
          storeElem(B, V, false, Dst[0], Dst[1], Val);
        }
      return;
    }
    int RV = B.beginLoop(0, N, 1);
    int CV = B.beginLoopAffine(1, RV, 1, N, 1);
    Pos RP = Pos::var(RV), CP = Pos::var(CV);
    Pos Dst[2] = {UpperStored ? CP : RP, UpperStored ? RP : CP};
    Pos Src[2] = {UpperStored ? RP : CP, UpperStored ? CP : RP};
    int Val =
        Mirror ? loadElem(B, V, false, Src[0], Src[1]) : B.sconst(0.0);
    storeElem(B, V, false, Dst[0], Dst[1], Val);
    B.endLoop();
    B.endLoop();
  };
  switch (S) {
  case StructureKind::SymmetricUpper:
    MirrorOrZero(/*Mirror=*/true, /*UpperStored=*/true);
    break;
  case StructureKind::SymmetricLower:
    MirrorOrZero(/*Mirror=*/true, /*UpperStored=*/false);
    break;
  case StructureKind::UpperTriangular:
    MirrorOrZero(/*Mirror=*/false, /*UpperStored=*/true);
    break;
  case StructureKind::LowerTriangular:
    MirrorOrZero(/*Mirror=*/false, /*UpperStored=*/false);
    break;
  default:
    break;
  }
}
