//===- slingen/SLinGen.cpp ------------------------------------------------==//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "slingen/SLinGen.h"

#include "cir/CEmitter.h"
#include "cir/Passes.h"
#include "expr/HlacMatch.h"
#include "lgen/Tiler.h"
#include "lgen/VectorRules.h"
#include "slingen/Normalize.h"
#include "support/Hash.h"

#include <algorithm>
#include <cassert>

using namespace slingen;

//===----------------------------------------------------------------------===//
// Stage 1.
//===----------------------------------------------------------------------===//

bool slingen::expandProgramHlacs(Program &P, int BlockSize,
                                 const std::vector<int> &Choice,
                                 flame::Database *DB) {
  std::vector<EqStmt> Out;
  std::set<const Operand *> Defined = P.initiallyDefined();
  int HlacIdx = 0;
  for (EqStmt &S : P.stmts()) {
    StmtInfo Info = classifyStmt(S, Defined);
    if (!Info.IsHlac) {
      Out.push_back(std::move(S));
      continue;
    }
    HlacMatch M = matchHlac(S, Info.Defines);
    if (!M)
      return false;
    flame::HlacInstance Inst = flame::instanceFromMatch(M);
    flame::SynthOptions Opts;
    Opts.BlockSize = BlockSize;
    Opts.Variant =
        HlacIdx < static_cast<int>(Choice.size()) ? Choice[HlacIdx] : 0;
    ++HlacIdx;
    if (!flame::expandHlac(Inst, Opts, Out, DB))
      return false;
  }
  P.stmts() = std::move(Out);
  return true;
}

//===----------------------------------------------------------------------===//
// Stages 2 and 3.
//===----------------------------------------------------------------------===//

cir::Function slingen::compileBasicProgram(Program &P, const GenOptions &O) {
  if (O.ApplyVectorRules && O.nu() > 1)
    lgen::applyVectorRules(P, 2);

  lgen::TileOptions TO;
  TO.Nu = O.nu();
  TO.UnrollTiles = O.UnrollTiles;
  TO.UnrollK = O.UnrollK;

  cir::FuncBuilder B(O.FuncName, O.nu());
  for (const EqStmt &S : P.stmts()) {
    lgen::compileSBlac(B, S, TO);
    // Structured destinations follow the full-storage convention after
    // every write: symmetric views get their stored triangle mirrored,
    // triangular views get the non-stored triangle zeroed. The dense
    // evaluator does the same, so statement semantics agree between both
    // backends.
    const auto *L = cast<ViewExpr>(S.Lhs.get());
    StructureKind LS = L->structure();
    if (L->rows() > 1 && (isSymmetric(LS) || isTriangular(LS)))
      lgen::emitStructureNormalize(B, *L, TO);
  }

  // Signature: root operands of the user-visible declarations, in
  // declaration order; temporaries become function-local arrays.
  std::vector<const Operand *> Params, Locals;
  std::vector<bool> Writable;
  for (const Operand *Op : P.operands()) {
    const Operand *Root = Op->root();
    auto &List = Root->IsTemp ? Locals : Params;
    if (std::find(List.begin(), List.end(), Root) == List.end()) {
      List.push_back(Root);
      if (!Root->IsTemp)
        Writable.push_back(false);
    }
  }
  for (const Operand *Op : P.operands())
    if (Op->isWritable()) {
      auto It = std::find(Params.begin(), Params.end(), Op->root());
      if (It != Params.end())
        Writable[It - Params.begin()] = true;
    }

  cir::Function F = B.take(Params);
  F.ParamWritable = std::move(Writable);
  F.Locals = std::move(Locals);
  optimizeStage3(F, O);
  return F;
}

void slingen::optimizeStage3(cir::Function &F, const GenOptions &O) {
  if (O.EnableUnroll)
    cir::unrollLoops(F, O.UnrollMaxTrip);
  if (O.EnableCse)
    cir::cse(F);
  if (O.EnableLoadStoreOpt) {
    cir::loadStoreOpt(F);
    if (O.EnableCse)
      cir::cse(F);
  }
  if (O.EnableDce)
    cir::dce(F);
}

//===----------------------------------------------------------------------===//
// Static cost model.
//===----------------------------------------------------------------------===//

namespace {

long instCost(const cir::Inst &I) {
  using cir::Op;
  switch (I.K) {
  case Op::SDiv:
  case Op::VDiv:
  case Op::SSqrt:
  case Op::VSqrt:
    // Sandy Bridge issues one division/square root every ~44 cycles and
    // they sit on the critical path of the factorizations.
    return 44;
  case Op::SLoad:
  case Op::SStore:
  case Op::VLoad:
  case Op::VStore:
    return 1;
  case Op::VLoadStrided:
  case Op::VStoreStrided:
  case Op::VLoadStridedMasked:
  case Op::VStoreStridedMasked:
    return 4; // gathers/scatters decompose into scalar accesses
  case Op::VShuffle:
  case Op::VExtract:
  case Op::VReduceAdd:
    return 2;
  case Op::SConst:
  case Op::VConst:
    return 0;
  default:
    return 1;
  }
}

long blockCost(const std::vector<cir::Node> &Body) {
  long Cost = 0;
  for (const cir::Node &N : Body) {
    if (const auto *I = std::get_if<cir::Inst>(&N)) {
      Cost += instCost(*I);
      continue;
    }
    const auto &L = std::get<cir::Loop>(N);
    // Affine lower bounds average to half the range.
    long Trip = (L.Hi - L.Lo + L.Step - 1) / L.Step;
    if (L.LoVar >= 0)
      Trip = std::max<long>(1, Trip / 2);
    Cost += Trip * blockCost(L.Body);
  }
  return Cost;
}

} // namespace

long slingen::staticCost(const cir::Function &F) { return blockCost(F.Body); }

//===----------------------------------------------------------------------===//
// Content fingerprints (cache keys).
//===----------------------------------------------------------------------===//

uint64_t slingen::programFingerprint(const Program &P) {
  // Program::str() prints declarations (name, shape, structure, IO, ow
  // chains) and every statement, which is exactly the content a cache key
  // must cover; temporaries get deterministic names, so the text is stable.
  Fnv1a64 H;
  H.str(P.str());
  return H.digest();
}

uint64_t slingen::optionsFingerprint(const GenOptions &O) {
  // Bumped whenever the emitted C changes for identical (program, options)
  // inputs -- e.g. new instruction lowerings or batch-driver shapes -- so
  // cached shared objects keyed on the fingerprint can never serve stale
  // code. v2: masked fused batch tails, FMA contraction, aligned locals.
  // v3: per-tile register widths, explicit scalar FMAs, no implicit
  // contraction by the C compiler. v4: divisions by reciprocals
  // (cir::reciprocalDivide), which changes the last bits of outputs.
  constexpr uint64_t EmissionVersion = 4;
  Fnv1a64 H;
  H.num(EmissionVersion);
  H.str(O.Isa->Name);
  H.num(O.BlockSize);
  H.num(O.UnrollTiles);
  H.num(O.UnrollK);
  H.num(O.UnrollMaxTrip);
  H.boolean(O.ApplyVectorRules);
  H.boolean(O.EnableUnroll);
  H.boolean(O.EnableCse);
  H.boolean(O.EnableLoadStoreOpt);
  H.boolean(O.EnableDce);
  H.str(O.FuncName);
  return H.digest();
}

uint64_t Generator::fingerprint() const {
  assert(Valid && "fingerprint() on an invalid program");
  Fnv1a64 H;
  H.num(programFingerprint(Src));
  H.num(optionsFingerprint(O));
  return H.digest();
}

//===----------------------------------------------------------------------===//
// Generator.
//===----------------------------------------------------------------------===//

Generator::Generator(Program Source, GenOptions Opts)
    : Src(std::move(Source)), O(std::move(Opts)) {
  if (!normalizeProgram(Src, Err))
    return;
  std::set<const Operand *> Defined = Src.initiallyDefined();
  for (const EqStmt &S : Src.stmts()) {
    StmtInfo Info = classifyStmt(S, Defined);
    if (!Info.IsHlac)
      continue;
    HlacMatch M = matchHlac(S, Info.Defines);
    if (!M) {
      Err = "unrecognized higher-level computation: " + S.str();
      return;
    }
    Counts.push_back(flame::countVariants(flame::instanceFromMatch(M)));
  }
  Valid = true;
}

std::optional<GenResult> Generator::generate(
    const std::vector<int> &Choice) const {
  assert(Valid && "generate() on an invalid program");
  GenResult R;
  R.Basic = Src.clone();
  R.Choice = Choice;
  if (!expandProgramHlacs(R.Basic, O.blockSize(), Choice, &DB))
    return std::nullopt;
  R.Func = compileBasicProgram(R.Basic, O);
  R.Cost = staticCost(R.Func);
  return R;
}

std::vector<GenResult> Generator::enumerate(int MaxVariants) const {
  std::vector<GenResult> Out;
  std::vector<int> Choice(Counts.size(), 0);
  for (int Produced = 0; Produced < MaxVariants; ++Produced) {
    if (auto R = generate(Choice))
      Out.push_back(std::move(*R));
    // Advance the mixed-radix counter.
    size_t I = 0;
    for (; I < Choice.size(); ++I) {
      if (++Choice[I] < Counts[I])
        break;
      Choice[I] = 0;
    }
    if (I == Choice.size())
      break;
    if (Choice.empty())
      break; // no HLACs: single variant
  }
  std::stable_sort(Out.begin(), Out.end(),
                   [](const GenResult &A, const GenResult &B) {
                     return A.Cost < B.Cost;
                   });
  return Out;
}

std::optional<GenResult> Generator::best(int MaxVariants) const {
  std::vector<GenResult> All = enumerate(MaxVariants);
  if (All.empty())
    return std::nullopt;
  return std::move(All.front());
}

std::string slingen::emitC(const GenResult &R) {
  return cir::emitTranslationUnit(R.Func);
}
