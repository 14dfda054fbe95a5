//===- cir/CIR.cpp --------------------------------------------------------==//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "cir/CIR.h"

#include "support/Format.h"

#include <cassert>

using namespace slingen;
using namespace slingen::cir;

bool cir::isStore(Op O) {
  return O == Op::SStore || O == Op::VStore || O == Op::VStoreStrided ||
         O == Op::VStoreStridedMasked;
}

bool cir::hasDst(Op O) { return !isStore(O); }

bool cir::isVector(Op O) { return O >= Op::VConst; }

bool cir::isPure(Op O) {
  switch (O) {
  case Op::SStore:
  case Op::VStore:
  case Op::VStoreStrided:
  case Op::VStoreStridedMasked:
  case Op::SLoad:
  case Op::VLoad:
  case Op::VLoadStrided:
  case Op::VLoadStridedMasked:
    return false;
  default:
    return true;
  }
}

std::string Addr::str() const {
  std::string S = Buf ? Buf->Name : "<null>";
  S += formatf("[%d", Const);
  for (auto [Var, Coeff] : Terms)
    S += formatf(" + %d*i%d", Coeff, Var);
  S += "]";
  return S;
}

static const char *opName(Op K) {
  switch (K) {
  case Op::SConst:
    return "sconst";
  case Op::SLoad:
    return "sload";
  case Op::SStore:
    return "sstore";
  case Op::SAdd:
    return "sadd";
  case Op::SSub:
    return "ssub";
  case Op::SMul:
    return "smul";
  case Op::SDiv:
    return "sdiv";
  case Op::SSqrt:
    return "ssqrt";
  case Op::SNeg:
    return "sneg";
  case Op::SFma:
    return "sfma";
  case Op::SFnma:
    return "sfnma";
  case Op::VConst:
    return "vconst";
  case Op::VLoad:
    return "vload";
  case Op::VLoadStrided:
    return "vload.s";
  case Op::VLoadStridedMasked:
    return "vload.sm";
  case Op::VStore:
    return "vstore";
  case Op::VStoreStrided:
    return "vstore.s";
  case Op::VStoreStridedMasked:
    return "vstore.sm";
  case Op::VBroadcast:
    return "vbcast";
  case Op::VAdd:
    return "vadd";
  case Op::VSub:
    return "vsub";
  case Op::VMul:
    return "vmul";
  case Op::VDiv:
    return "vdiv";
  case Op::VSqrt:
    return "vsqrt";
  case Op::VNeg:
    return "vneg";
  case Op::VFma:
    return "vfma";
  case Op::VFnma:
    return "vfnma";
  case Op::VExtract:
    return "vextract";
  case Op::VReduceAdd:
    return "vredadd";
  case Op::VShuffle:
    return "vshuf";
  }
  return "?";
}

std::string Inst::str() const {
  std::string S;
  if (hasDst(K))
    S += formatf("r%d = ", Dst);
  S += opName(K);
  switch (K) {
  case Op::SConst:
  case Op::VConst:
    S += formatf(" %g", Imm);
    break;
  case Op::SLoad:
    S += " " + Address.str();
    break;
  case Op::SStore:
    S += formatf(" %s, r%d", Address.str().c_str(), A);
    break;
  case Op::VLoad:
    S += formatf(" %s, lanes=%d", Address.str().c_str(), Lanes);
    break;
  case Op::VLoadStrided:
  case Op::VLoadStridedMasked:
    S += formatf(" %s, stride=%d, lanes=%d", Address.str().c_str(), Stride,
                 Lanes);
    break;
  case Op::VStore:
    S += formatf(" %s, r%d, lanes=%d", Address.str().c_str(), A, Lanes);
    break;
  case Op::VStoreStrided:
  case Op::VStoreStridedMasked:
    S += formatf(" %s, r%d, stride=%d, lanes=%d", Address.str().c_str(), A,
                 Stride, Lanes);
    break;
  case Op::VExtract:
    S += formatf(" r%d, lane=%d", A, Lanes);
    break;
  case Op::VShuffle: {
    S += formatf(" r%d, r%d, [", A, B);
    for (size_t I = 0; I < Sel.size(); ++I)
      S += formatf("%s%d", I ? " " : "", Sel[I]);
    S += "]";
    break;
  }
  case Op::SFma:
  case Op::SFnma:
  case Op::VFma:
  case Op::VFnma:
    S += formatf(" r%d, r%d, r%d", A, B, C);
    break;
  default:
    if (A >= 0)
      S += formatf(" r%d", A);
    if (B >= 0)
      S += formatf(", r%d", B);
    break;
  }
  return S;
}

static void printBlock(const std::vector<Node> &Body, CodeSink &Sink) {
  for (const Node &N : Body) {
    if (const auto *I = std::get_if<Inst>(&N)) {
      Sink.line(I->str());
      continue;
    }
    const Loop &L = std::get<Loop>(N);
    if (L.LoVar >= 0)
      Sink.line(formatf("for i%d = %d+%d*i%d:%d:%d {", L.Var, L.Lo,
                        L.LoVarCoeff, L.LoVar, L.Hi, L.Step));
    else
      Sink.line(formatf("for i%d = %d:%d:%d {", L.Var, L.Lo, L.Hi, L.Step));
    Sink.indent();
    printBlock(L.Body, Sink);
    Sink.dedent();
    Sink.line("}");
  }
}

std::string Function::str() const {
  CodeSink Sink;
  std::string Header = formatf("func %s(nu=%d; ", Name.c_str(), Nu);
  for (size_t I = 0; I < Params.size(); ++I)
    Header += (I ? ", " : "") + Params[I]->Name;
  Header += ") {";
  Sink.line(Header);
  Sink.indent();
  printBlock(Body, Sink);
  Sink.dedent();
  Sink.line("}");
  return Sink.str();
}

FuncBuilder::FuncBuilder(std::string Name, int Nu) {
  F.Name = std::move(Name);
  F.Nu = Nu;
  BlockStack.push_back(&F.Body);
}

int FuncBuilder::newSReg() {
  F.RegWidth.push_back(1);
  return F.NumRegs++;
}

int FuncBuilder::newVReg(int Width) {
  F.RegWidth.push_back(Width ? Width : F.Nu);
  return F.NumRegs++;
}

int FuncBuilder::emit(Inst I) {
  int Dst = I.Dst;
  cur().push_back(std::move(I));
  return Dst;
}

int FuncBuilder::beginLoop(int Lo, int Hi, int Step) {
  return beginLoopAffine(Lo, -1, 0, Hi, Step);
}

int FuncBuilder::beginLoopAffine(int Lo, int LoVar, int LoVarCoeff, int Hi,
                                 int Step) {
  Loop L;
  L.Var = F.NumVars++;
  L.Lo = Lo;
  L.Hi = Hi;
  L.Step = Step;
  L.LoVar = LoVar;
  L.LoVarCoeff = LoVarCoeff;
  cur().push_back(std::move(L));
  Loop &Placed = std::get<Loop>(cur().back());
  BlockStack.push_back(&Placed.Body);
  return Placed.Var;
}

void FuncBuilder::endLoop() {
  assert(BlockStack.size() > 1 && "endLoop without beginLoop");
  BlockStack.pop_back();
}

Addr FuncBuilder::addr(const Operand *Op, int Const,
                       std::vector<std::pair<int, int>> Terms) const {
  Addr A;
  A.Buf = Op->root();
  A.Const = Const;
  A.Terms = std::move(Terms);
  return A;
}

int FuncBuilder::sconst(double V) {
  Inst I;
    I.K = Op::SConst;
  I.Dst = newSReg();
  I.Imm = V;
  return emit(std::move(I));
}

int FuncBuilder::sload(Addr A) {
  Inst I;
    I.K = Op::SLoad;
  I.Dst = newSReg();
  I.Address = std::move(A);
  return emit(std::move(I));
}

void FuncBuilder::sstore(Addr A, int Val) {
  Inst I;
    I.K = Op::SStore;
  I.Address = std::move(A);
  I.A = Val;
  emit(std::move(I));
}

int FuncBuilder::sbin(Op K, int A, int B) {
  Inst I;
  I.K = K;
  I.Dst = newSReg();
  I.A = A;
  I.B = B;
  return emit(std::move(I));
}

int FuncBuilder::ssqrt(int A) {
  Inst I;
    I.K = Op::SSqrt;
  I.Dst = newSReg();
  I.A = A;
  return emit(std::move(I));
}

int FuncBuilder::sneg(int A) {
  Inst I;
    I.K = Op::SNeg;
  I.Dst = newSReg();
  I.A = A;
  return emit(std::move(I));
}

int FuncBuilder::vconst(double V, int Width) {
  Inst I;
  I.K = Op::VConst;
  I.Dst = newVReg(Width);
  I.Imm = V;
  return emit(std::move(I));
}

int FuncBuilder::vload(Addr A, int Lanes, int Width) {
  Inst I;
  I.K = Op::VLoad;
  I.Dst = newVReg(Width);
  I.Address = std::move(A);
  I.Lanes = Lanes;
  return emit(std::move(I));
}

int FuncBuilder::vloadStrided(Addr A, int Stride, int Lanes, int Width) {
  Inst I;
  I.K = Op::VLoadStrided;
  I.Dst = newVReg(Width);
  I.Address = std::move(A);
  I.Stride = Stride;
  I.Lanes = Lanes;
  return emit(std::move(I));
}

int FuncBuilder::vloadStridedMasked(Addr A, int Stride, int Lanes) {
  Inst I;
  I.K = Op::VLoadStridedMasked;
  I.Dst = newVReg();
  I.Address = std::move(A);
  I.Stride = Stride;
  I.Lanes = Lanes;
  return emit(std::move(I));
}

void FuncBuilder::vstore(Addr A, int Val, int Lanes) {
  Inst I;
    I.K = Op::VStore;
  I.Address = std::move(A);
  I.A = Val;
  I.Lanes = Lanes;
  emit(std::move(I));
}

void FuncBuilder::vstoreStrided(Addr A, int Val, int Stride, int Lanes) {
  Inst I;
    I.K = Op::VStoreStrided;
  I.Address = std::move(A);
  I.A = Val;
  I.Stride = Stride;
  I.Lanes = Lanes;
  emit(std::move(I));
}

void FuncBuilder::vstoreStridedMasked(Addr A, int Val, int Stride,
                                      int Lanes) {
  Inst I;
  I.K = Op::VStoreStridedMasked;
  I.Address = std::move(A);
  I.A = Val;
  I.Stride = Stride;
  I.Lanes = Lanes;
  emit(std::move(I));
}

int FuncBuilder::vbroadcast(int SReg, int Width) {
  Inst I;
  I.K = Op::VBroadcast;
  I.Dst = newVReg(Width);
  I.A = SReg;
  return emit(std::move(I));
}

int FuncBuilder::vbin(Op K, int A, int B) {
  Inst I;
  I.K = K;
  I.Dst = newVReg(width(A));
  I.A = A;
  I.B = B;
  return emit(std::move(I));
}

int FuncBuilder::vfma(int A, int B, int C) {
  Inst I;
  I.K = Op::VFma;
  I.Dst = newVReg(width(A));
  I.A = A;
  I.B = B;
  I.C = C;
  return emit(std::move(I));
}

int FuncBuilder::vfnma(int A, int B, int C) {
  Inst I;
  I.K = Op::VFnma;
  I.Dst = newVReg(width(A));
  I.A = A;
  I.B = B;
  I.C = C;
  return emit(std::move(I));
}

void FuncBuilder::vfmaInto(int Dst, int A, int B, int C) {
  Inst I;
    I.K = Op::VFma;
  I.Dst = Dst;
  I.A = A;
  I.B = B;
  I.C = C;
  emit(std::move(I));
}

void FuncBuilder::vbinInto(int Dst, Op K, int A, int B) {
  Inst I;
  I.K = K;
  I.Dst = Dst;
  I.A = A;
  I.B = B;
  emit(std::move(I));
}

void FuncBuilder::sbinInto(int Dst, Op K, int A, int B) {
  Inst I;
  I.K = K;
  I.Dst = Dst;
  I.A = A;
  I.B = B;
  emit(std::move(I));
}

int FuncBuilder::vextract(int A, int Lane) {
  Inst I;
    I.K = Op::VExtract;
  I.Dst = newSReg();
  I.A = A;
  I.Lanes = Lane;
  return emit(std::move(I));
}

int FuncBuilder::vreduceAdd(int A) {
  Inst I;
    I.K = Op::VReduceAdd;
  I.Dst = newSReg();
  I.A = A;
  return emit(std::move(I));
}

int FuncBuilder::vshuffle(int A, int B, std::vector<int> Sel) {
  Inst I;
  I.K = Op::VShuffle;
  I.Dst = newVReg(static_cast<int>(Sel.size()));
  I.A = A;
  I.B = B;
  I.Sel = std::move(Sel);
  return emit(std::move(I));
}

Function FuncBuilder::take(std::vector<const Operand *> Params) {
  assert(BlockStack.size() == 1 && "unclosed loop");
  F.Params = std::move(Params);
  return std::move(F);
}
