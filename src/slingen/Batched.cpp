//===- slingen/Batched.cpp - batched entry-point emission -----------------==//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The batched codegen strategies behind `<name>_batch(int count, ...)`
// (paper Sec. 5). ScalarLoop wraps the single-instance kernel in a loop
// over instances; InstanceParallelFused widens the kernel's scalar C-IR to
// one vector lane per instance (see cir/Widen.h), with lane-strided
// parameter accesses so the block kernel reads and writes the batch ABI
// directly -- no transposes, no scratch blocks. The count % Nu remainder
// runs through one runtime-masked widened block (`_fusedtail`), so odd
// counts never drop out of vector code. Every strategy also emits the
// `<name>_batch_span(int start, int count, ...)` sub-range entry the
// runtime batch thread pool dispatches blocks through.
//
//===----------------------------------------------------------------------===//

#include "slingen/SLinGen.h"

#include "cir/CEmitter.h"
#include "cir/Passes.h"
#include "cir/Verify.h"
#include "support/Format.h"

using namespace slingen;

const char *slingen::batchStrategyName(BatchStrategy S) {
  switch (S) {
  case BatchStrategy::ScalarLoop:
    return "loop";
  case BatchStrategy::InstanceParallelFused:
    return "fused";
  case BatchStrategy::Auto:
    return "auto";
  }
  return "loop";
}

std::optional<BatchStrategy>
slingen::batchStrategyByName(const std::string &Name) {
  if (Name == "loop")
    return BatchStrategy::ScalarLoop;
  if (Name == "fused")
    return BatchStrategy::InstanceParallelFused;
  if (Name == "auto")
    return BatchStrategy::Auto;
  return std::nullopt;
}

namespace {

/// `double *__restrict A` / `const double *__restrict B`, matching the
/// kernel's writability convention.
std::string batchParamDecl(const cir::Function &F, size_t I) {
  bool W = F.ParamWritable.empty() || F.ParamWritable[I];
  return std::string(W ? "" : "const ") + "double *__restrict " +
         F.Params[I]->Name;
}

/// The hoisted per-parameter instance strides `const long s_i = Rows_i*Cols_i;`.
std::string strideDecls(const cir::Function &F) {
  std::string C;
  for (size_t I = 0; I < F.Params.size(); ++I)
    C += formatf("  const long s_%zu = %ld;\n", I,
                 static_cast<long>(F.Params[I]->Rows) * F.Params[I]->Cols);
  return C;
}

/// The shared `<name>_batch` signature plus the stride constants.
std::string batchHeader(const cir::Function &F) {
  std::string C = "\nvoid " + F.Name + "_batch(int count";
  for (size_t I = 0; I < F.Params.size(); ++I)
    C += ", " + batchParamDecl(F, I);
  C += ") {\n";
  C += strideDecls(F);
  return C;
}

/// One scalar call over instance b's slices, e.g. `kern(A + b * s_0, ...)`.
std::string scalarCall(const cir::Function &F, const char *Idx) {
  std::string C = F.Name + "(";
  for (size_t I = 0; I < F.Params.size(); ++I)
    C += formatf("%s%s + %s * s_%zu", I ? ", " : "",
                 F.Params[I]->Name.c_str(), Idx, I);
  return C + ")";
}

/// `<name>_batch_span(int start, int count, ...)`: the sub-range entry the
/// batch thread pool calls -- instances [start, start+count) of the batch,
/// forwarded to `<name>_batch` at per-parameter offsets. Every strategy
/// emits it, so a shared object supports threaded dispatch regardless of
/// which emission won.
std::string batchSpan(const cir::Function &F) {
  std::string C = "void " + F.Name + "_batch_span(int start, int count";
  for (size_t I = 0; I < F.Params.size(); ++I)
    C += ", " + batchParamDecl(F, I);
  C += ") {\n";
  C += strideDecls(F);
  C += "  " + F.Name + "_batch(count";
  for (size_t I = 0; I < F.Params.size(); ++I)
    C += formatf(", %s + (long)start * s_%zu", F.Params[I]->Name.c_str(), I);
  C += ");\n}\n";
  return C;
}

} // namespace

std::string slingen::emitBatchedC(const GenResult &R) {
  const cir::Function &F = R.Func;
  std::string C = cir::emitTranslationUnit(F);
  C += batchHeader(F);
  C += "  for (int b = 0; b < count; ++b)\n    " + scalarCall(F, "b") +
       ";\n}\n";
  C += batchSpan(F);
  return C;
}

std::optional<ScalarRecompile>
slingen::recompileScalar(const GenResult &R, const GenOptions *Opts) {
  ScalarRecompile S;
  S.Basic = R.Basic.clone();
  GenOptions O;
  if (Opts)
    O = *Opts;
  O.Isa = &scalarIsa();
  O.FuncName = R.Func.Name;
  S.Func = compileBasicProgram(S.Basic, O);
  // The widened kernel is called positionally from the batch driver, so the
  // scalar signature must line up with R.Func's.
  if (S.Func.Params.size() != R.Func.Params.size())
    return std::nullopt;
  for (size_t I = 0; I < S.Func.Params.size(); ++I)
    if (S.Func.Params[I]->Name != R.Func.Params[I]->Name)
      return std::nullopt;
  return S;
}

std::optional<InstanceParallelFuncs>
slingen::deriveInstanceParallelFuncs(const GenResult &R,
                                     const ScalarRecompile &Pre) {
  const int Nu = R.Func.Nu;
  if (Nu < 2)
    return std::nullopt; // scalar target: no lanes to parallelize across
  const std::string &Name = R.Func.Name;
  std::optional<cir::WidenedFunction> Block =
      cir::widenAcrossInstancesFused(Pre.Func, Nu, Name + "_fusedblk");
  std::optional<cir::WidenedFunction> Tail =
      cir::widenAcrossInstancesFusedMasked(Pre.Func, Nu, Name + "_fusedtail");
  if (!Block || !Tail)
    return std::nullopt;
  // Contract mul+add chains into hardware FMAs on ISAs that have them
  // (Nu >= 4: AVX/AVX-512). Applied identically to block and tail so tail
  // lanes stay bit-identical to full-block lanes; never applied inside the
  // wideners themselves, keeping the hermetic widen-vs-scalar interpreter
  // tests exact.
  if (Nu >= 4) {
    cir::contractFma(Block->Func);
    cir::contractFma(Tail->Func);
  }
  return InstanceParallelFuncs{std::move(*Block), std::move(*Tail)};
}

std::string slingen::emitBatchedVectorFusedC(const GenResult &R,
                                             const GenOptions *Opts,
                                             bool *UsedVector,
                                             const ScalarRecompile *Pre) {
  if (UsedVector)
    *UsedVector = false;
  const cir::Function &F = R.Func;
  const int Nu = F.Nu;
  if (Nu < 2)
    return emitBatchedC(R); // scalar target: no lanes to parallelize across
  std::optional<ScalarRecompile> Own;
  if (!Pre) {
    Own = recompileScalar(R, Opts);
    if (!Own)
      return emitBatchedC(R);
    Pre = &*Own;
  }
  std::optional<InstanceParallelFuncs> IP =
      deriveInstanceParallelFuncs(R, *Pre);
  if (!IP)
    return emitBatchedC(R);
  if (UsedVector)
    *UsedVector = true;
  // Last IR-producing step before C emission: check the variants exactly as
  // they will be lowered.
  cir::verifyAssert(IP->Block.Func, "batched-widen");
  cir::verifyAssert(IP->Tail.Func, "batched-widen-tail");

  std::string C;
  C += "#include <math.h>\n";
  C += "#include <immintrin.h>\n\n";
  // The single-instance kernel, for plain calls.
  C += cir::emitFunctionSplit(F, /*MaxInstsPerPart=*/1 << 14);
  C += "\n";
  // The instance-parallel block kernel and its masked tail: lane l of every
  // vector register holds instance b*Nu + l. Operands are the caller's
  // batch buffers at the block base (element e of lane l at offset
  // l*s_i + e, gathered/scattered by the strided accesses).
  C += cir::emitFunctionSplit(IP->Block.Func, /*MaxInstsPerPart=*/1 << 14);
  C += "\n";
  C += cir::emitFunctionSplit(IP->Tail.Func, /*MaxInstsPerPart=*/1 << 14);
  C += "\n";

  // No scratch, no transposes: the block kernel is handed the block base
  // pointers of the caller's buffers directly. Block bases are kept in
  // running pointers bumped by the (hoisted, constant) block strides so the
  // loop body carries no per-iteration multiplies, and the count % Nu
  // remainder is one masked block call instead of a scalar loop.
  C += batchHeader(F);
  for (size_t I = 0; I < F.Params.size(); ++I) {
    bool Writable = F.ParamWritable.empty() || F.ParamWritable[I];
    C += formatf("  %sdouble *bp_%zu = %s;\n", Writable ? "" : "const ", I,
                 F.Params[I]->Name.c_str());
  }
  C += "  int b = 0;\n";
  C += formatf("  for (; b + %d <= count; b += %d) {\n", Nu, Nu);
  C += "    " + IP->Block.Func.Name + "(";
  for (size_t I = 0; I < F.Params.size(); ++I)
    C += formatf("%sbp_%zu", I ? ", " : "", I);
  C += ");\n";
  for (size_t I = 0; I < F.Params.size(); ++I)
    C += formatf("    bp_%zu += %d * s_%zu;\n", I, Nu, I);
  C += "  }\n";
  C += "  if (b < count)\n";
  C += "    " + IP->Tail.Func.Name + "(";
  for (size_t I = 0; I < F.Params.size(); ++I)
    C += formatf("%sbp_%zu", I ? ", " : "", I);
  C += formatf("%scount - b);\n", F.Params.empty() ? "" : ", ");
  C += "}\n";
  C += batchSpan(F);
  return C;
}

std::optional<cir::VerifyError>
slingen::verifyEmittedIR(const GenResult &R, const GenOptions *Opts,
                         bool Batched, BatchStrategy Strategy,
                         const ScalarRecompile *Pre) {
  if (auto E = cir::verifyFirst(R.Func))
    return E;
  if (!Batched || Strategy != BatchStrategy::InstanceParallelFused ||
      R.Func.Nu < 2)
    return std::nullopt; // the emission is the scalar loop
  std::optional<ScalarRecompile> Own;
  if (!Pre) {
    Own = recompileScalar(R, Opts);
    if (!Own)
      return std::nullopt; // ditto
    Pre = &*Own;
  }
  if (auto E = cir::verifyFirst(Pre->Func))
    return E;
  std::optional<InstanceParallelFuncs> IP =
      deriveInstanceParallelFuncs(R, *Pre);
  if (!IP)
    return std::nullopt; // ditto
  if (auto E = cir::verifyFirst(IP->Block.Func))
    return E;
  return cir::verifyFirst(IP->Tail.Func);
}
