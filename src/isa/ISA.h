//===- isa/ISA.h - vector ISA descriptors ----------------------------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Descriptors of the vector ISAs the generator can target. The paper's
/// experiments use double-precision AVX (nu = 4); we additionally support
/// SSE2 (nu = 2), AVX-512 (nu = 8), and a scalar target (nu = 1), selected
/// per-generation, with runtime detection for executing generated code on
/// the host.
///
//===----------------------------------------------------------------------===//

#ifndef SLINGEN_ISA_ISA_H
#define SLINGEN_ISA_ISA_H

namespace slingen {

struct VectorISA {
  const char *Name;
  int Nu; ///< doubles per vector register
  /// Compiler flags enabling the instructions the emitted C for this ISA
  /// uses (runtime::isaCompileFlags).
  const char *CompileFlags;
};

const VectorISA &scalarIsa();
const VectorISA &sse2Isa();
const VectorISA &avxIsa();
const VectorISA &avx512Isa();

/// Best ISA supported by the host CPU (for running generated code here).
/// Probed once per process.
const VectorISA &hostIsa();

/// True when \p Isa is known (non-null) and no wider than hostIsa(): code
/// generated for it can execute here.
bool hostCanRun(const VectorISA *Isa);

/// ISA by name ("scalar", "sse2", "avx", "avx512"); nullptr for a name
/// this build does not know. Names arrive as untrusted input (command-line
/// flags, wire messages, disk metadata), so every decoder goes through it.
const VectorISA *isaByNameOrNull(const char *Name);

} // namespace slingen

#endif // SLINGEN_ISA_ISA_H
