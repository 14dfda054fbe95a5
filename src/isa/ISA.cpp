//===- isa/ISA.cpp --------------------------------------------------------==//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "isa/ISA.h"

#include <cstring>

using namespace slingen;

// The avx emission uses AVX2 permutes. The avx512 emitter generates
// AVX-512F intrinsics only, and hostIsa() gates execution on avx512f
// alone: requesting DQ/VL could let kernels carry instructions the
// runnability checks never verified.
static const VectorISA Scalar{"scalar", 1, ""};
static const VectorISA Sse2{"sse2", 2, "-msse2"};
static const VectorISA Avx{"avx", 4, "-mavx -mavx2 -mfma"};
static const VectorISA Avx512{"avx512", 8, "-mavx512f -mfma"};

const VectorISA &slingen::scalarIsa() { return Scalar; }
const VectorISA &slingen::sse2Isa() { return Sse2; }
const VectorISA &slingen::avxIsa() { return Avx; }
const VectorISA &slingen::avx512Isa() { return Avx512; }

static const VectorISA &probeHostIsa() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx512f"))
    return Avx512;
  if (__builtin_cpu_supports("avx2"))
    return Avx;
  if (__builtin_cpu_supports("sse2"))
    return Sse2;
#endif
  return Scalar;
}

const VectorISA &slingen::hostIsa() {
  static const VectorISA &Host = probeHostIsa();
  return Host;
}

bool slingen::hostCanRun(const VectorISA *Isa) {
  return Isa && Isa->Nu <= hostIsa().Nu;
}

const VectorISA *slingen::isaByNameOrNull(const char *Name) {
  static const VectorISA *const All[] = {&Scalar, &Sse2, &Avx, &Avx512};
  for (const VectorISA *Isa : All)
    if (std::strcmp(Name, Isa->Name) == 0)
      return Isa;
  return nullptr;
}
