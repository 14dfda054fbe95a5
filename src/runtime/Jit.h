//===- runtime/Jit.h - compile and load generated C kernels ---------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Takes the single-source C emitted by the generator, compiles it with the
/// system C compiler into a shared object, and loads the kernel for in-
/// process benchmarking -- the paper's "measure the generated function"
/// step. A uniform `double **` trampoline is appended to the translation
/// unit so kernels with any parameter count share one call interface; an
/// optional `(int count, double **)` trampoline serves the batched entry
/// point of the Sec. 5 extension.
///
/// Shared objects normally live in a temporary file that is removed when the
/// kernel unloads; the KernelService disk tier instead compiles to (and
/// reloads from) a persistent path it owns.
///
/// The compiler is `cc`, or the whitespace-separated words of SLINGEN_CC
/// (e.g. "sh wrapper.sh"); it is spawned directly with an argument vector,
/// so paths containing spaces need no quoting. The prologue every emitted
/// TU starts with (<math.h>, <immintrin.h>) is precompiled once per process
/// for each compiler, flag set and TMPDIR, in a private directory there
/// removed at exit, and force-included (-include) by every compile. When
/// the header cannot be precompiled, compiles run without it; a compiler
/// that ignores the precompiled form reads the same two includes as text.
/// Either way the object bytes are the same.
///
//===----------------------------------------------------------------------===//

#ifndef SLINGEN_RUNTIME_JIT_H
#define SLINGEN_RUNTIME_JIT_H

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace slingen {

struct VectorISA;

namespace runtime {

/// Compilation controls for JitKernel::compile.
struct CompileOptions {
  /// Appended to the compiler command line (e.g. isaCompileFlags()).
  std::string ExtraFlags;
  /// When non-empty, the shared object is produced at this path and kept on
  /// disk after the kernel unloads (the caller owns the file). When empty a
  /// unique temporary is used and removed on destruction.
  std::string KeepSoPath;
  /// Also emit and bind the `<func>_batch_entry(int, double *const *)` and
  /// `<func>_batch_span_entry(int, int, double *const *)` trampolines;
  /// requires the source to define `<func>_batch(int, ...)` and
  /// `<func>_batch_span(int, int, ...)`.
  bool WithBatchEntry = false;
  /// With KeepSoPath: the object is compiled there with the persistent
  /// flags but removed when the kernel unloads, unless publish() moved it
  /// first. Tuner candidates are compiled this way, beside the cache entry
  /// the winner becomes.
  bool Provisional = false;
};

/// A loaded kernel. Movable; unloads the shared object and (when it owns the
/// file) removes it on destruction.
class JitKernel {
public:
  JitKernel(JitKernel &&) noexcept;
  JitKernel &operator=(JitKernel &&) noexcept;
  ~JitKernel();

  /// Compiles \p CSource (which must define `void FuncName(double*, ...)`
  /// with \p NumParams pointer parameters). Returns std::nullopt and fills
  /// \p Err with the full compiler diagnostics (command, exit status, and
  /// captured stderr) on failure. \p ExtraFlags are appended to the compiler
  /// command.
  static std::optional<JitKernel> compile(const std::string &CSource,
                                          const std::string &FuncName,
                                          int NumParams, std::string &Err,
                                          const std::string &ExtraFlags = "");

  /// As above with full control over flags, output path, and the batched
  /// trampoline.
  static std::optional<JitKernel> compile(const std::string &CSource,
                                          const std::string &FuncName,
                                          int NumParams,
                                          const CompileOptions &Opts,
                                          std::string &Err);

  /// Loads a previously compiled shared object (see CompileOptions::
  /// KeepSoPath). The file stays on disk when the kernel unloads. Set
  /// \p WithBatchEntry if the object was compiled with the batched
  /// trampolines; the load then fails unless both batch entries resolve.
  static std::optional<JitKernel> load(const std::string &SoPath,
                                       const std::string &FuncName,
                                       int NumParams, std::string &Err,
                                       bool WithBatchEntry = false);

  /// Loads a shared object delivered as raw bytes (the sld wire protocol
  /// ships compiled kernels this way, so clients dlopen without a local C
  /// compiler). The bytes are staged to a private temporary file, which is
  /// removed when the kernel unloads.
  static std::optional<JitKernel> loadFromBytes(const std::string &SoBytes,
                                                const std::string &FuncName,
                                                int NumParams,
                                                std::string &Err,
                                                bool WithBatchEntry = false);

  /// Renames the loaded shared object to \p Path (same filesystem) and
  /// leaves it there when the kernel unloads: how a tuner's provisional
  /// winner becomes its cache entry's object without compiling again.
  bool publish(const std::string &Path, std::string &Err);

  /// Path of the loaded shared object (the cache-owned or temporary file
  /// this kernel was dlopen'd from); the sld server reads these bytes to
  /// ship the object to remote clients.
  const std::string &soPath() const { return SoPath; }

  /// Invokes the kernel with the given parameter buffers (size NumParams).
  void call(double *const *Buffers) const { Entry(Buffers); }

  /// True when the batched entry point was compiled in.
  bool hasBatchEntry() const { return BatchEntry != nullptr; }

  /// Invokes `<func>_batch(Count, ...)` over per-parameter instance arrays
  /// (instance b of parameter i lives at Buffers[i] + b * Rows_i * Cols_i).
  /// Batch base pointers must be 64-byte aligned (support/AlignedBuffer.h
  /// allocates conformant storage): the emitted block kernels assume
  /// cache-line-aligned bases, and debug builds assert it here at the ABI
  /// boundary.
  void callBatch(int Count, double *const *Buffers) const {
    assertBatchAlignment(Buffers);
    BatchEntry(Count, Buffers);
  }

  /// Invokes `<func>_batch_span(Start, Count, ...)`: instances
  /// [Start, Start+Count) of the batch, with Buffers still naming the full
  /// per-parameter instance arrays.
  void callBatchSpan(int Start, int Count, double *const *Buffers) const {
    assertBatchAlignment(Buffers);
    BatchSpanEntry(Start, Count, Buffers);
  }

  int numParams() const { return NumParams; }

  /// The checked form of the 64-byte base-pointer contract: index of the
  /// first batch base pointer that is not 64-byte aligned, or -1 when all
  /// conform. The service and the client facade refuse misaligned
  /// caller-supplied buffers as InvalidRequest (misalignedBatchMessage())
  /// instead of letting the aligned-move kernels fault (the debug assert
  /// below only guards in-process callers of callBatch/callBatchSpan).
  int misalignedBatchParam(double *const *Buffers) const {
    for (int I = 0; I < NumParams; ++I)
      if (reinterpret_cast<uintptr_t>(Buffers[I]) % 64 != 0)
        return I;
    return -1;
  }

  /// The refusal for misalignedBatchParam() == \p Param.
  static std::string misalignedBatchMessage(int Param);

private:
  friend void callBatchParallel(const JitKernel &K, int Count,
                                double *const *Buffers, int BlockInstances,
                                int Threads);

  /// Debug-only 64-byte alignment check on every batch base pointer
  /// (NDEBUG builds compile this away entirely).
  void assertBatchAlignment(double *const *Buffers) const {
#ifndef NDEBUG
    for (int I = 0; I < NumParams; ++I)
      assert(reinterpret_cast<uintptr_t>(Buffers[I]) % 64 == 0 &&
             "batch base pointer not 64-byte aligned (use AlignedBuffer)");
#else
    (void)Buffers;
#endif
  }

  JitKernel() = default;

  using EntryFn = void (*)(double *const *);
  using BatchEntryFn = void (*)(int, double *const *);
  using BatchSpanEntryFn = void (*)(int, int, double *const *);
  void *Handle = nullptr;
  EntryFn Entry = nullptr;
  BatchEntryFn BatchEntry = nullptr;
  BatchSpanEntryFn BatchSpanEntry = nullptr;
  int NumParams = 0;
  bool OwnsSo = true;
  std::string SoPath;
  /// callBatchParallel's calibration (runtime/BatchPool.h), kept on the
  /// object so that every holder of it -- the artifact, each client handle,
  /// dispatchBatch -- shares one measurement: the least per-block time, in
  /// ns, of the timed `_batch_span` calls (UINT32_MAX before the first),
  /// and how many were timed. Relaxed: a stale read can move a batch
  /// between the caller and the pool, never change its result.
  mutable std::atomic<uint32_t> BlockNs{UINT32_MAX};
  mutable std::atomic<int> BlockSamples{0};
};

/// One JitKernel::compile call of a batch (see compileAll): its arguments,
/// then its outcome.
struct CompileJob {
  std::string CSource;
  std::string FuncName;
  int NumParams = 0;
  CompileOptions Opts;
  std::optional<JitKernel> Kernel{}; ///< set on success
  std::string Err{};                 ///< compiler diagnostics on failure
};

/// CPUs this process may run on (its sched_getaffinity mask), at least 1.
int affinityCpus();

/// Runs JitKernel::compile for every job, `make -j` style: at most
/// affinityCpus() compiles at once, one of them on the calling thread,
/// which returns when all are done. With one CPU in the mask the jobs run
/// serially, in order, on the caller. Spans finished on worker threads
/// carry the caller's trace id and join its span collector.
void compileAll(std::vector<CompileJob> &Jobs);

/// Compiler flags enabling the instruction set the emitted C for \p Isa
/// uses (its VectorISA::CompileFlags). Targeting is independent of the
/// host: an avx512 kernel generated on a non-AVX-512 machine still compiles
/// (it just cannot run here).
std::string isaCompileFlags(const VectorISA &Isa);

/// True if a working system C compiler is available (used to skip the JIT
/// integration tests in constrained environments). Probed once per
/// process, thread-safely.
bool haveSystemCompiler();

} // namespace runtime
} // namespace slingen

#endif // SLINGEN_RUNTIME_JIT_H
