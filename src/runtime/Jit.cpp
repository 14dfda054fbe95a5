//===- runtime/Jit.cpp ----------------------------------------------------==//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Jit.h"

#include "isa/ISA.h"
#include "obs/Trace.h"
#include "support/File.h"
#include "support/Format.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <system_error>
#include <thread>
#include <vector>

#include <dlfcn.h>
#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace slingen;
using namespace slingen::runtime;

namespace {

std::string tmpDir() {
  const char *Dir = getenv("TMPDIR");
  return Dir ? Dir : "/tmp";
}

std::string uniqueBase() {
  static std::atomic<int> Counter{0};
  return formatf("%s/slingen_%d_%d", tmpDir().c_str(), getpid(),
                 Counter.fetch_add(1));
}

/// A private temporary directory under TMPDIR: one compile's .c and log, or
/// a precompiled prologue. A compile's source always gets the same
/// basename inside it (slingen_tu.c): the compiler embeds the input
/// basename in the object's symbol table (STT_FILE), so a per-process name
/// would make byte-identical translation units compile to byte-different
/// shared objects. With a fixed basename, equal TU + equal flags => equal
/// .so bytes across processes and machines sharing a toolchain -- the
/// identity the client facade's local/daemon smoke diffs.
std::string makeTempDir(const char *Prefix) {
  std::string Tmpl = tmpDir() + "/" + Prefix + "XXXXXX";
  if (!mkdtemp(Tmpl.data()))
    return {};
  return Tmpl;
}

using Words = std::vector<std::string>;

/// Whitespace-separated words of \p S. The compiler (SLINGEN_CC, e.g.
/// "sh wrapper.sh") and CompileOptions::ExtraFlags are word lists, never
/// shell text: paths are passed as single arguments, spaces and all.
Words splitWords(const std::string &S) {
  Words Out;
  std::istringstream In(S);
  for (std::string W; In >> W;)
    Out.push_back(std::move(W));
  return Out;
}

Words compilerWords() {
  const char *Env = getenv("SLINGEN_CC");
  Words W = splitWords(Env ? Env : "");
  if (W.empty())
    W.push_back("cc");
  return W;
}

/// \p Argv as one line for diagnostics, words containing spaces quoted.
std::string commandText(const Words &Argv) {
  std::string S;
  for (const std::string &W : Argv) {
    if (!S.empty())
      S += ' ';
    S += W.find(' ') == std::string::npos ? W : "'" + W + "'";
  }
  return S;
}

/// Runs \p Argv (argv[0] searched on PATH) with stdout and stderr sent to
/// \p LogPath and waits for it. Returns the exit status, or -1 when the
/// process could not be started or did not exit normally.
int runProcess(const Words &Argv, const std::string &LogPath) {
  std::vector<char *> Args;
  for (const std::string &W : Argv)
    Args.push_back(const_cast<char *>(W.c_str()));
  Args.push_back(nullptr);
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_addopen(&Actions, 1, LogPath.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&Actions, 1, 2);
  pid_t Pid = -1;
  int Rc = posix_spawnp(&Pid, Args[0], &Actions, nullptr, Args.data(),
                        environ);
  posix_spawn_file_actions_destroy(&Actions);
  if (Rc != 0)
    return -1;
  int Status = 0;
  while (waitpid(Pid, &Status, 0) < 0)
    if (errno != EINTR)
      return -1;
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

/// Removes a private directory created by makeTempDir and its files.
void removeTempDir(const std::string &Dir) {
  std::error_code Ec;
  std::filesystem::remove_all(Dir, Ec);
}

/// The prologue every emitted translation unit starts with (see
/// cir::emitTranslationUnit and the batched emitters). Scalar TUs include
/// only <math.h>; the extra intrinsics declarations emit no code.
constexpr const char *PrologueText = "#include <math.h>\n"
                                     "#include <immintrin.h>\n";

/// Per-process precompiled prologues, one per compiler + flag set +
/// TMPDIR. Parsing <immintrin.h> is most of the compile time of a small
/// kernel, so the prologue is precompiled once and every compile
/// force-includes it (-include). A compiler that cannot use the .gch reads
/// the header text instead -- the same two includes the TU repeats
/// anyway -- so a stale or foreign .gch costs time, never correctness or
/// object bytes.
class PrologueRegistry {
public:
  /// Process-lifetime singleton; its files are removed at exit.
  static PrologueRegistry &global() {
    // Leaked on purpose: compiles still running on detached threads during
    // exit must never see a destroyed registry.
    static PrologueRegistry *R = [] {
      auto *P = new PrologueRegistry;
      std::atexit([] { global().removeAll(); });
      return P;
    }();
    return *R;
  }

  /// Header path to force-include for a compile with \p Cc and \p Flags,
  /// built on first use (concurrent compiles with the same key wait for
  /// that build; other keys proceed). Empty when the header could not be
  /// precompiled: the caller compiles without it.
  std::string headerFor(const Words &Cc, const Words &Flags) {
    std::string Key = tmpDir();
    for (const Words *Part : {&Cc, &Flags})
      for (const std::string &W : *Part)
        Key += '\n' + W;
    Entry *E;
    {
      std::lock_guard<std::mutex> L(Mu);
      std::unique_ptr<Entry> &Slot = Entries[Key];
      if (!Slot)
        Slot = std::make_unique<Entry>();
      E = Slot.get();
    }
    std::lock_guard<std::mutex> L(E->Mu);
    if (E->Tried && (E->Header.empty() || access((E->Header + ".gch").c_str(),
                                                 R_OK) == 0))
      return E->Header;
    // First use, or the files vanished (a TMPDIR cleaner under a
    // long-lived daemon): build.
    E->Tried = true;
    E->Header = build(Cc, Flags);
    return E->Header;
  }

private:
  struct Entry {
    std::mutex Mu; ///< held across the build
    bool Tried = false;
    std::string Header; ///< empty: compile without a precompiled prologue
  };

  std::string build(const Words &Cc, const Words &Flags) {
    static obs::Counter &Builds =
        obs::Registry::global().counter("runtime.pch-builds");
    Builds.add();
    obs::ScopedSpan Span("pch-build", "runtime");
    std::string Dir = makeTempDir("slingen_pch");
    if (Dir.empty())
      return {};
    {
      std::lock_guard<std::mutex> L(Mu);
      if (Closed) {
        removeTempDir(Dir);
        return {};
      }
      Dirs.push_back(Dir);
    }
    std::string Header = Dir + "/slingen_prologue.h";
    std::ofstream(Header) << PrologueText;
    // Exactly the flags of the compiles that will use it: a compiler
    // refuses a precompiled header built under different options.
    Words Argv = Cc;
    Argv.insert(Argv.end(), Flags.begin(), Flags.end());
    for (const char *W : {"-x", "c-header"})
      Argv.push_back(W);
    Argv.push_back(Header);
    Argv.push_back("-o");
    Argv.push_back(Header + ".gch");
    if (runProcess(Argv, Dir + "/pch.log") != 0) {
      removeTempDir(Dir);
      return {};
    }
    return Header;
  }

  void removeAll() {
    std::lock_guard<std::mutex> L(Mu);
    Closed = true;
    for (const std::string &Dir : Dirs)
      removeTempDir(Dir);
  }

  std::mutex Mu; ///< guards Entries, Dirs, Closed
  std::map<std::string, std::unique_ptr<Entry>> Entries;
  std::vector<std::string> Dirs;
  bool Closed = false;
};

/// Appends the uniform trampolines to \p Out: `<func>_entry(double **)` for
/// single-instance calls and, when requested, `<func>_batch_entry(int,
/// double **)` forwarding to the batched kernel plus
/// `<func>_batch_span_entry` forwarding to its `_batch_span` sub-range entry,
/// which every batched emission defines.
void appendTrampolines(std::ostream &Out, const std::string &FuncName,
                       int NumParams, bool WithBatchEntry) {
  Out << "\nvoid " << FuncName << "_entry(double *const *bufs) {\n  "
      << FuncName << "(";
  for (int I = 0; I < NumParams; ++I)
    Out << (I ? ", " : "") << "bufs[" << I << "]";
  Out << ");\n}\n";
  if (!WithBatchEntry)
    return;
  Out << "void " << FuncName
      << "_batch_entry(int count, double *const *bufs) {\n  " << FuncName
      << "_batch(count";
  for (int I = 0; I < NumParams; ++I)
    Out << ", bufs[" << I << "]";
  Out << ");\n}\n";
  Out << "void " << FuncName
      << "_batch_span_entry(int start, int count, double *const *bufs) {\n  "
      << FuncName << "_batch_span(start, count";
  for (int I = 0; I < NumParams; ++I)
    Out << ", bufs[" << I << "]";
  Out << ");\n}\n";
}

} // namespace

JitKernel::JitKernel(JitKernel &&O) noexcept
    : Handle(O.Handle), Entry(O.Entry), BatchEntry(O.BatchEntry),
      BatchSpanEntry(O.BatchSpanEntry), NumParams(O.NumParams),
      OwnsSo(O.OwnsSo), SoPath(std::move(O.SoPath)),
      BlockNs(O.BlockNs.load(std::memory_order_relaxed)),
      BlockSamples(O.BlockSamples.load(std::memory_order_relaxed)) {
  O.Handle = nullptr;
  O.Entry = nullptr;
  O.BatchEntry = nullptr;
  O.BatchSpanEntry = nullptr;
}

JitKernel &JitKernel::operator=(JitKernel &&O) noexcept {
  if (this != &O) {
    this->~JitKernel();
    new (this) JitKernel(std::move(O));
  }
  return *this;
}

JitKernel::~JitKernel() {
  if (Handle)
    dlclose(Handle);
  if (OwnsSo && !SoPath.empty())
    unlink(SoPath.c_str());
}

std::optional<JitKernel> JitKernel::compile(const std::string &CSource,
                                            const std::string &FuncName,
                                            int NumParams, std::string &Err,
                                            const std::string &ExtraFlags) {
  CompileOptions Opts;
  Opts.ExtraFlags = ExtraFlags;
  return compile(CSource, FuncName, NumParams, Opts, Err);
}

std::optional<JitKernel> JitKernel::compile(const std::string &CSource,
                                            const std::string &FuncName,
                                            int NumParams,
                                            const CompileOptions &Opts,
                                            std::string &Err) {
  // Every JIT compile in the process funnels through this overload:
  // service misses, tuner candidates, client-side loads all land in one
  // compile-latency histogram.
  static obs::Histogram &CompileUs =
      obs::Registry::global().histogram("runtime.jit-compile.us");
  static obs::Counter &Compiles =
      obs::Registry::global().counter("runtime.jit-compiles");
  Compiles.add();
  obs::ScopedSpan Span("jit-compile", "runtime", &CompileUs);
  std::string CDir = makeTempDir("slingen_cc");
  if (CDir.empty()) {
    Err = "cannot create compile directory in TMPDIR";
    return std::nullopt;
  }
  std::string CPath = CDir + "/slingen_tu.c", LogPath = CDir + "/cc.log";
  bool KeepSo = !Opts.KeepSoPath.empty();
  // Persistent objects are compiled to a temporary of this writer's own and
  // renamed into place, so concurrent writers sharing a cache directory
  // (other processes or other services in this one) never dlopen a
  // half-written file or publish each other's.
  std::string FinalSoPath = KeepSo ? Opts.KeepSoPath : uniqueBase() + ".so";
  std::string SoPath = KeepSo ? Opts.KeepSoPath + tempSuffix() : FinalSoPath;
  auto RemoveCompileDir = [&] { rmdir(CDir.c_str()); };

  {
    std::ofstream Out(CPath);
    if (!Out) {
      Err = "cannot write " + CPath;
      RemoveCompileDir();
      return std::nullopt;
    }
    Out << CSource;
    appendTrampolines(Out, FuncName, NumParams, Opts.WithBatchEntry);
  }

  // Process-local objects target the host (-march=native first, so per-ISA
  // flags appended afterwards can widen the target, e.g. avx512 kernels on
  // an AVX-2 build machine). Persistent objects may be served to other
  // machines from a shared cache directory, so they get only the keyed
  // ISA's instruction sets (-mtune=native schedules for the builder
  // without enabling anything the cache key does not promise). The C-IR
  // places every fused multiply-add explicitly (and the interpreter mirrors
  // it), so the compiler must not contract mul+add pairs on its own.
  const Words Cc = compilerWords();
  const Words Extra = splitWords(Opts.ExtraFlags);
  Words CodeFlags = {"-O2", KeepSo ? "-mtune=native" : "-march=native",
                     "-fno-math-errno", "-ffp-contract=off", "-fPIC"};
  CodeFlags.insert(CodeFlags.end(), Extra.begin(), Extra.end());
  std::string Prologue = PrologueRegistry::global().headerFor(Cc, CodeFlags);
  Words Argv = Cc;
  for (const char *W : {"-O2", KeepSo ? "-mtune=native" : "-march=native",
                        "-fno-math-errno", "-ffp-contract=off", "-shared",
                        "-fPIC"})
    Argv.push_back(W);
  if (!Prologue.empty()) {
    Argv.push_back("-include");
    Argv.push_back(Prologue);
  }
  for (const std::string &W : {std::string("-o"), SoPath, CPath,
                               std::string("-lm")})
    Argv.push_back(W);
  Argv.insert(Argv.end(), Extra.begin(), Extra.end());
  obs::ScopedSpan CcSpan("cc", "runtime");
  int Status = runProcess(Argv, LogPath);
  CcSpan.finish();
  if (Status != 0) {
    Err = formatf("C compiler failed (exit %d): %s", Status,
                  commandText(Argv).c_str());
    std::string Log = readFile(LogPath);
    if (!Log.empty())
      Err += "\n--- compiler output ---\n" + Log;
    // The full diagnostics are already in Err; keep the offending .c only
    // on request so a long-lived service cannot fill TMPDIR with failures.
    if (getenv("SLINGEN_KEEP_TU")) {
      Err += "\n(translation unit kept at " + CPath + ")";
    } else {
      unlink(CPath.c_str());
    }
    unlink(LogPath.c_str());
    unlink(SoPath.c_str());
    RemoveCompileDir(); // no-op while the kept TU still lives inside
    return std::nullopt;
  }
  unlink(CPath.c_str());
  unlink(LogPath.c_str());
  RemoveCompileDir();

  if (KeepSo && rename(SoPath.c_str(), FinalSoPath.c_str()) != 0) {
    Err = "cannot publish " + FinalSoPath;
    unlink(SoPath.c_str());
    return std::nullopt;
  }

  obs::ScopedSpan DlopenSpan("dlopen", "runtime");
  auto K = load(FinalSoPath, FuncName, NumParams, Err, Opts.WithBatchEntry);
  if (!K) {
    unlink(FinalSoPath.c_str());
    return std::nullopt;
  }
  K->OwnsSo = !KeepSo || Opts.Provisional;
  return K;
}

bool JitKernel::publish(const std::string &Path, std::string &Err) {
  if (rename(SoPath.c_str(), Path.c_str()) != 0) {
    Err = "cannot publish " + Path;
    return false;
  }
  SoPath = Path;
  OwnsSo = false;
  return true;
}

std::optional<JitKernel> JitKernel::loadFromBytes(const std::string &SoBytes,
                                                  const std::string &FuncName,
                                                  int NumParams,
                                                  std::string &Err,
                                                  bool WithBatchEntry) {
  std::string SoPath = uniqueBase() + ".so";
  {
    std::ofstream Out(SoPath, std::ios::binary);
    if (!Out) {
      Err = "cannot write " + SoPath;
      return std::nullopt;
    }
    Out.write(SoBytes.data(),
              static_cast<std::streamsize>(SoBytes.size()));
    Out.close();
    if (!Out) {
      Err = "cannot write " + SoPath;
      unlink(SoPath.c_str());
      return std::nullopt;
    }
  }
  auto K = load(SoPath, FuncName, NumParams, Err, WithBatchEntry);
  if (!K) {
    unlink(SoPath.c_str());
    return std::nullopt;
  }
  K->OwnsSo = true; // the staged temporary dies with the kernel
  return K;
}

std::optional<JitKernel> JitKernel::load(const std::string &SoPath,
                                         const std::string &FuncName,
                                         int NumParams, std::string &Err,
                                         bool WithBatchEntry) {
  JitKernel K;
  K.Handle = dlopen(SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!K.Handle) {
    Err = formatf("dlopen failed: %s", dlerror());
    return std::nullopt;
  }
  K.OwnsSo = false; // until a caller hands over ownership
  K.SoPath = SoPath;
  K.Entry = reinterpret_cast<EntryFn>(
      dlsym(K.Handle, (FuncName + "_entry").c_str()));
  if (!K.Entry) {
    Err = "entry symbol " + FuncName + "_entry not found in " + SoPath;
    return std::nullopt;
  }
  if (WithBatchEntry) {
    K.BatchEntry = reinterpret_cast<BatchEntryFn>(
        dlsym(K.Handle, (FuncName + "_batch_entry").c_str()));
    if (!K.BatchEntry) {
      Err = "batch entry symbol " + FuncName + "_batch_entry not found in " +
            SoPath;
      return std::nullopt;
    }
    K.BatchSpanEntry = reinterpret_cast<BatchSpanEntryFn>(
        dlsym(K.Handle, (FuncName + "_batch_span_entry").c_str()));
    if (!K.BatchSpanEntry) {
      Err = "batch span entry symbol " + FuncName +
            "_batch_span_entry not found in " + SoPath;
      return std::nullopt;
    }
  }
  K.NumParams = NumParams;
  return K;
}

int runtime::affinityCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return 1;
  return std::max(CPU_COUNT(&Set), 1);
}

void runtime::compileAll(std::vector<CompileJob> &Jobs) {
  const int N = std::min(static_cast<int>(Jobs.size()), affinityCpus());
  std::atomic<size_t> Next{0};
  auto Drain = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < Jobs.size();) {
      CompileJob &J = Jobs[I];
      try {
        J.Kernel = JitKernel::compile(J.CSource, J.FuncName, J.NumParams,
                                      J.Opts, J.Err);
      } catch (const std::exception &E) { // must not end a worker thread
        J.Err = std::string("compile failed: ") + E.what();
      }
    }
  };
  // Workers stamp the caller's trace id and collect into private
  // collectors, folded into the caller's once they are joined.
  const uint64_t TraceId = obs::currentTraceId();
  obs::SpanCollector *Collector = obs::currentCollector();
  std::vector<obs::SpanCollector> Collected(N > 1 ? N - 1 : 0);
  std::vector<std::jthread> Workers; // joined on every path out
  for (obs::SpanCollector &C : Collected) {
    try {
      Workers.emplace_back([&, TraceId, Mine = &C] {
        obs::ScopedTraceId Trace(TraceId);
        std::optional<obs::ScopedCollect> Collect;
        if (Collector)
          Collect.emplace(*Mine);
        Drain();
      });
    } catch (const std::system_error &) {
      break; // no thread to spare: the ones running (and the caller) cope
    }
  }
  Drain();
  Workers.clear();
  if (Collector)
    for (const obs::SpanCollector &C : Collected) {
      for (const obs::Span &S : C.Spans)
        Collector->add(S);
      Collector->Overflow += C.Overflow;
    }
}

std::string JitKernel::misalignedBatchMessage(int Param) {
  return formatf("batch base pointer %d is not 64-byte aligned (use "
                 "support/AlignedBuffer.h for batch storage)",
                 Param);
}

std::string runtime::isaCompileFlags(const VectorISA &Isa) {
  return Isa.CompileFlags;
}

bool runtime::haveSystemCompiler() {
  // A function-local static: initialized exactly once even when several
  // threads miss concurrently on the first compile of the process.
  static const bool Have = [] {
    Words Argv = compilerWords();
    Argv.push_back("--version");
    return runProcess(Argv, "/dev/null") == 0;
  }();
  return Have;
}
