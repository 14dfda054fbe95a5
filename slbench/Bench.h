//===- slbench/Bench.h - shared pieces of the slbench benchmark -----------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every slbench workload shares: the run options, the kernel catalog
/// (the paper's HLACs and applications at a given size), seeded inputs with
/// the expr::evalProgram oracle's expected outputs, fixed-length timing
/// windows, order statistics, and the tally of attempted and failed
/// operations. Workloads talk to the system only through the public
/// functions of its layers; everything here is benchmark-side.
///
//===----------------------------------------------------------------------===//

#ifndef SLBENCH_BENCH_H
#define SLBENCH_BENCH_H

#include "slingen/client.h"

#include "expr/Program.h"
#include "net/Server.h"
#include "support/AlignedBuffer.h"
#include "support/Random.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace slbench {

using namespace slingen;

//===----------------------------------------------------------------------===//
// The kernel catalog
//===----------------------------------------------------------------------===//

/// One of the paper's computations at one size: potrf, trsyl, trlya, trtri
/// (Table 3) or kf, gpr, l1a (Fig. 13).
struct KernelSpec {
  std::string Kind;
  int N = 4;

  std::string source() const;
  std::string label() const { return Kind + std::to_string(N); }
  /// Nominal flop count, as the figure benchmarks normalize.
  double flops() const;
};

//===----------------------------------------------------------------------===//
// Run options and results
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 15.0;
  bool Trace = false;
  /// Toy sizes and one set-up, for the ctest smoke run.
  bool Smoke = false;
  /// This process's scratch directory (TMPDIR, caches, sockets), removed
  /// at exit.
  std::string WorkDir;
  /// Where the traced run writes its Chrome trace.
  std::string OutDir;

  int setupReps() const { return Smoke ? 1 : 3; }
};

/// Attempted and failed operations, shared by every thread of a run.
struct Tally {
  std::atomic<long> Attempted{0};
  std::atomic<long> Failed{0};

  /// Counts one operation; returns \p Ok. \p What is reported on failure.
  bool count(bool Ok, const std::string &What);
};

/// One named metric value; units live in the metric table (main.cpp).
using Metrics = std::map<std::string, double>;

/// How a workload requests its kernels on a miss; the layer probe replays
/// one such miss to count its compiler invocations.
enum class MissKind { Static, BatchedMeasured, BatchedPinned };

/// What a workload hands back: its end-to-end metrics, informational
/// lines, and what the traced run's layer probe replays.
struct WorkloadResult {
  Metrics EndToEnd;
  std::vector<std::string> Notes; ///< extra "name value unit" lines
  std::vector<KernelSpec> Kernels;
  MissKind Miss = MissKind::Static;
};

WorkloadResult runPaper(const Options &O, Tally &T);
WorkloadResult runCold(const Options &O, Tally &T);
WorkloadResult runBatch(const Options &O, Tally &T);
WorkloadResult runServe(const Options &O, Tally &T);

/// The traced run's per-layer metrics for the kernels of \p W.
Metrics probeLayers(const Options &O, const WorkloadResult &W, Tally &T);

//===----------------------------------------------------------------------===//
// Kernels, inputs and the oracle
//===----------------------------------------------------------------------===//

/// One problem instance: contents of every kernel parameter before the
/// call, and the oracle's contents after it.
struct Instance {
  std::vector<std::vector<double>> In;
  std::vector<std::vector<double>> Want;
};

/// A lowered LA program with the generated kernel's parameter layout
/// (root operands of the declarations, in declaration order).
class Problem {
public:
  explicit Problem(const KernelSpec &S);

  const KernelSpec &spec() const { return Spec; }
  int numParams() const { return static_cast<int>(Params.size()); }
  size_t size(int I) const;
  /// Index of the parameter named \p Name (-1 when absent).
  int param(const std::string &Name) const;
  /// True for parameters the kernel reads and overwrites: timed loops
  /// restore them before each call (Buffers::restore) so every call sees
  /// the same inputs.
  bool restored(int I) const { return Restore[I]; }

  /// Seeded, well-conditioned inputs and the expr::evalProgram outputs.
  Instance instance(Rng &R) const;

  /// Max |got - want| over the checked parameters, relative to the
  /// largest expected magnitude; \p Got[i] points at parameter i.
  double error(const Instance &I, const std::vector<const double *> &Got) const;

private:
  KernelSpec Spec;
  Program Prog;
  std::vector<const Operand *> Params;
  std::vector<bool> Check, Restore;
};

/// Relative error above which an output counts as wrong.
constexpr double Tolerance = 1e-6;

/// Parameter buffers for \p Count instances of \p P, 64-byte aligned as the
/// batch ABI requires; instance b of parameter i is at ptr()[i] + b*size(i).
class Buffers {
public:
  Buffers(const Problem &P, int Count);

  /// Copies instance \p I into slot \p Slot: every parameter when \p All,
  /// else only the ones the kernel overwrites.
  void load(const Instance &I, int Slot, bool All = true);
  /// Copies \p I's inputs that the kernel overwrites into every slot.
  void restore(const Instance &I);
  double *const *ptr() const { return Ptr.data(); }
  /// Relative error of slot \p Slot against \p I's expected outputs.
  double error(const Instance &I, int Slot) const;

private:
  const Problem *P;
  int Count;
  std::vector<AlignedBuffer> Mem;
  std::vector<double *> Ptr;
};

/// A per-(seed, label) random stream, so inputs depend only on the seed.
Rng seededRng(uint64_t Seed, const std::string &Label);

//===----------------------------------------------------------------------===//
// Requests and sessions
//===----------------------------------------------------------------------===//

/// Request for \p S named \p Name on the host's widest runnable ISA.
sl::RequestBuilder request(const KernelSpec &S, const std::string &Name);

/// Gets every request through \p Threads sessions opened on \p Address,
/// in parallel; one result per request, in order.
std::vector<sl::Result<sl::Kernel>>
fetchAll(const std::string &Address, const std::vector<sl::Request> &Reqs,
         int Threads);

/// min(4, hardware threads): the width of parallel set-up and batch rows.
int workers();

/// A private daemon in this process: a KernelService on a fresh disk tier
/// in \p Dir behind a net::Server on a Unix socket there -- what `sld`
/// runs, minus its signal handling. Exits the benchmark when it cannot
/// listen.
struct Daemon {
  explicit Daemon(const std::string &Dir);

  std::string address() const { return "unix:" + Srv.unixPath(); }

  service::KernelService Svc;
  net::Server Srv;
};

//===----------------------------------------------------------------------===//
// Timing
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// A timed operation measured in fixed-length windows: each window runs
/// Fn Iters times and records the time per call.
struct Series {
  std::function<void()> Fn;
  long Iters = 1;
  std::vector<double> NsPerCall;
  std::vector<double> CyclesPerCall;
  long Calls = 0;
  double TotalNs = 0.0;

  /// Doubles Iters until one window lasts at least \p MinWindowNs (the
  /// untimed warm-up).
  void calibrate(double MinWindowNs);
  void window();
  double p50() const;
  double p90() const;
  double callsPerSecond() const { return TotalNs > 0 ? Calls / TotalNs * 1e9 : 0; }
};

/// Windows of at least 2 ms: long enough that timer overhead and a single
/// interrupt stay small against the window.
constexpr double WindowNs = 2e6;

/// Round-robin windows over every series, in a seeded order, until
/// \p Seconds have elapsed (at least \p MinRounds rounds); interleaving
/// spreads slow drift of the machine evenly over all series.
void measureRounds(std::vector<Series *> &All, double Seconds, int MinRounds,
                   Rng &R);

//===----------------------------------------------------------------------===//
// Reference timings
//
// The shared hosts this benchmark runs on drift in speed by up to 2x over
// tens of minutes, far beyond any useful regression bound. So each
// workload also times a reference in the same run, interleaved with its
// operations, and the bounded end-to-end timings are ratios to it. The
// references are benchmark code that no change to the program touches.
//===----------------------------------------------------------------------===//

/// The compute reference: a fixed 16x16 matrix product, in windows.
Series metronome();

/// Fills \p W's end-to-end timing from absolute ones: the median operation
/// time in units of the reference's median; the absolute values are kept
/// as notes.
void reportTimes(WorkloadResult &W, double OpUsP50, double OpUsP90,
                 double OpsPerS, double RefUs);

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// Linear-interpolated percentile \p P in [0, 100].
double percentile(std::vector<double> V, double P);
double geomean(const std::vector<double> &V);
double median(std::vector<double> V);

/// Peak resident set of this process in MiB.
double peakRssMiB();

} // namespace slbench

#endif // SLBENCH_BENCH_H
