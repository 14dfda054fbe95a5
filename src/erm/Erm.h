//===- erm/Erm.h - generalized roofline / bottleneck analysis -------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A reimplementation of the analysis the paper performs with ERM [7]
/// (Sec. 4.2, Table 4): the generated kernel's dynamic instruction mix is
/// extracted (from C-IR rather than LLVM IR) and confronted with a
/// microarchitectural port/issue model of the target CPU. Outputs per
/// kernel: the limiting resource (divisions/square roots, L1 load or store
/// bandwidth, flop throughput, shuffle issue), the shuffle/blend issue
/// rate, and the achievable peak performance once data-rearrangement
/// instructions are accounted for -- the exact columns of Table 4.
///
//===----------------------------------------------------------------------===//

#ifndef SLINGEN_ERM_ERM_H
#define SLINGEN_ERM_ERM_H

#include "cir/CIR.h"

#include <string>
#include <vector>

namespace slingen {
namespace erm {

/// Issue/throughput parameters of the modeled core. Defaults approximate
/// the paper's Sandy Bridge i7-2600: one division or square root issued
/// every ~44 cycles, two L1 load ports, one store port, one shuffle port
/// (port 5), peak 8 flops/cycle in double precision AVX.
struct MicroArch {
  std::string Name = "Sandy Bridge (i7-2600 model)";
  double DivSqrtIssueCycles = 44.0;
  double LoadsPerCycle = 2.0;
  double StoresPerCycle = 1.0;
  double PeakFlopsPerCycle = 8.0;
  double ShufflesPerCycle = 1.0;
  /// Blends issue on more ports than shuffles; model two per cycle.
  double BlendsPerCycle = 2.0;
  // Latencies (cycles) for the dependency-chain analysis.
  double DivSqrtLatency = 22.0;
  double MulLatency = 5.0;
  double AddLatency = 3.0;
  double LoadLatency = 4.0;
  double ShuffleLatency = 1.0;
};

const MicroArch &sandyBridge();

/// Dynamic instruction mix and derived bottleneck classification.
struct Analysis {
  // Dynamic counts (loops weighted by trip count).
  long Flops = 0;       ///< adds/subs/muls/FMAs in double results
  long DivSqrt = 0;     ///< divisions and square roots (issue-limited)
  long Loads = 0;       ///< L1 load instructions
  long Stores = 0;      ///< L1 store instructions
  long Shuffles = 0;    ///< lane-crossing rearrangements
  long Blends = 0;      ///< per-lane selects
  long OtherIssued = 0; ///< remaining issued ops (excl. loads/stores)

  // Per-resource cycle lower bounds.
  double DivCycles = 0.0, LoadCycles = 0.0, StoreCycles = 0.0,
         FlopCycles = 0.0, ShuffleCycles = 0.0, BlendCycles = 0.0;

  /// Name of the limiting resource ("divs/sqrt", "L1 loads", "L1 stores",
  /// "flops", "shuffles").
  std::string Bottleneck;
  /// Lower bound on execution cycles implied by the throughput model.
  double BoundCycles = 0.0;
  /// Longest register dependency chain in latency cycles (captures the
  /// sequential dependence of the divisions/square roots that dominates
  /// the smallest sizes -- paper Sec. 4.2). Memory dependences through
  /// constant addresses are included.
  double CriticalPathCycles = 0.0;

  /// Table 4 columns: issue-rate of shuffles+blends relative to all issued
  /// instructions excluding loads/stores, and the achievable f/c once the
  /// shuffle (resp. blend) port contention is accounted for.
  double ShuffleBlendIssueRate = 0.0;
  double PerfLimitShuffles = 0.0;
  double PerfLimitBlends = 0.0;
};

/// Statically analyzes \p F against \p M.
Analysis analyze(const cir::Function &F, const MicroArch &M = sandyBridge());

/// Cycle at which each register's value is ready (indexed by register id;
/// a register defined more than once reports its last definition), along
/// the latency-weighted chains that CriticalPathCycles measures. Stage 3
/// reads it to keep divisions whose divisor is ready last.
std::vector<double> readyCycles(const cir::Function &F,
                                const MicroArch &M = sandyBridge());

/// Formats one Table 4 row: "bottleneck  issue-rate  limitS  limitB".
std::string formatRow(const Analysis &A);

} // namespace erm
} // namespace slingen

#endif // SLINGEN_ERM_ERM_H
