//===- runtime/BatchPool.h - batch-level multithreading --------------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The thread pool behind threaded batched dispatch: a batch of independent
/// problem instances is split into AoSoA blocks (one vector-width group of
/// instances each) and the block indices are distributed across threads.
///
/// Scheduling is one shared cursor: every participant of a run (the
/// calling thread plus the workers it woke) claims the next `Chunk`-sized
/// range of [0, NumItems) with a fetch_add until the cursor passes the end,
/// so a late or slow thread simply claims less. The `count % Nu` instance
/// remainder always runs on the calling thread (see callBatchParallel).
///
/// Workers are spawned lazily on the first parallel run and parked on a
/// condition variable between batches, so single-threaded configurations
/// pay nothing and per-batch dispatch costs one wakeup, not thread
/// creation.
///
//===----------------------------------------------------------------------===//

#ifndef SLINGEN_RUNTIME_BATCHPOOL_H
#define SLINGEN_RUNTIME_BATCHPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>

namespace slingen {
namespace runtime {

class JitKernel;

class BatchPool {
public:
  /// Hard cap on pool workers: a threads=k request beyond this is clamped.
  /// Far above any sane core count for small-kernel batches; exists so a
  /// hostile `threads=` knob cannot spawn unbounded threads.
  static constexpr int MaxPoolWorkers = 63;

  /// The process-wide pool. Never destroyed -- workers are detached
  /// daemons parked between batches, so shutdown ordering with static
  /// destructors is a non-issue.
  static BatchPool &shared();

  /// Runs \p Fn over a partition of [0, NumItems): every call receives a
  /// disjoint [Lo, Hi) chunk claimed from the run's shared cursor, and the
  /// union of all chunks is exactly [0, NumItems). Up to \p Threads threads
  /// participate (the caller is one of them, and may claim every chunk
  /// before a worker wakes); Threads <= 1 or a single item degrades to an
  /// inline call. Workers are spawned on demand up to min(Threads - 1,
  /// MaxPoolWorkers), so the host is oversubscribed only when a caller pins
  /// more threads than it has cores (allowed: the OS time-slices, and tests
  /// use it to exercise the pool on small machines). Blocks until every
  /// item is processed and no worker still touches the run. One batch runs
  /// at a time; concurrent callers serialize.
  void run(long NumItems, int Threads,
           const std::function<void(long Lo, long Hi)> &Fn);

private:
  BatchPool() = default;

  struct Job {
    /// The next unclaimed item: each participant claims [Next, min(Next +
    /// Chunk, Total)) with a fetch_add, so disjointness is unconditional.
    std::atomic<long> Next{0};
    long Total = 0;
    long Chunk = 1;
    int Participants = 1;
    const std::function<void(long, long)> *Fn = nullptr;
    std::atomic<long> Remaining{0}; ///< items not yet processed
    std::atomic<int> Active{0};     ///< workers enrolled in this run
  };

  void workerLoop(int Id);
  /// Claims and runs chunks of \p J until its cursor passes the end.
  static void drain(Job &J);

  std::mutex RunMu; ///< serializes run() callers

  std::mutex Mu; ///< guards Current/JobSeq/Spawned
  std::condition_variable WakeCv;
  std::condition_variable DoneCv;
  Job *Current = nullptr;
  uint64_t JobSeq = 0;
  int Spawned = 0;
};

/// Dispatches `<func>_batch` over \p Count instances with up to \p Threads
/// threads: full blocks of \p BlockInstances (the kernel's vector width)
/// are distributed across the pool through the kernel's `_batch_span`
/// entry, and the instance remainder runs on the calling thread. Degrades
/// to a plain callBatch when Threads <= 1 or the batch has fewer than two
/// full blocks.
void callBatchParallel(const JitKernel &K, int Count, double *const *Buffers,
                       int BlockInstances, int Threads);

} // namespace runtime
} // namespace slingen

#endif // SLINGEN_RUNTIME_BATCHPOOL_H
