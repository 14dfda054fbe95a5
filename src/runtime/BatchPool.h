//===- runtime/BatchPool.h - batch-level multithreading --------------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The thread pool behind threaded batched dispatch: a batch of independent
/// problem instances is split into AoSoA blocks (one vector-width group of
/// instances each) and the block indices are distributed across cores.
///
/// Scheduling is *sticky*: participant s of a run owns the contiguous block
/// range [s*Total/P, (s+1)*Total/P) -- slot 0 is the calling thread, slot
/// s > 0 is pool worker s-1 -- and worker identities are stable across
/// runs, so repeated dispatch of the same batch lands each block on the
/// thread (and core, see pinning below) whose caches already hold it.
/// Work stealing kicks in only on imbalance: a thread that drains its own
/// range scans the other slots and claims their remaining chunks through
/// the same per-slot atomic cursor, so an uneven machine still never idles
/// a core. The `count % Nu` instance remainder always runs on the calling
/// thread (see callBatchParallel).
///
/// Workers pin themselves to core (worker + 1) % ncpus on first dispatch
/// (Linux; sticky, one syscall per worker), keeping the slot->thread->core
/// map stable so NUMA-local pages stay local. The caller is never pinned.
/// `SLINGEN_POOL_PIN=0` or BatchPool::setPinning(false) disables pinning;
/// BatchPool::setStealing(false) disables stealing (tests and benchmarks
/// use it to observe the pure sticky assignment).
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
#include <thread>
#include <vector>

namespace slingen {
namespace runtime {

class JitKernel;

class BatchPool {
public:
  /// Hard cap on pool workers: a threads=k request beyond this is clamped.
  /// Far above any sane core count for small-kernel batches; exists so a
  /// hostile `threads=` knob cannot spawn unbounded threads.
  static constexpr int MaxPoolWorkers = 63;

  /// The process-wide pool (sized to the hardware). Never destroyed --
  /// workers are detached daemons parked between batches, so shutdown
  /// ordering with static destructors is a non-issue.
  static BatchPool &shared();

  /// Runs \p Fn over a partition of [0, NumItems): every call receives a
  /// disjoint [Lo, Hi) chunk, and the union of all chunks is exactly
  /// [0, NumItems). Up to \p Threads threads participate (the caller is
  /// one of them); Threads <= 1, a single item, or a pool with no workers
  /// degrades to an inline call. Blocks until every item is processed.
  /// One batch runs at a time; concurrent callers serialize.
  void run(long NumItems, int Threads,
           const std::function<void(long Lo, long Hi)> &Fn);

  /// Hard cap on workers the pool will add to a run. Workers are spawned
  /// on demand up to min(Threads - 1, this), so a host is never
  /// oversubscribed unless a caller explicitly pins threads beyond its
  /// core count (allowed: the OS time-slices, and tests use it to exercise
  /// the pool on small machines).
  int workerCap() const { return MaxWorkers; }

  /// Toggles cross-slot work stealing (default on). With stealing off,
  /// every item runs on the thread its slot is assigned to -- the pure
  /// sticky schedule; a straggler then gates the run, so this is a test
  /// and measurement hook, not a production mode.
  static void setStealing(bool On);

  /// Toggles worker core pinning (default on unless SLINGEN_POOL_PIN=0 in
  /// the environment). Takes effect for workers not yet pinned; already
  /// pinned workers keep their affinity.
  static void setPinning(bool On);

private:
  BatchPool();

  void workerLoop(int Id);
  /// Drains the per-slot cursor \p MySlot, then (if stealing is enabled)
  /// scans the other participants' slots for leftover chunks.
  void drain(int MySlot);

  struct Job {
    /// One claim cursor per participant, cache-line padded: the owner and
    /// any thieves claim [Next, min(Next+Chunk, End)) ranges with a
    /// fetch_add, so disjointness is unconditional.
    struct alignas(64) Slot {
      std::atomic<long> Next{0};
      long End = 0;
    };
    Slot Slots[MaxPoolWorkers + 1];
    long Total = 0;
    long Chunk = 1;
    int Participants = 1;
    const std::function<void(long, long)> *Fn = nullptr;
    std::atomic<long> Remaining{0}; ///< items not yet processed
    std::atomic<int> Active{0};     ///< workers currently inside Fn
  };

  const int MaxWorkers;
  std::mutex RunMu; ///< serializes run() callers

  std::mutex Mu; ///< guards Current/JobSeq/Spawned
  std::condition_variable WakeCv;
  std::condition_variable DoneCv;
  Job *Current = nullptr;
  uint64_t JobSeq = 0;
  int Spawned = 0;
};

/// Default thread count for threaded batched dispatch on this host
/// (hardware concurrency, at least 1).
int defaultBatchThreads();

/// Dispatches `<func>_batch` over \p Count instances with up to \p Threads
/// threads: full blocks of \p BlockInstances (the kernel's vector width)
/// are distributed across the pool through the kernel's `_batch_span`
/// entry, and the instance remainder runs on the calling thread. Degrades
/// to a plain callBatch when Threads <= 1 or the batch is too small to
/// amortize a wakeup.
void callBatchParallel(const JitKernel &K, int Count, double *const *Buffers,
                       int BlockInstances, int Threads);

} // namespace runtime
} // namespace slingen

#endif // SLINGEN_RUNTIME_BATCHPOOL_H
