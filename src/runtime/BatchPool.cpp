//===- runtime/BatchPool.cpp ----------------------------------------------==//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/BatchPool.h"

#include "obs/Trace.h"
#include "runtime/Jit.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

using namespace slingen;
using namespace slingen::runtime;

namespace {

constexpr int MaxPoolWorkers = BatchPool::MaxPoolWorkers;

/// Pool metrics: how many parallel runs happened, how the chunks were
/// claimed (from a thread's own sticky slot vs. stolen from another slot),
/// and how long dispatch takes end to end. Chunk counters tick once per
/// claimed chunk -- cheap next to the kernel work a chunk carries.
struct PoolMetrics {
  obs::Counter &Runs = obs::Registry::global().counter("batchpool.runs");
  obs::Counter &Items = obs::Registry::global().counter("batchpool.items");
  obs::Counter &Chunks = obs::Registry::global().counter("batchpool.chunks");
  obs::Counter &Steals = obs::Registry::global().counter("batchpool.steals");
  obs::Histogram &RunUs =
      obs::Registry::global().histogram("batchpool.run.us");

  static PoolMetrics &get() {
    static PoolMetrics M;
    return M;
  }
};

std::atomic<bool> StealingEnabled{true};
std::atomic<bool> PinningEnabled{true};

/// Applies the current pinning policy to the calling pool worker: pins it
/// to a fixed core derived from its stable pool id (keeping the sticky
/// slot->thread->core map physical), or -- after a setPinning(false) --
/// releases a previously pinned worker back to the full CPU set so
/// pinned-vs-unpinned comparisons (bench `-nopin` rows) measure what they
/// claim. Sticky: one affinity syscall per policy change, not per run.
void applyPinning(int Id) {
#ifdef __linux__
  thread_local int PinnedCpu = -1;
  unsigned NCpus = std::thread::hardware_concurrency();
  if (NCpus == 0)
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (PinningEnabled.load(std::memory_order_relaxed)) {
    if (PinnedCpu >= 0)
      return;
    // Core 0 is left to the (never pinned) calling thread; workers fill
    // the remaining cores round-robin.
    int Cpu = static_cast<int>((Id + 1) % NCpus);
    CPU_SET(Cpu, &Set);
    if (pthread_setaffinity_np(pthread_self(), sizeof(Set), &Set) == 0)
      PinnedCpu = Cpu;
  } else if (PinnedCpu >= 0) {
    for (unsigned C = 0; C < NCpus; ++C)
      CPU_SET(static_cast<int>(C), &Set);
    if (pthread_setaffinity_np(pthread_self(), sizeof(Set), &Set) == 0)
      PinnedCpu = -1;
  }
#else
  (void)Id;
#endif
}

} // namespace

void BatchPool::setStealing(bool On) {
  StealingEnabled.store(On, std::memory_order_relaxed);
}

void BatchPool::setPinning(bool On) {
  PinningEnabled.store(On, std::memory_order_relaxed);
}

int runtime::defaultBatchThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return N == 0 ? 1 : static_cast<int>(std::min<unsigned>(N, MaxPoolWorkers + 1));
}

BatchPool &BatchPool::shared() {
  // Leaked deliberately: workers are detached daemons parked between
  // batches, and run() never returns with a job outstanding, so process
  // exit finds them idle on members that are never destroyed.
  static BatchPool *P = new BatchPool();
  return *P;
}

BatchPool::BatchPool() : MaxWorkers(MaxPoolWorkers) {
  const char *Pin = std::getenv("SLINGEN_POOL_PIN");
  if (Pin && std::strcmp(Pin, "0") == 0)
    PinningEnabled.store(false, std::memory_order_relaxed);
}

void BatchPool::drain(int MySlot) {
  PoolMetrics &M = PoolMetrics::get();
  Job &J = *Current; // stable for the drain duration: run() holds RunMu
  auto DrainSlot = [&](int S) {
    Job::Slot &Sl = J.Slots[S];
    for (;;) {
      long Lo = Sl.Next.fetch_add(J.Chunk, std::memory_order_relaxed);
      if (Lo >= Sl.End)
        return;
      long Hi = std::min(Lo + J.Chunk, Sl.End);
      M.Chunks.add();
      if (S != MySlot)
        M.Steals.add();
      (*J.Fn)(Lo, Hi);
      J.Remaining.fetch_sub(Hi - Lo, std::memory_order_release);
    }
  };
  // Own sticky range first; only an idle thread (range drained) rebalances
  // by scanning the other participants' slots.
  DrainSlot(MySlot);
  if (!StealingEnabled.load(std::memory_order_relaxed))
    return;
  for (int O = 1; O < J.Participants; ++O)
    DrainSlot((MySlot + O) % J.Participants);
}

void BatchPool::workerLoop(int Id) {
  std::unique_lock<std::mutex> L(Mu);
  uint64_t Seen = 0;
  for (;;) {
    WakeCv.wait(L, [&] { return Current != nullptr && JobSeq != Seen; });
    Seen = JobSeq;
    Job *J = Current;
    // Participation is by stable pool id: worker Id owns slot Id + 1 of
    // every run it joins, so repeated runs assign each block range to the
    // same thread. Workers beyond the run's thread budget sit it out.
    // Active bookkeeping happens under Mu so the caller cannot observe
    // completion while a worker is still enrolling (the job lives on the
    // caller's stack).
    if (Id + 1 >= J->Participants)
      continue;
    J->Active.fetch_add(1, std::memory_order_relaxed);
    L.unlock();
    applyPinning(Id);
    drain(/*MySlot=*/Id + 1);
    L.lock();
    J->Active.fetch_sub(1, std::memory_order_relaxed);
    DoneCv.notify_all();
  }
}

void BatchPool::run(long NumItems, int Threads,
                    const std::function<void(long, long)> &Fn) {
  if (NumItems <= 0)
    return;
  Threads = std::min(Threads, MaxWorkers + 1);
  if (Threads <= 1 || NumItems < 2) {
    Fn(0, NumItems);
    return;
  }

  std::lock_guard<std::mutex> RunL(RunMu);
  PoolMetrics &M = PoolMetrics::get();
  M.Runs.add();
  M.Items.add(NumItems);
  obs::ScopedSpan Run("pool-run", "batchpool", &M.RunUs);
  Job J;
  J.Total = NumItems;
  J.Participants = Threads;
  // Chunks several times smaller than a slot's range: late threads and
  // uneven blocks rebalance through stealing, while the per-chunk atomic
  // stays amortized.
  J.Chunk = std::max<long>(1, NumItems / (static_cast<long>(Threads) * 8));
  J.Fn = &Fn;
  J.Remaining.store(NumItems, std::memory_order_relaxed);
  // Deterministic sticky partition: slot s owns [s*N/P, (s+1)*N/P).
  for (int S = 0; S < Threads; ++S) {
    J.Slots[S].Next.store(NumItems * S / Threads,
                          std::memory_order_relaxed);
    J.Slots[S].End = NumItems * (S + 1) / Threads;
  }
  {
    std::lock_guard<std::mutex> L(Mu);
    while (Spawned < Threads - 1) {
      std::thread(&BatchPool::workerLoop, this, Spawned).detach();
      ++Spawned;
    }
    Current = &J;
    ++JobSeq;
  }
  WakeCv.notify_all();
  drain(/*MySlot=*/0); // the caller participates, not just coordinates
  {
    std::unique_lock<std::mutex> L(Mu);
    // Remaining covers slots whose worker has not even started (relevant
    // with stealing disabled); Active covers workers still inside Fn.
    DoneCv.wait(L, [&] {
      return J.Remaining.load(std::memory_order_acquire) == 0 &&
             J.Active.load(std::memory_order_relaxed) == 0;
    });
    Current = nullptr;
  }
}

void runtime::callBatchParallel(const JitKernel &K, int Count,
                                double *const *Buffers, int BlockInstances,
                                int Threads) {
  const int Block = std::max(BlockInstances, 1);
  const long Blocks = Count / Block;
  if (Threads <= 1 || Blocks < 2) {
    K.callBatch(Count, Buffers);
    return;
  }
  BatchPool::shared().run(Blocks, Threads, [&](long Lo, long Hi) {
    K.callBatchSpan(static_cast<int>(Lo) * Block,
                    static_cast<int>(Hi - Lo) * Block, Buffers);
  });
  // The count % Nu instance remainder stays on the calling thread (one
  // masked tail block inside <func>_batch under the fused strategy; no
  // full block to steal).
  const int Rem = Count - static_cast<int>(Blocks) * Block;
  if (Rem > 0)
    K.callBatchSpan(static_cast<int>(Blocks) * Block, Rem, Buffers);
}
