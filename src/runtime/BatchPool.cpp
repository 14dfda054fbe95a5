//===- runtime/BatchPool.cpp ----------------------------------------------==//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/BatchPool.h"

#include "obs/Trace.h"
#include "runtime/Jit.h"

#include <algorithm>
#include <thread>

using namespace slingen;
using namespace slingen::runtime;

namespace {

/// Pool metrics: how many parallel runs happened, how many chunks they were
/// claimed in, and how long dispatch takes end to end. The chunk counter
/// ticks once per claimed chunk -- cheap next to the kernel work a chunk
/// carries.
struct PoolMetrics {
  obs::Counter &Runs = obs::Registry::global().counter("batchpool.runs");
  obs::Counter &Items = obs::Registry::global().counter("batchpool.items");
  obs::Counter &Chunks = obs::Registry::global().counter("batchpool.chunks");
  obs::Histogram &RunUs =
      obs::Registry::global().histogram("batchpool.run.us");

  static PoolMetrics &get() {
    static PoolMetrics M;
    return M;
  }
};

} // namespace

BatchPool &BatchPool::shared() {
  // Leaked deliberately: workers are detached daemons parked between
  // batches, and run() never returns with a job outstanding, so process
  // exit finds them idle on members that are never destroyed.
  static BatchPool *P = new BatchPool();
  return *P;
}

void BatchPool::drain(Job &J) {
  PoolMetrics &M = PoolMetrics::get();
  for (;;) {
    long Lo = J.Next.fetch_add(J.Chunk, std::memory_order_relaxed);
    if (Lo >= J.Total)
      return;
    long Hi = std::min(Lo + J.Chunk, J.Total);
    M.Chunks.add();
    (*J.Fn)(Lo, Hi);
    J.Remaining.fetch_sub(Hi - Lo, std::memory_order_release);
  }
}

void BatchPool::workerLoop(int Id) {
  std::unique_lock<std::mutex> L(Mu);
  uint64_t Seen = 0;
  for (;;) {
    WakeCv.wait(L, [&] { return Current != nullptr && JobSeq != Seen; });
    Seen = JobSeq;
    Job *J = Current;
    // Workers beyond the run's thread budget sit it out. Active bookkeeping
    // happens under Mu so the caller cannot observe completion while a
    // worker is still enrolling (the job lives on the caller's stack).
    if (Id + 1 >= J->Participants)
      continue;
    J->Active.fetch_add(1, std::memory_order_relaxed);
    L.unlock();
    drain(*J);
    L.lock();
    J->Active.fetch_sub(1, std::memory_order_relaxed);
    DoneCv.notify_all();
  }
}

void BatchPool::run(long NumItems, int Threads,
                    const std::function<void(long, long)> &Fn) {
  if (NumItems <= 0)
    return;
  Threads = std::min(Threads, MaxPoolWorkers + 1);
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
  // Chunks several times smaller than a thread's fair share: a late or
  // slow thread claims fewer of them, while the per-chunk atomic stays
  // amortized.
  J.Chunk = std::max<long>(1, NumItems / (static_cast<long>(Threads) * 8));
  J.Fn = &Fn;
  J.Remaining.store(NumItems, std::memory_order_relaxed);
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
  drain(J); // the caller participates, not just coordinates
  {
    std::unique_lock<std::mutex> L(Mu);
    // Remaining covers chunks other threads still run; Active covers an
    // enrolled worker that has yet to leave drain, which still touches J
    // after the last item.
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
  // full block to hand out).
  const int Rem = Count - static_cast<int>(Blocks) * Block;
  if (Rem > 0)
    K.callBatchSpan(static_cast<int>(Blocks) * Block, Rem, Buffers);
}
