//===- tests/service_test.cpp - KernelService subsystem tests --------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
// The serving runtime: content-addressed caching (memory LRU + disk tier),
// single-flight concurrent generation, the measured autotuner and its
// static fallback, and batched dispatch. Tests that need the C compiler or
// vector execution on the host are gated; the cache/single-flight/fallback
// logic is exercised everywhere.
//===----------------------------------------------------------------------===//

#include "expr/Evaluator.h"
#include "la/Lower.h"
#include "la/Programs.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "runtime/Timing.h"
#include "service/KernelService.h"
#include "slingen/client.h"
#include "support/AlignedBuffer.h"
#include "slingen/SLinGen.h"
#include "support/FaultInject.h"
#include "support/File.h"
#include "support/Hash.h"
#include "support/Random.h"

#include "TestData.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include <stdlib.h>

using namespace slingen;
using namespace slingen::service;
using namespace slingen::testdata;

namespace {

GenOptions hostOpts(const std::string &Name) {
  GenOptions O;
  O.Isa = &hostIsa();
  O.FuncName = Name;
  return O;
}

/// RAII temporary directory for disk-tier tests.
struct TempDir {
  TempDir() {
    char Tmpl[] = "/tmp/slingen_service_XXXXXX";
    Path = mkdtemp(Tmpl);
  }
  ~TempDir() {
    std::error_code Ec;
    std::filesystem::remove_all(Path, Ec);
  }
  std::string Path;
};

/// Canonical sharded entry path: `<dir>/ab/cdef...<ext>`.
std::string shardedPath(const std::string &Dir, const std::string &Key,
                        const char *Ext) {
  return Dir + "/" + Key.substr(0, 2) + "/" + Key.substr(2) + Ext;
}

TEST(ServiceCache, RepeatedGetHitsMemoryTier) {
  KernelService S;
  std::string Src = la::potrfSource(8);
  GenOptions O = hostOpts("potrf8");

  GetResult First = S.get(Src, O);
  ASSERT_TRUE(First) << First.Error;
  ASSERT_EQ(S.stats().Misses, 1);
  ASSERT_EQ(S.stats().Generations, 1);
  long CompilesAfterFirst = S.stats().Compilations;

  GetResult Second = S.get(Src, O);
  ASSERT_TRUE(Second);
  // The acceptance bar: a repeated get() returns the cached kernel without
  // re-invoking the generator or the C compiler.
  EXPECT_EQ(Second.Kernel.get(), First.Kernel.get());
  EXPECT_EQ(S.stats().MemHits, 1);
  EXPECT_EQ(S.stats().Generations, 1);
  EXPECT_EQ(S.stats().Compilations, CompilesAfterFirst);
  EXPECT_FALSE(First->CSource.empty());
  EXPECT_EQ(First->Key.size(), 16u);
}

TEST(ServiceCache, DistinctProgramsAndOptionsGetDistinctEntries) {
  KernelService S;
  GetResult A = S.get(la::potrfSource(8), hostOpts("k8"));
  GetResult B = S.get(la::potrfSource(12), hostOpts("k12"));
  ASSERT_TRUE(A && B);
  EXPECT_NE(A->Key, B->Key);
  EXPECT_EQ(S.cachedKernels(), 2u);
  // Same program, different ISA: also distinct.
  GenOptions Scalar;
  Scalar.Isa = &scalarIsa();
  Scalar.FuncName = "k8";
  GetResult C = S.get(la::potrfSource(8), Scalar);
  ASSERT_TRUE(C);
  EXPECT_NE(C->Key, A->Key);
  EXPECT_EQ(S.stats().Generations, 3);
}

TEST(ServiceCache, LruEvictionBoundsMemoryTier) {
  ServiceConfig C;
  C.MemCapacity = 2;
  C.UseCompiler = false; // eviction logic is compiler-independent
  KernelService S(C);
  GenOptions O;
  O.Isa = &scalarIsa();

  O.FuncName = "p6";
  ASSERT_TRUE(S.get(la::potrfSource(6), O));
  O.FuncName = "p8";
  ASSERT_TRUE(S.get(la::potrfSource(8), O));
  O.FuncName = "p10";
  ASSERT_TRUE(S.get(la::potrfSource(10), O));

  EXPECT_EQ(S.cachedKernels(), 2u);
  EXPECT_EQ(S.stats().Evictions, 1);
  EXPECT_EQ(S.stats().Generations, 3);

  // p6 was least recently used and must have been evicted: a fresh get
  // re-generates it.
  O.FuncName = "p6";
  ASSERT_TRUE(S.get(la::potrfSource(6), O));
  EXPECT_EQ(S.stats().Generations, 4);

  // p10 survived: served from memory.
  O.FuncName = "p10";
  ASSERT_TRUE(S.get(la::potrfSource(10), O));
  EXPECT_EQ(S.stats().Generations, 4);
  EXPECT_EQ(S.stats().MemHits, 1);
}

TEST(ServiceCache, DiskTierServesFreshServiceInstance) {
  TempDir Dir;
  std::string Src = la::potrfSource(8);
  GenOptions O = hostOpts("potrf_disk");

  ArtifactPtr FirstArtifact;
  {
    ServiceConfig C;
    C.CacheDir = Dir.Path;
    KernelService S1(C);
    GetResult R = S1.get(Src, O);
    ASSERT_TRUE(R) << R.Error;
    FirstArtifact = R.Kernel;
    EXPECT_EQ(S1.stats().Generations, 1);
    EXPECT_TRUE(std::filesystem::exists(shardedPath(Dir.Path, R->Key,
                                                    ".meta")));
    EXPECT_TRUE(std::filesystem::exists(shardedPath(Dir.Path, R->Key,
                                                    ".c")));
  }

  // A second service instance pointed at the same directory serves the
  // kernel without generating or compiling anything.
  ServiceConfig C2;
  C2.CacheDir = Dir.Path;
  KernelService S2(C2);
  GetResult R2 = S2.get(Src, O);
  ASSERT_TRUE(R2) << R2.Error;
  EXPECT_EQ(S2.stats().DiskHits, 1);
  EXPECT_EQ(S2.stats().Generations, 0);
  EXPECT_EQ(S2.stats().Compilations, 0);
  EXPECT_EQ(R2->Key, FirstArtifact->Key);
  EXPECT_EQ(R2->CSource, FirstArtifact->CSource);
  EXPECT_EQ(R2->Choice, FirstArtifact->Choice);
  EXPECT_EQ(R2->StaticCost, FirstArtifact->StaticCost);

  if (!runtime::haveSystemCompiler())
    return;
  // The reloaded kernel is callable and agrees with the original.
  ASSERT_TRUE(FirstArtifact->isCallable());
  ASSERT_TRUE(R2->isCallable());
  const int N = 8;
  Rng Rand(3);
  std::vector<double> A = spd(N, Rand);
  std::vector<double> X1(N * N, 0.0), X2(N * N, 0.0), ACopy = A;
  double *Bufs1[2] = {A.data(), X1.data()};
  FirstArtifact->call(Bufs1);
  double *Bufs2[2] = {ACopy.data(), X2.data()};
  R2->call(Bufs2);
  EXPECT_LT(maxAbsDiff(X1, X2), 1e-14);
  double Nonzero = 0.0;
  for (double V : X1)
    Nonzero += std::fabs(V);
  EXPECT_GT(Nonzero, 0.0);
}

TEST(ServiceCache, DiskEntryWithoutSoIsRecompiledNotRegenerated) {
  if (!runtime::haveSystemCompiler())
    GTEST_SKIP() << "no system C compiler";
  TempDir Dir;
  std::string Src = la::potrfSource(8);
  GenOptions O = hostOpts("potrf_resurrect");
  std::string Key;
  {
    ServiceConfig C;
    C.CacheDir = Dir.Path;
    KernelService S1(C);
    GetResult R = S1.get(Src, O);
    ASSERT_TRUE(R) << R.Error;
    Key = R->Key;
  }
  // Simulate a cache rsync'd without binaries (or a stale .so wiped by an
  // operator): source + meta survive, the object does not.
  std::filesystem::remove(shardedPath(Dir.Path, Key, ".so"));

  ServiceConfig C2;
  C2.CacheDir = Dir.Path;
  KernelService S2(C2);
  GetResult R2 = S2.get(Src, O);
  ASSERT_TRUE(R2) << R2.Error;
  EXPECT_EQ(S2.stats().Generations, 0); // no re-generation...
  EXPECT_EQ(S2.stats().Compilations, 1); // ...just a recompile
  EXPECT_TRUE(R2->isCallable());
  EXPECT_TRUE(std::filesystem::exists(shardedPath(Dir.Path, Key, ".so")));
}

TEST(ServiceCache, TwoServicesPublishOneKeyAtOnce) {
  if (!runtime::haveSystemCompiler())
    GTEST_SKIP() << "no system C compiler";
  // Two services in one process on one cache directory (two `local:<dir>`
  // sessions) miss the same key at once: both compile and publish the
  // entry's .so, .c and .meta. Each writer needs its own temporaries.
  TempDir Dir;
  ServiceConfig C;
  C.CacheDir = Dir.Path;
  KernelService S1(C), S2(C);
  std::vector<std::pair<std::string, GenOptions>> Keys;
  for (int Round = 0; Round < 6; ++Round) {
    GenOptions O = hostOpts("potrf_pub" + std::to_string(Round));
    std::string Src = la::potrfSource(6);
    std::atomic<int> Ready{0};
    GetResult R[2];
    std::vector<std::thread> Threads;
    for (int I = 0; I < 2; ++I)
      Threads.emplace_back([&, I] {
        Ready.fetch_add(1);
        while (Ready.load() < 2)
          std::this_thread::yield();
        R[I] = (I ? S2 : S1).get(Src, O);
      });
    for (auto &T : Threads)
      T.join();
    for (const GetResult &G : R)
      ASSERT_TRUE(G) << "round " << Round << ": " << G.Error;
    Keys.emplace_back(Src, O);
  }
  for (const auto &E : std::filesystem::recursive_directory_iterator(Dir.Path))
    EXPECT_EQ(E.path().string().find(".tmp"), std::string::npos) << E.path();

  // What the two published is intact: a fresh service disk-hits every
  // entry through its content-hash check.
  KernelService Fresh(C);
  for (const auto &[Src, O] : Keys) {
    GetResult R = Fresh.get(Src, O);
    ASSERT_TRUE(R) << R.Error;
    ASSERT_TRUE(R->isCallable());
    EXPECT_NE(readFile(shardedPath(Dir.Path, R->Key, ".meta"))
                  .find("so-hash="),
              std::string::npos);
  }
  EXPECT_EQ(Fresh.stats().DiskHits, static_cast<long>(Keys.size()));
  EXPECT_EQ(Fresh.stats().Quarantined, 0);
  EXPECT_EQ(Fresh.stats().Generations, 0);
  EXPECT_EQ(Fresh.stats().Compilations, 0);
}

// Every store writes a `c-hash` line and uses the sharded layout, so a
// .meta without the hash, or an entry at the top level of the directory,
// was not written by this cache: neither is served, and the miss rewrites
// the entry in full.
TEST(ServiceCache, UnhashedOrFlatEntriesAreRegenerated) {
  TempDir Dir;
  std::string Src = la::potrfSource(8);
  GenOptions O;
  O.Isa = &scalarIsa();
  O.FuncName = "potrf_unhashed";
  ServiceConfig C;
  C.CacheDir = Dir.Path;
  C.UseCompiler = false; // layout logic is compiler-independent
  std::string Key;
  {
    KernelService S1(C);
    GetResult R = S1.get(Src, O);
    ASSERT_TRUE(R) << R.Error;
    Key = R->Key;
  }
  const std::string Meta = shardedPath(Dir.Path, Key, ".meta");
  auto ExpectRegenerated = [&](const char *What) {
    KernelService S(C);
    GetResult R = S.get(Src, O);
    ASSERT_TRUE(R) << What << ": " << R.Error;
    EXPECT_EQ(S.stats().DiskHits, 0) << What;
    EXPECT_EQ(S.stats().Generations, 1) << What;
    EXPECT_EQ(S.stats().Quarantined, 0) << What;
    EXPECT_NE(readFile(Meta).find("c-hash="), std::string::npos) << What;
  };

  // A flat copy of an intact entry at the top level is not served.
  for (const char *Ext : {".meta", ".c"})
    std::filesystem::rename(shardedPath(Dir.Path, Key, Ext),
                            Dir.Path + "/" + Key + Ext);
  ExpectRegenerated("flat entry");

  // A sharded entry whose .meta lost its c-hash line is not served either.
  std::string Text = readFile(Meta);
  size_t At = Text.find("c-hash=");
  ASSERT_NE(At, std::string::npos);
  Text.erase(At, Text.find('\n', At) + 1 - At);
  std::ofstream(Meta) << Text;
  ExpectRegenerated("meta without c-hash");

  // The rewritten entry serves from disk.
  KernelService S3(C);
  GetResult R3 = S3.get(Src, O);
  ASSERT_TRUE(R3) << R3.Error;
  EXPECT_EQ(S3.stats().DiskHits, 1);
  EXPECT_EQ(S3.stats().Generations, 0);
  EXPECT_EQ(R3->Key, Key);
}

// Unit-level GC: fabricated entries with controlled mtimes are evicted
// oldest-first until the tier fits the budget; the protected key survives
// even under a budget smaller than one entry.
TEST(ServiceCache, DiskBudgetEvictsOldestEntriesFirst) {
  TempDir Dir;
  KernelCache Cache(4, Dir.Path);
  auto MakeEntry = [&](const std::string &Key, int AgeSeconds) {
    KernelArtifact A;
    A.Key = Key;
    A.FuncName = "f";
    A.IsaName = "avx";
    A.NumParams = 1;
    A.CSource = std::string(1024, 'x');
    std::string Err;
    ASSERT_TRUE(Cache.storeToDisk(A, Err)) << Err;
    // Pin mtimes explicitly: sub-second store times are not ordered.
    for (const char *Ext : {".c", ".meta"}) {
      std::string P = shardedPath(Dir.Path, Key, Ext);
      std::filesystem::last_write_time(
          P, std::filesystem::file_time_type::clock::now() -
                 std::chrono::seconds(AgeSeconds));
    }
  };
  MakeEntry("00aaaaaaaaaaaaaa", 300); // oldest
  MakeEntry("11bbbbbbbbbbbbbb", 200);
  MakeEntry("22cccccccccccccc", 100); // newest
  ASSERT_TRUE(Cache.onDisk("00aaaaaaaaaaaaaa"));

  // Entries are ~1 KiB of source plus a small meta: a 2.5 KiB budget keeps
  // two of them.
  size_t Evicted =
      Cache.enforceDiskBudget(2560, /*KeepKey=*/"22cccccccccccccc");
  EXPECT_EQ(Evicted, 1u);
  EXPECT_FALSE(Cache.onDisk("00aaaaaaaaaaaaaa")) << "oldest must go first";
  EXPECT_TRUE(Cache.onDisk("11bbbbbbbbbbbbbb"));
  EXPECT_TRUE(Cache.onDisk("22cccccccccccccc"));

  // A budget below a single entry still never evicts the protected key.
  Evicted = Cache.enforceDiskBudget(1, "22cccccccccccccc");
  EXPECT_EQ(Evicted, 1u);
  EXPECT_FALSE(Cache.onDisk("11bbbbbbbbbbbbbb"));
  EXPECT_TRUE(Cache.onDisk("22cccccccccccccc"));

  // Under budget: no-op.
  EXPECT_EQ(Cache.enforceDiskBudget(1 << 20, "22cccccccccccccc"), 0u);
  EXPECT_TRUE(Cache.onDisk("22cccccccccccccc"));
}

// Incremental accounting: the tier is scanned exactly once -- the first
// budget enforcement -- and every later store/evict updates the running
// byte total in place, so GC on a warm cache touches only the entry being
// stored and the files it evicts (the ROADMAP's O(evicted)-per-store
// item), while eviction order and the KeepKey guarantee are unchanged.
TEST(ServiceCache, DiskBudgetAccountingIsIncremental) {
  TempDir Dir;
  KernelCache Cache(4, Dir.Path);
  auto MakeEntry = [&](const std::string &Key) {
    KernelArtifact A;
    A.Key = Key;
    A.FuncName = "f";
    A.IsaName = "avx";
    A.NumParams = 1;
    A.CSource = std::string(1024, 'x');
    std::string Err;
    ASSERT_TRUE(Cache.storeToDisk(A, Err)) << Err;
  };

  MakeEntry("00aaaaaaaaaaaaaa");
  EXPECT_EQ(Cache.diskScans(), 0u) << "no budget enforced yet";

  // First enforcement: the one and only full scan. Budget of 1 byte, but
  // the just-stored key is protected -- nothing else exists to evict.
  EXPECT_EQ(Cache.enforceDiskBudget(1, "00aaaaaaaaaaaaaa"), 0u);
  EXPECT_EQ(Cache.diskScans(), 1u);
  EXPECT_TRUE(Cache.onDisk("00aaaaaaaaaaaaaa"));

  // Stores on the warm cache: each enforcement evicts the older entry
  // without ever rescanning the tier.
  MakeEntry("11bbbbbbbbbbbbbb");
  EXPECT_EQ(Cache.enforceDiskBudget(1, "11bbbbbbbbbbbbbb"), 1u);
  EXPECT_EQ(Cache.diskScans(), 1u) << "a store must not rescan the tier";
  EXPECT_FALSE(Cache.onDisk("00aaaaaaaaaaaaaa"));
  EXPECT_TRUE(Cache.onDisk("11bbbbbbbbbbbbbb"));

  MakeEntry("22cccccccccccccc");
  EXPECT_EQ(Cache.enforceDiskBudget(1, "22cccccccccccccc"), 1u);
  EXPECT_EQ(Cache.diskScans(), 1u);
  EXPECT_FALSE(Cache.onDisk("11bbbbbbbbbbbbbb"));
  EXPECT_TRUE(Cache.onDisk("22cccccccccccccc"));

  // Under budget: no-op, and still no rescan. A re-store of an existing
  // key replaces its accounting instead of double-counting.
  MakeEntry("22cccccccccccccc");
  EXPECT_EQ(Cache.enforceDiskBudget(1 << 20, "22cccccccccccccc"), 0u);
  EXPECT_EQ(Cache.diskScans(), 1u);
  EXPECT_TRUE(Cache.onDisk("22cccccccccccccc"));
}

// Config-level GC: a service with cache-max-bytes evicts older entries as
// new ones are stored, never the entry a store just produced, and the
// memory tier keeps serving what it already loaded.
TEST(ServiceCache, CacheMaxBytesBoundsDiskTierAcrossStores) {
  TempDir Dir;
  ServiceConfig C;
  C.CacheDir = Dir.Path;
  C.UseCompiler = false; // GC logic is compiler-independent
  C.CacheMaxBytes = 1;   // every store triggers eviction of everything else
  KernelService S(C);

  GetResult A = S.get(la::potrfSource(6), hostOpts("gc6"));
  ASSERT_TRUE(A) << A.Error;
  EXPECT_TRUE(std::filesystem::exists(
      shardedPath(Dir.Path, A->Key, ".meta")))
      << "the triggering store itself must survive GC";

  GetResult B = S.get(la::potrfSource(8), hostOpts("gc8"));
  ASSERT_TRUE(B) << B.Error;
  EXPECT_TRUE(
      std::filesystem::exists(shardedPath(Dir.Path, B->Key, ".meta")));
  EXPECT_FALSE(std::filesystem::exists(
      shardedPath(Dir.Path, A->Key, ".meta")))
      << "the older entry must have been evicted";

  // The evicted key still serves from the memory tier...
  GetResult A2 = S.get(la::potrfSource(6), hostOpts("gc6"));
  ASSERT_TRUE(A2);
  EXPECT_EQ(S.stats().MemHits, 1);
  // ...and a cold service regenerates it (the disk entry is gone).
  ServiceConfig C2;
  C2.CacheDir = Dir.Path;
  C2.UseCompiler = false;
  KernelService S2(C2);
  GetResult A3 = S2.get(la::potrfSource(6), hostOpts("gc6"));
  ASSERT_TRUE(A3);
  EXPECT_EQ(S2.stats().DiskHits, 0);
  EXPECT_EQ(S2.stats().Generations, 1);
  EXPECT_EQ(A3->Key, A->Key);
}

TEST(ServicePrefetch, WarmedKeyIsServedWithoutGenerating) {
  ServiceConfig C;
  C.UseCompiler = false;
  KernelService S(C);
  std::string Src = la::potrfSource(8);
  GenOptions O;
  O.Isa = &scalarIsa();
  O.FuncName = "potrf_warm";

  S.prefetch(Src, O);
  S.drainPrefetches();
  EXPECT_EQ(S.stats().Prefetches, 1);
  EXPECT_EQ(S.stats().Generations, 1);
  EXPECT_EQ(S.pendingPrefetches(), 0u);

  // The foreground request finds the warmed artifact in the memory tier.
  GetResult R = S.get(Src, O);
  ASSERT_TRUE(R) << R.Error;
  EXPECT_EQ(S.stats().Generations, 1);
  EXPECT_EQ(S.stats().MemHits, 1);

  // Re-warming a cached key is a cheap no-op.
  S.prefetch(Src, O);
  S.drainPrefetches();
  EXPECT_EQ(S.stats().Generations, 1);
}

TEST(ServicePrefetch, ManyWarmsAcrossWorkersAllLand) {
  ServiceConfig C;
  C.UseCompiler = false;
  C.PrefetchWorkers = 4;
  KernelService S(C);
  GenOptions O;
  O.Isa = &scalarIsa();
  const int Sizes[] = {4, 6, 8, 10, 12};
  for (int N : Sizes) {
    O.FuncName = "pw" + std::to_string(N);
    S.prefetch(la::potrfSource(N), O);
  }
  S.drainPrefetches();
  EXPECT_EQ(S.stats().Prefetches, 5);
  EXPECT_EQ(S.stats().Generations, 5);
  EXPECT_EQ(S.cachedKernels(), 5u);
}

TEST(ServiceFlight, ConcurrentMissesTriggerOneGeneration) {
  ServiceConfig C;
  C.UseCompiler = false; // keep the hammer portable and deterministic
  KernelService S(C);
  std::string Src = la::kalmanSource(8, 8); // multi-HLAC: generation is slow
  GenOptions O;
  O.Isa = &scalarIsa();
  O.FuncName = "kf_flight";

  const int NumThreads = 8;
  std::atomic<int> Ready{0};
  std::atomic<bool> Go{false};
  std::vector<ArtifactPtr> Results(NumThreads);
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      ++Ready;
      while (!Go.load())
        std::this_thread::yield();
      GetResult R = S.get(Src, O);
      Results[T] = R.Kernel;
    });
  while (Ready.load() < NumThreads)
    std::this_thread::yield();
  Go = true;
  for (auto &T : Threads)
    T.join();

  ServiceStats St = S.stats();
  EXPECT_EQ(St.Generations, 1) << "single-flight must dedup generation";
  EXPECT_EQ(St.Misses, 1);
  EXPECT_EQ(St.MemHits + St.FlightJoins, NumThreads - 1);
  for (int T = 0; T < NumThreads; ++T) {
    ASSERT_TRUE(Results[T] != nullptr);
    EXPECT_EQ(Results[T].get(), Results[0].get())
        << "all requesters share one artifact";
  }
}

TEST(ServiceTuner, FallsBackToStaticCostWithoutCompiler) {
  ServiceConfig C;
  C.Measure = true;
  C.UseCompiler = false; // same path haveSystemCompiler()==false takes
  KernelService S(C);
  std::string Src = la::potrfSource(8);
  GenOptions O = hostOpts("potrf_fb");

  GetResult R = S.get(Src, O);
  ASSERT_TRUE(R) << R.Error;
  EXPECT_FALSE(R->Measured);
  EXPECT_EQ(R->MeasuredCycles, 0.0);
  EXPECT_FALSE(R->isCallable());
  EXPECT_FALSE(R->CSource.empty());
  EXPECT_EQ(S.stats().TunerRuns, 0);
  EXPECT_EQ(S.stats().Compilations, 0);

  // The fallback ranking matches the cost-model policy of Generator::best.
  std::string Err;
  auto P = la::compileLa(Src, Err);
  ASSERT_TRUE(P) << Err;
  Generator G(std::move(*P), O);
  ASSERT_TRUE(G.isValid());
  auto Best = G.best(C.MaxVariants);
  ASSERT_TRUE(Best);
  EXPECT_EQ(R->StaticCost, Best->Cost);
  EXPECT_EQ(R->Choice, Best->Choice);
}

TEST(ServiceTuner, MeasuresAndPersistsWinningChoice) {
  if (!runtime::haveSystemCompiler())
    GTEST_SKIP() << "no system C compiler";
  if (!runtime::haveCycleCounter())
    GTEST_SKIP() << "no cycle counter on this target";
  TempDir Dir;
  ServiceConfig C;
  C.Measure = true;
  C.CacheDir = Dir.Path;
  C.MeasureRepeats = 5; // tuning only needs a stable ranking
  KernelService S(C);
  std::string Src = la::potrfSource(8); // 3 algorithmic variants
  GenOptions O = hostOpts("potrf_tuned");

  GetResult R = S.get(Src, O);
  ASSERT_TRUE(R) << R.Error;
  EXPECT_TRUE(R->Measured);
  EXPECT_GT(R->MeasuredCycles, 0.0);
  EXPECT_EQ(S.stats().TunerRuns, 1);

  // The winning choice vector and tuning provenance survive in the disk
  // tier and come back in a fresh service.
  ServiceConfig C2;
  C2.CacheDir = Dir.Path;
  KernelService S2(C2);
  GetResult R2 = S2.get(Src, O);
  ASSERT_TRUE(R2) << R2.Error;
  EXPECT_EQ(S2.stats().DiskHits, 1);
  EXPECT_EQ(S2.stats().Generations, 0);
  EXPECT_TRUE(R2->Measured);
  EXPECT_EQ(R2->Choice, R->Choice);
  EXPECT_NEAR(R2->MeasuredCycles, R->MeasuredCycles, 1e-6);
}

//===----------------------------------------------------------------------===//
// Cold-path compile accounting: every candidate is compiled once, with the
// served options, and the tuner's winner is served as compiled.
//===----------------------------------------------------------------------===//

/// Installs a SLINGEN_CC wrapper that logs the start (with the arguments)
/// and the end of each compiler invocation, for the life of the object.
/// Appends of one short line are atomic, so the log orders the events of
/// concurrent compiles as they happened.
struct CcLog {
  CcLog() {
    std::string Wrapper = Dir.Path + "/cc_log.sh";
    std::string Log = Dir.Path + "/cc.log";
    std::ofstream(Wrapper) << "printf 'start %s %s\\n' $$ \"$*\" >> " << Log
                           << "\ncc \"$@\"\nrc=$?\nprintf 'end %s\\n' $$ >> "
                           << Log << "\nexit $rc\n";
    if (const char *Old = getenv("SLINGEN_CC"))
      Saved = Old;
    setenv("SLINGEN_CC", ("sh " + Wrapper).c_str(), 1);
  }
  ~CcLog() {
    if (Saved.empty())
      unsetenv("SLINGEN_CC");
    else
      setenv("SLINGEN_CC", Saved.c_str(), 1);
  }
  /// Logged kernel compiles' arguments, in start order (precompiled-header
  /// builds are not linked with -shared, so they are not counted).
  std::vector<std::string> compiles() const {
    std::vector<std::string> Out;
    for (auto &[Args, Running] : events())
      Out.push_back(Args);
    return Out;
  }
  /// For each logged kernel compile, in start order: how many kernel
  /// compiles (itself included) were running when it started.
  std::vector<int> running() const {
    std::vector<int> Out;
    for (auto &[Args, Running] : events())
      Out.push_back(Running);
    return Out;
  }
  /// Each logged kernel compile: its arguments and compiles running.
  std::vector<std::pair<std::string, int>> events() const {
    std::vector<std::pair<std::string, int>> Out;
    std::set<std::string> Live;
    std::istringstream In(readFile(Dir.Path + "/cc.log"));
    for (std::string Line; std::getline(In, Line);) {
      std::istringstream Words(Line);
      std::string Event, Pid;
      Words >> Event >> Pid;
      if (Event == "end") {
        Live.erase(Pid);
      } else if (Line.find(" -shared ") != std::string::npos) {
        Live.insert(Pid);
        Out.emplace_back(Line, static_cast<int>(Live.size()));
      }
    }
    return Out;
  }
  TempDir Dir;
  std::string Saved;
};

/// The number of variants a measured miss of \p Src compiles and times.
int measuredVariants(const std::string &Src, const GenOptions &O,
                     const ServiceConfig &C) {
  std::string Err;
  auto P = la::compileLa(Src, Err);
  EXPECT_TRUE(P) << Err;
  Generator G(std::move(*P), O);
  return std::min<int>(C.TuneTopK,
                       static_cast<int>(G.enumerate(C.MaxVariants).size()));
}

/// Max deviation of potrf artifact \p A from the evaluator oracle over
/// \p Count instances (one plain call when \p A is not batched).
double potrfError(const KernelArtifact &A, int N, int Count) {
  std::string Err;
  auto Ref = la::compileLa(la::potrfSource(N), Err);
  EXPECT_TRUE(Ref) << Err;
  const size_t Sz = static_cast<size_t>(N) * N;
  AlignedBuffer In(Count * Sz), Out(Count * Sz);
  std::vector<std::vector<double>> Want;
  for (int B = 0; B < Count; ++B) {
    Rng Rand(700 + B);
    std::vector<double> Spd = spd(N, Rand);
    std::copy(Spd.begin(), Spd.end(), In.begin() + B * Sz);
    Env E;
    E.set(Ref->findOperand("A"), Spd);
    evalProgram(*Ref, E);
    Want.push_back(E.get(Ref->findOperand("X")));
  }
  std::fill(Out.begin(), Out.end(), 0.0);
  double *Bufs[2] = {In.data(), Out.data()};
  if (A.Batched)
    A.callBatch(Count, Bufs);
  else
    A.call(Bufs);
  double MaxErr = 0.0;
  for (int B = 0; B < Count; ++B)
    for (size_t I = 0; I < Sz; ++I)
      MaxErr = std::max(MaxErr, std::fabs(Out.data()[B * Sz + I] -
                                          Want[B][I]));
  return MaxErr;
}

/// The object a measured miss stored is the tuner winner's: the served
/// kernel was loaded from the entry's .so, no compile wrote that path
/// directly (every compile targeted a provisional candidate), no candidate
/// is left behind, and the bytes are exactly what compiling the served
/// source with the served options gives. A fresh service then reloads the
/// entry through its content-hash check, and both kernels are correct.
void expectServedAsCompiled(const std::string &Dir, const std::string &Src,
                            const GenOptions &O, const RequestOptions &Req,
                            const GetResult &R, const CcLog &Log, int Count) {
  const std::string So = shardedPath(Dir, R->Key, ".so");
  ASSERT_TRUE(R->isCallable());
  EXPECT_EQ(R->Kernel->soPath(), So);
  for (const std::string &Line : Log.compiles())
    EXPECT_NE(Line.find(".cand"), std::string::npos) << Line;
  for (const auto &E : std::filesystem::directory_iterator(
           std::filesystem::path(So).parent_path()))
    EXPECT_EQ(E.path().string().find(".cand"), std::string::npos)
        << E.path();

  runtime::CompileOptions CO;
  CO.ExtraFlags = runtime::isaCompileFlags(hostIsa());
  CO.WithBatchEntry = R->Batched;
  CO.KeepSoPath = Log.Dir.Path + "/fresh.so";
  std::string Err;
  auto Fresh = runtime::JitKernel::compile(R->CSource, R->FuncName,
                                           R->NumParams, CO, Err);
  ASSERT_TRUE(Fresh) << Err;
  EXPECT_TRUE(readFile(So) == readFile(CO.KeepSoPath))
      << "the stored object is not the served source under served flags";
  EXPECT_NE(readFile(shardedPath(Dir, R->Key, ".meta")).find("so-hash="),
            std::string::npos);

  ServiceConfig C2;
  C2.CacheDir = Dir;
  KernelService S2(C2);
  GetResult R2 = S2.get(Src, O, Req);
  ASSERT_TRUE(R2) << R2.Error;
  EXPECT_EQ(S2.stats().DiskHits, 1);
  EXPECT_EQ(S2.stats().Quarantined, 0);
  EXPECT_EQ(S2.stats().Generations, 0);
  EXPECT_EQ(S2.stats().Compilations, 0);
  ASSERT_TRUE(R2->isCallable());
  EXPECT_LT(potrfError(*R, 8, Count), 1e-10);
  EXPECT_LT(potrfError(*R2, 8, Count), 1e-10);
}

bool canMeasure() {
  return runtime::haveSystemCompiler() && runtime::haveCycleCounter();
}

TEST(ServiceTuner, MeasuredBatchedMissCompilesEachCandidateOnce) {
  if (!canMeasure() || hostIsa().Nu < 2)
    GTEST_SKIP() << "needs a compiler, a cycle counter and vector lanes";
  TempDir Dir;
  ServiceConfig C;
  C.Measure = true;
  C.CacheDir = Dir.Path;
  C.MeasureRepeats = 3;
  std::string Src = la::potrfSource(8);
  GenOptions O = hostOpts("potrf_once_b");
  const int Variants = measuredVariants(Src, O, C);
  CcLog Log;
  KernelService S(C);
  RequestOptions Req;
  Req.Batched = true;
  GetResult R = S.get(Src, O, Req);
  ASSERT_TRUE(R) << R.Error;
  EXPECT_TRUE(R->Measured);
  // The measured variants, then the one batched translation unit the
  // static rule chose; nothing is compiled a second time.
  EXPECT_EQ(static_cast<int>(Log.compiles().size()), Variants + 1);
  EXPECT_EQ(S.stats().Compilations, 1);
  EXPECT_GT(R.Timing.CompileUs, 0);
  expectServedAsCompiled(Dir.Path, Src, O, Req, R, Log, 2 * hostIsa().Nu + 3);
}

TEST(ServiceTuner, MeasuredMissCompilesEachRoundAtOnceThenTimes) {
  if (!canMeasure() || hostIsa().Nu < 2)
    GTEST_SKIP() << "needs a compiler, a cycle counter and vector lanes";
  TempDir Dir;
  ServiceConfig C;
  C.Measure = true;
  C.CacheDir = Dir.Path;
  C.MeasureRepeats = 3;
  std::string Src = la::potrfSource(8);
  GenOptions O = hostOpts("potrf_rounds");
  const int Variants = measuredVariants(Src, O, C);
  CcLog Log;
  KernelService S(C);
  RequestOptions Req;
  Req.Batched = true;
  obs::SpanCollector Spans;
  GetResult R = [&] {
    obs::ScopedCollect Collect(Spans);
    return S.get(Src, O, Req);
  }();
  ASSERT_TRUE(R) << R.Error;
  EXPECT_TRUE(R->Measured);

  // TopK' + 1 compiles: the variant round, then the batched translation
  // unit, which starts only when every variant compile has ended.
  std::vector<int> Running = Log.running();
  ASSERT_EQ(static_cast<int>(Running.size()), Variants + 1);
  EXPECT_EQ(Running[Variants], 1) << "the batched compile overlaps the round";
  const int MaxRunning = *std::max_element(Running.begin(), Running.end());
  const int Cpus = runtime::affinityCpus();
  EXPECT_LE(MaxRunning, Cpus) << "more compiles at once than CPUs";
  if (Cpus >= 2) {
    EXPECT_GE(MaxRunning, 2) << "no compiles of one round overlapped";
  }

  // Every compile span reached the caller's collector, and no timing ran
  // while a compile did.
  std::vector<const obs::Span *> Cc, Measure;
  for (const obs::Span &Sp : Spans.Spans) {
    if (Sp.Name == "cc")
      Cc.push_back(&Sp);
    else if (Sp.Name == "tuner-measure")
      Measure.push_back(&Sp);
  }
  EXPECT_EQ(static_cast<int>(Cc.size()), Variants + 1);
  EXPECT_GE(static_cast<int>(Measure.size()), Variants);
  for (const obs::Span *M : Measure)
    for (const obs::Span *K : Cc)
      EXPECT_FALSE(M->StartUs < K->StartUs + K->DurUs &&
                   K->StartUs < M->StartUs + M->DurUs)
          << "tuner-measure at " << M->StartUs << " overlaps cc at "
          << K->StartUs;
}

TEST(ServiceTuner, MeasuredMissServesTheVariantWinnerAsCompiled) {
  if (!canMeasure())
    GTEST_SKIP() << "needs a compiler and a cycle counter";
  TempDir Dir;
  ServiceConfig C;
  C.Measure = true;
  C.CacheDir = Dir.Path;
  C.MeasureRepeats = 3;
  std::string Src = la::potrfSource(8);
  GenOptions O = hostOpts("potrf_once");
  const int Variants = measuredVariants(Src, O, C);
  CcLog Log;
  KernelService S(C);
  GetResult R = S.get(Src, O);
  ASSERT_TRUE(R) << R.Error;
  EXPECT_TRUE(R->Measured);
  EXPECT_EQ(static_cast<int>(Log.compiles().size()), Variants);
  EXPECT_EQ(S.stats().Compilations, 0);
  expectServedAsCompiled(Dir.Path, Src, O, {}, R, Log, 1);
}

TEST(ServiceTuner, CorruptIRReachesNoCompile) {
  if (!canMeasure() || hostIsa().Nu < 2)
    GTEST_SKIP() << "needs a compiler, a cycle counter and vector lanes";
  obs::Counter &Compiles =
      obs::Registry::global().counter("runtime.jit-compiles");
  // Measured: the first gate is the variant tuner's; unmeasured batched
  // Auto: the batched emission's.
  for (bool Measure : {true, false}) {
    SCOPED_TRACE(Measure ? "measured" : "batched emission only");
    ServiceConfig C;
    C.Measure = Measure;
    C.MeasureRepeats = 3;
    KernelService S(C);
    RequestOptions Req;
    Req.Batched = true;
    GenOptions O = hostOpts(Measure ? "potrf_cir_m" : "potrf_cir_s");
    const int64_t Before = Compiles.value();
    fault::arm("corrupt-ir", /*Count=*/1);
    GetResult R = S.get(la::potrfSource(6), O, Req);
    fault::reset();
    EXPECT_FALSE(R);
    EXPECT_EQ(R.Code, Errc::InvalidKernelIR) << R.Error;
    EXPECT_EQ(Compiles.value(), Before) << "a candidate reached jit-compile";
    GetResult Again = S.get(la::potrfSource(6), O, Req);
    EXPECT_TRUE(Again) << Again.Error;
  }
}

/// Body of the first-compile test, run in a fresh process: four `local:`
/// sessions miss at once on the first compiles of the process.
[[noreturn]] void firstCompilesOfProcess() {
  int Failures = 0;
  {
    TempDir Dir;
    const int NumSessions = 4;
    std::atomic<int> Ready{0};
    std::vector<int> Ok(NumSessions, 0);
    std::vector<std::thread> Threads;
    for (int I = 0; I < NumSessions; ++I)
      Threads.emplace_back([&, I] {
        auto S = sl::Session::open("local:" + Dir.Path + "/s" +
                                   std::to_string(I));
        auto Req = sl::RequestBuilder()
                       .source(la::potrfSource(4))
                       .name("first" + std::to_string(I))
                       .measure(false)
                       .build();
        Ready.fetch_add(1);
        while (Ready.load() < NumSessions)
          std::this_thread::yield();
        Ok[I] = S && Req && S->get(*Req);
      });
    for (auto &T : Threads)
      T.join();
    if (runtime::haveSystemCompiler()) {
      for (int I = 0; I < NumSessions; ++I)
        if (!Ok[I]) {
          fprintf(stderr, "session %d failed\n", I);
          ++Failures;
        }
      int64_t Builds =
          obs::Registry::global().counter("runtime.pch-builds").value();
      if (Builds != 1) {
        fprintf(stderr, "%lld prologue builds, want 1\n",
                static_cast<long long>(Builds));
        ++Failures;
      }
    }
  }
  std::exit(Failures == 0 ? 0 : 1);
}

TEST(ServiceFlight, ConcurrentFirstCompilesBuildOnePrologue) {
  // A fresh process, so these really are the first compiles (and the
  // first compiler probe) it makes.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(firstCompilesOfProcess(), ::testing::ExitedWithCode(0), "");
}

TEST(ServiceBatch, DispatchMatchesIndividualCalls) {
  if (!runtime::haveSystemCompiler())
    GTEST_SKIP() << "no system C compiler";
  KernelService S;
  const int N = 8, Count = 4;
  std::string Src = la::potrfSource(N);
  GenOptions O = hostOpts("potrf_srv");

  // Reference: the plain (non-batched) artifact, one call per instance.
  GetResult Single = S.get(Src, O);
  ASSERT_TRUE(Single) << Single.Error;
  ASSERT_TRUE(Single->isCallable());
  ASSERT_EQ(Single->NumParams, 2); // A (in), X (out)

  std::vector<double> ARef(Count * N * N), XRef(Count * N * N, 0.0);
  // Batch buffers are cache-line aligned per the `_batch` ABI contract.
  AlignedBuffer ABatch(Count * N * N), XBatch(Count * N * N);
  for (int B = 0; B < Count; ++B) {
    Rng Rand(500 + B);
    auto A = spd(N, Rand);
    std::copy(A.begin(), A.end(), ARef.begin() + B * N * N);
  }
  std::copy(ARef.begin(), ARef.end(), ABatch.begin());
  for (int B = 0; B < Count; ++B) {
    double *Bufs[2] = {ARef.data() + B * N * N, XRef.data() + B * N * N};
    Single->call(Bufs);
  }

  // Batched: one dispatch over contiguous instance arrays.
  double *Bufs[2] = {ABatch.data(), XBatch.data()};
  GetResult Batched = S.dispatchBatch(Src, O, Count, Bufs);
  ASSERT_TRUE(Batched) << Batched.Error;
  EXPECT_TRUE(Batched->Batched);
  EXPECT_NE(Batched->Key, Single->Key)
      << "batched kernels get their own cache entry";
  EXPECT_LT(maxAbsDiff(XBatch, XRef), 1e-12);

  // Second dispatch reuses the cached batched kernel.
  long Gens = S.stats().Generations;
  std::fill(XBatch.begin(), XBatch.end(), 0.0);
  std::copy(ARef.begin(), ARef.end(), ABatch.begin());
  GetResult Again = S.dispatchBatch(Src, O, Count, Bufs);
  ASSERT_TRUE(Again) << Again.Error;
  EXPECT_EQ(S.stats().Generations, Gens);
  EXPECT_LT(maxAbsDiff(XBatch, XRef), 1e-12);
}

TEST(ServiceBatch, UnknownMetaStrategyIsRegenerated) {
  TempDir Dir;
  const int N = 8, Count = 2 * hostIsa().Nu + 1; // full blocks and a tail
  std::string Src = la::potrfSource(N);
  GenOptions O = hostOpts("potrf_meta");
  RequestOptions Req;
  Req.Batched = true;
  ServiceConfig C;
  C.CacheDir = Dir.Path;
  std::string Key;
  {
    KernelService S1(C);
    GetResult R = S1.get(Src, O, Req);
    ASSERT_TRUE(R) << R.Error;
    Key = R->Key;
  }
  // A shared cache holding an entry labeled with a strategy this build
  // does not emit (a "vec" Auto entry from an older build).
  const std::string Meta = shardedPath(Dir.Path, Key, ".meta");
  std::string Text = readFile(Meta);
  size_t At = Text.find("strategy=");
  ASSERT_NE(At, std::string::npos) << Text;
  Text.replace(At, Text.find('\n', At) - At, "strategy=vec");
  std::ofstream(Meta, std::ios::trunc) << Text;

  KernelService S2(C);
  GetResult R2 = S2.get(Src, O, Req);
  ASSERT_TRUE(R2) << R2.Error;
  EXPECT_EQ(R2->Key, Key);
  EXPECT_EQ(S2.stats().DiskHits, 0) << "the mislabeled entry was served";
  EXPECT_EQ(S2.stats().Generations, 1);
  EXPECT_NE(R2->Strategy, BatchStrategy::Auto);
  EXPECT_NE(readFile(Meta).find(std::string("strategy=") +
                                batchStrategyName(R2->Strategy) + "\n"),
            std::string::npos)
      << readFile(Meta);

  if (!runtime::haveSystemCompiler())
    return;
  GetResult Single = S2.get(Src, O);
  ASSERT_TRUE(Single) << Single.Error;
  ASSERT_TRUE(Single->isCallable());
  ASSERT_TRUE(R2->isCallable());
  const size_t Sz = static_cast<size_t>(N) * N;
  AlignedBuffer A(Count * Sz), X(Count * Sz);
  std::vector<double> XRef(Count * Sz, 0.0);
  for (int B = 0; B < Count; ++B) {
    Rng Rand(900 + B);
    std::vector<double> Spd = spd(N, Rand);
    std::copy(Spd.begin(), Spd.end(), A.begin() + B * Sz);
    double *Bufs[2] = {A.data() + B * Sz, XRef.data() + B * Sz};
    Single->call(Bufs);
  }
  std::fill(X.begin(), X.end(), 0.0);
  double *Bufs[2] = {A.data(), X.data()};
  R2->callBatch(Count, Bufs);
  EXPECT_LT(maxAbsDiff(X, XRef), 1e-12);
}

TEST(ServiceKey, FingerprintIsStableAndContentSensitive) {
  // Equal sources (modulo whitespace) hash equal; different content or
  // options hash differently.
  std::string A = "Mat A(8, 8) <In, UpSym, PD>;\n"
                  "Mat X(8, 8) <Out, UpTri, NS>;\n"
                  "X' * X = A;\n";
  std::string B = "Mat A(8, 8)   <In, UpSym, PD>;\n\n"
                  "Mat X(8, 8) <Out, UpTri, NS>;\n"
                  "X' * X   =   A;\n";
  std::string Err;
  auto PA = la::compileLa(A, Err);
  auto PB = la::compileLa(B, Err);
  ASSERT_TRUE(PA && PB);
  EXPECT_EQ(programFingerprint(*PA), programFingerprint(*PB));

  auto PC = la::compileLa(la::potrfSource(12), Err);
  ASSERT_TRUE(PC);
  EXPECT_NE(programFingerprint(*PA), programFingerprint(*PC));

  GenOptions O1, O2;
  O2.Isa = &scalarIsa();
  EXPECT_NE(optionsFingerprint(O1), optionsFingerprint(O2));
  GenOptions O3;
  EXPECT_EQ(optionsFingerprint(O1), optionsFingerprint(O3));

  EXPECT_EQ(hexDigest(0), "0000000000000000");
  EXPECT_EQ(hexDigest(0xdeadbeefULL), "00000000deadbeef");
}

} // namespace
