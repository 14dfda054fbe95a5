//===- service/KernelCache.h - content-addressed kernel cache -------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two-tier cache behind KernelService. Entries are immutable
/// KernelArtifacts addressed by a stable content key (see
/// Generator::fingerprint()):
///
///   memory tier  a thread-safe LRU of shared_ptr<const KernelArtifact>;
///                eviction only drops the cache reference, in-flight users
///                keep the kernel loaded.
///   disk tier    optional directory persisting, per key, the emitted C
///                (`ab/cdef...c`), the compiled shared object
///                (`ab/cdef...so`) and a metadata file (`ab/cdef...meta`)
///                with the function name, arity, winning choice vector, and
///                tuning provenance -- enough for a fresh process to
///                re-serve the kernel without generating or compiling
///                anything. Entries are sharded into 256 subdirectories by
///                the first two hex digits of the key, so a production
///                cache of 10^5+ kernels never puts every file in one flat
///                directory; flat pre-shard entries (`<key>.meta` at the
///                top level) are still read transparently.
///
/// The cache never invokes the generator or the compiler itself; the
/// service compiles straight to soPathFor(key) when persisting.
///
/// Crash safety: storeToDisk records an FNV-1a content hash of the C
/// source (`c-hash=`) and of the published .so bytes (`so-hash=`) in the
/// .meta. loadFromDisk re-hashes what it reads and, on mismatch (torn
/// write that slipped past rename -- e.g. a crashed writer on a filesystem
/// without atomic rename durability, or plain disk corruption),
/// quarantines the whole entry: every file is renamed to `<file>.bad`
/// (invisible to lookups and GC), the load reports a miss, and the
/// service regenerates and re-stores a clean entry. Entries written
/// before hashing load unverified, exactly as before.
///
//===----------------------------------------------------------------------===//

#ifndef SLINGEN_SERVICE_KERNELCACHE_H
#define SLINGEN_SERVICE_KERNELCACHE_H

#include "runtime/Jit.h"
#include "slingen/BatchStrategy.h"

#include <atomic>
#include <cassert>
#include <filesystem>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace slingen {
namespace service {

/// One served kernel: the emitted C, its provenance, and (when a compiler
/// was available) the loaded shared object. Immutable once published.
struct KernelArtifact {
  std::string Key;      ///< 16-hex content key
  std::string CSource;  ///< full translation unit (batched TU when Batched)
  std::string FuncName; ///< base kernel symbol
  std::string IsaName;  ///< target ISA name ("avx", ...)
  int NumParams = 0;
  bool Batched = false;          ///< has the `<func>_batch` entry point
  /// How the `<func>_batch` entry iterates instances (meaningful only when
  /// Batched). Never Auto on a published artifact: the service resolves
  /// Auto to a concrete strategy before publication (see
  /// resolveBatchEmission), and the resolution round-trips through the
  /// disk tier's .meta.
  BatchStrategy Strategy = BatchStrategy::ScalarLoop;
  /// Resolved batched dispatch width (>= 1, meaningful only when Batched):
  /// how many threads dispatchBatch spreads AoSoA blocks across by
  /// default: the pinned policy, or 1 under the auto policy. Persisted as
  /// `threads=` in the disk tier's .meta, and
  /// overridable per request/config at dispatch time -- it is dispatch
  /// metadata, not part of the emitted C or the cache key.
  int BatchThreads = 1;
  std::vector<int> Choice;       ///< winning per-HLAC variant indices
  long StaticCost = 0;           ///< static model estimate (cycles)
  bool Measured = false;         ///< Choice was picked by measurement
  double MeasuredCycles = 0.0;   ///< median cycles of the winner (if Measured)
  std::shared_ptr<const runtime::JitKernel> Kernel; ///< null: source-only

  bool isCallable() const { return Kernel != nullptr; }

  /// True when this host can execute the target ISA. A callable artifact
  /// for a wider ISA is still served (shared caches are built on machines
  /// wider than the fleet) but invoking it here would fault -- check this
  /// before call()/callBatch() whenever the request ISA is not hostIsa().
  bool hostRunnable() const;

  /// Single-instance dispatch (requires isCallable() && hostRunnable()).
  void call(double *const *Buffers) const {
    assert(Kernel && "call() on a source-only artifact");
    Kernel->call(Buffers);
  }

  /// Batched dispatch over \p Count contiguous instances per parameter
  /// (requires a Batched, callable artifact).
  void callBatch(int Count, double *const *Buffers) const {
    assert(Kernel && Kernel->hasBatchEntry() &&
           "callBatch() needs a batched artifact");
    Kernel->callBatch(Count, Buffers);
  }
};

using ArtifactPtr = std::shared_ptr<const KernelArtifact>;

class KernelCache {
public:
  /// \p Capacity bounds the memory tier (>= 1); \p DiskDir enables the disk
  /// tier when non-empty (created on demand).
  explicit KernelCache(size_t Capacity, std::string DiskDir = "");

  /// Memory-tier lookup; refreshes LRU position on hit.
  ArtifactPtr lookup(const std::string &Key);

  /// Publishes \p A in the memory tier. Returns the number of entries
  /// evicted to make room.
  size_t insert(const ArtifactPtr &A);

  size_t size() const;
  size_t capacity() const { return Cap; }

  bool hasDiskTier() const { return !Dir.empty(); }
  const std::string &diskDir() const { return Dir; }

  /// Canonical (sharded) entry paths: `<dir>/<key[0:2]>/<key[2:]>.{c,so,
  /// meta}`. These name where new entries go; reads fall back to the flat
  /// pre-shard layout when no sharded entry exists.
  std::string cPathFor(const std::string &Key) const;
  std::string soPathFor(const std::string &Key) const;
  std::string metaPathFor(const std::string &Key) const;

  /// Creates the shard subdirectory for \p Key so callers can compile
  /// straight to soPathFor(Key) before the entry itself is stored.
  void ensureEntryDir(const std::string &Key) const;

  /// True when the disk tier has a complete source+meta entry for \p Key
  /// (sharded or flat).
  bool onDisk(const std::string &Key) const;

  /// Reconstructs an artifact from the disk tier: reads meta + C and, when
  /// `<key>.so` is present and loadable, attaches the kernel (the file
  /// stays owned by the cache directory). Returns null and fills \p Err
  /// when no usable entry exists. Entries whose `c-hash`/`so-hash` meta
  /// keys disagree with the bytes on disk are quarantined (renamed to
  /// `.bad`, counted in quarantined()) and reported as a miss, so corrupt
  /// content is never parsed or dlopen'd.
  ArtifactPtr loadFromDisk(const std::string &Key, std::string &Err);

  /// Disk entries quarantined over this cache's lifetime (corruption
  /// detected at load; each regenerates on the next miss).
  long quarantined() const { return NumQuarantined.load(); }

  /// Persists source + metadata for \p A (the .so, if any, was already
  /// published at soPathFor(key) by JitKernel::compile). Both files are
  /// written via rename so concurrent readers never see a torn entry.
  bool storeToDisk(const KernelArtifact &A, std::string &Err);

  /// Size-bounded GC for the disk tier: while the tier's total byte size
  /// (sharded and flat entries alike) exceeds \p MaxBytes, whole entries
  /// -- the .c/.so/.meta file group of one key -- are evicted
  /// oldest-mtime-first. \p KeepKey (normally the entry just stored) is
  /// never evicted, so the triggering store survives even under a budget
  /// smaller than one entry. Memory-tier references are untouched:
  /// already-loaded kernels keep serving, the key just regenerates on the
  /// next cold miss. Returns the number of entries evicted. MaxBytes <= 0
  /// or no disk tier is a no-op.
  ///
  /// Cost: the first call scans the tier once to build an incremental size
  /// index (per-entry bytes + an mtime-ordered eviction queue); every later
  /// call is O(evicted log entries) -- stores fold their own files into the
  /// index (see storeToDisk/refreshDiskEntry) and nothing is re-statted.
  /// The index is an in-process view: entries written by *other* processes
  /// after the scan are invisible until a fresh process scans again, so
  /// multi-writer tiers should leave GC to one owning daemon.
  size_t enforceDiskBudget(long MaxBytes, const std::string &KeepKey);

  /// Full disk-tier scans performed so far for budget accounting -- test
  /// instrumentation proving GC is incremental: after the first
  /// enforceDiskBudget this stays at 1 no matter how many stores follow.
  size_t diskScans() const;

  /// Cumulative disk-tier entries evicted by enforceDiskBudget over the
  /// cache's lifetime (the per-call return value, summed).
  long diskEvictions() const;

  /// Disk-tier occupancy gauges from the incremental size index. The first
  /// call on a tier that was never scanned performs the one-time scan
  /// (folded into the same diskScans() count GC would pay anyway); without
  /// a disk tier both report 0.
  size_t diskEntries() const;
  long diskBytes() const;

  /// Re-stats one entry's on-disk files (both layouts) and folds the result
  /// into the incremental accounting. For writes that bypass storeToDisk,
  /// e.g. recompiling a cached entry's missing .so in place. No-op before
  /// the first scan or without a disk tier.
  void refreshDiskEntry(const std::string &Key);

private:
  struct Slot {
    ArtifactPtr Artifact;
    std::list<std::string>::iterator LruIt;
  };

  /// On-disk file set of one entry, resolved to whichever layout (sharded
  /// first, then flat) actually holds it.
  struct EntryPaths {
    std::string C, So, Meta;
  };
  EntryPaths pathsFor(const std::string &Key) const; ///< canonical (sharded)
  EntryPaths flatPathsFor(const std::string &Key) const;
  /// Moves every on-disk file of \p Key (both layouts) aside to
  /// `<file>.bad` and drops the entry from the size index. The .bad
  /// extension keeps the evidence for postmortems while making the entry
  /// invisible to resolveOnDisk and GC alike.
  void quarantineEntry(const std::string &Key);
  /// Layout holding \p Key's meta+C, preferring sharded; false when neither
  /// layout has a complete entry.
  bool resolveOnDisk(const std::string &Key, EntryPaths &Out) const;

  /// One indexed disk entry: the files carrying its bytes (across both
  /// layouts), their total, and the newest file mtime (the eviction age).
  struct DiskEntry {
    std::vector<std::pair<std::string, uintmax_t>> Files;
    uintmax_t Bytes = 0;
    std::filesystem::file_time_type Mtime =
        std::filesystem::file_time_type::min();
  };

  void scanDiskTierLocked() const; ///< const: the index is lazy cache state
  /// Drops \p Key from the index, re-stats its files, re-inserts what
  /// exists (requires DiskMu, DiskIndexed).
  void indexDiskEntryLocked(const std::string &Key);
  void dropFromIndexLocked(const std::string &Key);

  mutable std::mutex Mu;
  size_t Cap;
  std::string Dir;
  std::list<std::string> Lru; ///< front = most recent
  std::unordered_map<std::string, Slot> Map;

  // Incremental disk-tier size accounting (all guarded by DiskMu; see
  // enforceDiskBudget).
  // The index doubles as lazily-built gauge state (diskEntries/diskBytes
  // may trigger the first scan from const context), hence mutable.
  std::atomic<long> NumQuarantined{0};

  mutable std::mutex DiskMu;
  mutable bool DiskIndexed = false;
  mutable uintmax_t DiskTotal = 0;
  mutable size_t NumDiskScans = 0;
  long NumDiskEvictions = 0;
  mutable std::unordered_map<std::string, DiskEntry> DiskIndex;
  /// (mtime, key) -> key: the eviction queue, oldest first.
  mutable std::map<std::pair<std::filesystem::file_time_type, std::string>,
                   std::string>
      DiskByAge;
};

} // namespace service
} // namespace slingen

#endif // SLINGEN_SERVICE_KERNELCACHE_H
