//===- service/KernelCache.cpp --------------------------------------------==//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/KernelCache.h"

#include "isa/ISA.h"
#include "obs/EventLog.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/FaultInject.h"
#include "support/File.h"
#include "support/Format.h"
#include "support/Hash.h"
#include "support/KeyValue.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include <unistd.h>

using namespace slingen;
using namespace slingen::service;

namespace fs = std::filesystem;

KernelCache::KernelCache(size_t Capacity, std::string DiskDir)
    : Cap(Capacity == 0 ? 1 : Capacity), Dir(std::move(DiskDir)) {
  if (!Dir.empty()) {
    std::error_code Ec;
    fs::create_directories(Dir, Ec); // failure surfaces on first store
  }
}

ArtifactPtr KernelCache::lookup(const std::string &Key) {
  std::lock_guard<std::mutex> L(Mu);
  auto It = Map.find(Key);
  if (It == Map.end())
    return nullptr;
  Lru.splice(Lru.begin(), Lru, It->second.LruIt);
  return It->second.Artifact;
}

size_t KernelCache::insert(const ArtifactPtr &A) {
  std::lock_guard<std::mutex> L(Mu);
  auto It = Map.find(A->Key);
  if (It != Map.end()) {
    It->second.Artifact = A;
    Lru.splice(Lru.begin(), Lru, It->second.LruIt);
    return 0;
  }
  Lru.push_front(A->Key);
  Map[A->Key] = Slot{A, Lru.begin()};
  size_t Evicted = 0;
  while (Map.size() > Cap) {
    Map.erase(Lru.back());
    Lru.pop_back();
    ++Evicted;
  }
  return Evicted;
}

size_t KernelCache::size() const {
  std::lock_guard<std::mutex> L(Mu);
  return Map.size();
}

namespace {

/// Content hash of one cached file's bytes, as stored in the meta's
/// `c-hash`/`so-hash` keys and re-checked on load.
std::string contentHash(const std::string &Bytes) {
  Fnv1a64 H;
  H.bytes(Bytes.data(), Bytes.size());
  return hexDigest(H.digest());
}

/// `ab/cdef...` -- 256-way fan-out by the leading two hex digits. Keys are
/// fixed-width hexDigest() output; anything shorter (never produced by the
/// service) stays unsharded rather than fabricating a one-char shard, and
/// the GC scan, which reads only shard directories, does not count it.
std::string shardedStem(const std::string &Key) {
  if (Key.size() < 3)
    return Key;
  return Key.substr(0, 2) + "/" + Key.substr(2);
}

} // namespace

KernelCache::EntryPaths KernelCache::pathsFor(const std::string &Key) const {
  std::string Stem = Dir + "/" + shardedStem(Key);
  return {Stem + ".c", Stem + ".so", Stem + ".meta"};
}

std::string KernelCache::cPathFor(const std::string &Key) const {
  return pathsFor(Key).C;
}
std::string KernelCache::soPathFor(const std::string &Key) const {
  return pathsFor(Key).So;
}
std::string KernelCache::metaPathFor(const std::string &Key) const {
  return pathsFor(Key).Meta;
}

void KernelCache::ensureEntryDir(const std::string &Key) const {
  if (Dir.empty() || Key.size() < 3)
    return;
  std::error_code Ec;
  fs::create_directories(Dir + "/" + Key.substr(0, 2), Ec);
}

bool KernelCache::resolveOnDisk(const std::string &Key,
                                EntryPaths &Out) const {
  if (Dir.empty())
    return false;
  std::error_code Ec;
  Out = pathsFor(Key);
  return fs::exists(Out.Meta, Ec) && fs::exists(Out.C, Ec);
}

bool KernelCache::onDisk(const std::string &Key) const {
  EntryPaths P;
  return resolveOnDisk(Key, P);
}

ArtifactPtr KernelCache::loadFromDisk(const std::string &Key,
                                      std::string &Err) {
  if (Dir.empty()) {
    Err = "no disk tier configured";
    return nullptr;
  }
  EntryPaths Paths;
  if (!resolveOnDisk(Key, Paths)) {
    Err = "no disk entry for " + Key;
    return nullptr;
  }
  bool Ok = false;
  std::string MetaText = readFile(Paths.Meta, &Ok);
  if (!Ok) {
    Err = "no disk entry for " + Key;
    return nullptr;
  }
  auto KV = parseKeyValueMap(MetaText);
  auto A = std::make_shared<KernelArtifact>();
  A->Key = Key;
  A->FuncName = KV["func"];
  A->IsaName = KV["isa"];
  const bool IsaOk = isaByNameOrNull(A->IsaName.c_str()) != nullptr;
  A->NumParams = atoi(KV["params"].c_str());
  A->Batched = KV["batched"] == "1";
  // Absent on pre-strategy entries and non-batched artifacts: ScalarLoop,
  // the only batched emission those could contain. A name this build does
  // not know (one it no longer emits, or garbage) makes the meta corrupt:
  // serving the source under a guessed label would mislabel it.
  bool StrategyOk = true;
  if (auto It = KV.find("strategy"); It != KV.end()) {
    std::optional<BatchStrategy> S = batchStrategyByName(It->second);
    StrategyOk = S.has_value();
    if (S)
      A->Strategy = *S;
  }
  // Absent on pre-threading entries: single-threaded dispatch.
  if (int T = atoi(KV["threads"].c_str()); T >= 1)
    A->BatchThreads = T;
  A->StaticCost = atol(KV["cost"].c_str());
  A->Measured = KV["measured"] == "1";
  A->MeasuredCycles = atof(KV["cycles"].c_str());
  {
    std::stringstream CS(KV["choice"]);
    std::string Tok;
    while (std::getline(CS, Tok, ','))
      if (!Tok.empty())
        A->Choice.push_back(atoi(Tok.c_str()));
  }
  // Every store records `c-hash`; a meta without it is not one this cache
  // wrote, so nothing it describes is trusted.
  if (!StrategyOk || A->FuncName.empty() || A->NumParams <= 0 ||
      KV["c-hash"].empty() || !IsaOk) {
    Err = "corrupt meta for " + Key;
    return nullptr;
  }
  A->CSource = readFile(Paths.C, &Ok);
  if (!Ok || A->CSource.empty()) {
    Err = "missing cached source for " + Key;
    return nullptr;
  }
  // Verify what the store recorded. Mismatch means a torn or corrupted
  // entry sitting under a valid content key -- quarantine it (miss) rather
  // than compile garbage or dlopen an object that was never fully written.
  if (KV["c-hash"] != contentHash(A->CSource)) {
    quarantineEntry(Key);
    Err = "corrupt cached source for " + Key + " (quarantined)";
    return nullptr;
  }

  std::error_code Ec;
  if (fs::exists(Paths.So, Ec)) {
    if (!KV["so-hash"].empty()) {
      bool SoOk = false;
      std::string SoBytes = readFile(Paths.So, &SoOk);
      if (!SoOk || KV["so-hash"] != contentHash(SoBytes)) {
        quarantineEntry(Key);
        Err = "corrupt cached object for " + Key + " (quarantined)";
        return nullptr;
      }
    }
    std::string LoadErr;
    auto K = runtime::JitKernel::load(Paths.So, A->FuncName, A->NumParams,
                                      LoadErr, A->Batched);
    // A stale/foreign .so is not fatal: the service recompiles from the
    // cached source instead of failing the request.
    if (K)
      A->Kernel = std::make_shared<runtime::JitKernel>(std::move(*K));
  }
  return A;
}

void KernelCache::quarantineEntry(const std::string &Key) {
  std::error_code Ec;
  const EntryPaths P = pathsFor(Key);
  for (const std::string &F : {P.C, P.So, P.Meta})
    if (fs::exists(F, Ec))
      // The .bad extension hides the file from resolveOnDisk and the GC
      // scan (which only index .c/.so/.meta) while keeping the bytes
      // around for a postmortem.
      rename(F.c_str(), (F + ".bad").c_str());
  NumQuarantined.fetch_add(1);
  obs::Registry::global().counter("cache.quarantined").add();
  obs::EventLog::global().log(obs::EventLog::Level::Error,
                              obs::currentTraceId(), "quarantine",
                              {{"key", Key}});
  std::lock_guard<std::mutex> L(DiskMu);
  if (DiskIndexed)
    dropFromIndexLocked(Key);
}

bool KernelCache::storeToDisk(const KernelArtifact &A, std::string &Err) {
  if (Dir.empty()) {
    Err = "no disk tier configured";
    return false;
  }
  if (fault::anyArmed() && fault::shouldFire("eio-on-store")) {
    Err = "injected fault: I/O error writing the cache entry";
    return false;
  }
  std::error_code Ec;
  fs::create_directories(Dir, Ec);
  ensureEntryDir(A.Key);
  // Hash what will be published *before* any fault below can mangle the
  // bytes on disk: the meta must always describe the intended content, so
  // a later load can tell intact from torn.
  std::string CHash = contentHash(A.CSource);
  std::string SoHash;
  if (fs::exists(soPathFor(A.Key), Ec)) {
    bool SoOk = false;
    std::string SoBytes = readFile(soPathFor(A.Key), &SoOk);
    if (SoOk)
      SoHash = contentHash(SoBytes);
  }
  // Both files are published via rename: concurrent readers (other threads
  // or other processes sharing the directory) never see torn content.
  std::string CTmp = cPathFor(A.Key) + tempSuffix();
  {
    std::ofstream Out(CTmp);
    Out << A.CSource;
    Out.close();
    // An ENOSPC/EIO-truncated temp must not be renamed under the content
    // key -- that would publish a permanently corrupt entry.
    if (!Out) {
      Err = "cannot write " + CTmp;
      unlink(CTmp.c_str());
      return false;
    }
  }
  if (rename(CTmp.c_str(), cPathFor(A.Key).c_str()) != 0) {
    Err = "cannot publish " + cPathFor(A.Key);
    unlink(CTmp.c_str());
    return false;
  }
  if (fault::anyArmed() && fault::shouldFire("torn-write")) {
    // Simulate a torn publication (crash mid-write on a filesystem whose
    // rename is not durable): the entry exists under its content key but
    // half the source bytes are gone. Only the hash check can catch this.
    if (truncate(cPathFor(A.Key).c_str(), A.CSource.size() / 2) != 0)
      unlink(cPathFor(A.Key).c_str());
  }
  std::string Tmp = metaPathFor(A.Key) + tempSuffix();
  {
    std::ofstream Out(Tmp);
    Out << "func=" << A.FuncName << "\n";
    Out << "isa=" << A.IsaName << "\n";
    Out << "params=" << A.NumParams << "\n";
    Out << "batched=" << (A.Batched ? 1 : 0) << "\n";
    if (A.Batched) {
      Out << "strategy=" << batchStrategyName(A.Strategy) << "\n";
      Out << "threads=" << (A.BatchThreads >= 1 ? A.BatchThreads : 1)
          << "\n";
    }
    Out << "c-hash=" << CHash << "\n";
    if (!SoHash.empty())
      Out << "so-hash=" << SoHash << "\n";
    Out << "cost=" << A.StaticCost << "\n";
    Out << "measured=" << (A.Measured ? 1 : 0) << "\n";
    Out << "cycles=" << formatf("%.17g", A.MeasuredCycles) << "\n";
    Out << "choice=";
    for (size_t I = 0; I < A.Choice.size(); ++I)
      Out << (I ? "," : "") << A.Choice[I];
    Out << "\n";
    Out.close();
    if (!Out) {
      Err = "cannot write " + Tmp;
      unlink(Tmp.c_str());
      return false;
    }
  }
  if (rename(Tmp.c_str(), metaPathFor(A.Key).c_str()) != 0) {
    Err = "cannot publish " + metaPathFor(A.Key);
    unlink(Tmp.c_str());
    return false;
  }
  // Fold the freshly published files (plus the .so the service may already
  // have compiled to soPathFor) into the size accounting -- stats only this
  // entry's own files, keeping budget enforcement O(evicted) per store.
  {
    std::lock_guard<std::mutex> L(DiskMu);
    if (DiskIndexed)
      indexDiskEntryLocked(A.Key);
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Disk-tier size accounting. One full scan builds the per-entry index and
// the mtime-ordered eviction queue; afterwards stores fold their own files
// in (indexDiskEntryLocked) and enforceDiskBudget only touches what it
// evicts -- O(evicted) file operations per store instead of re-statting
// every entry.
//===----------------------------------------------------------------------===//

void KernelCache::dropFromIndexLocked(const std::string &Key) {
  auto It = DiskIndex.find(Key);
  if (It == DiskIndex.end())
    return;
  DiskTotal -= std::min(DiskTotal, It->second.Bytes);
  DiskByAge.erase(std::make_pair(It->second.Mtime, Key));
  DiskIndex.erase(It);
}

void KernelCache::indexDiskEntryLocked(const std::string &Key) {
  dropFromIndexLocked(Key);
  DiskEntry E;
  std::error_code Ec;
  const EntryPaths P = pathsFor(Key);
  for (const std::string &F : {P.C, P.So, P.Meta}) {
    uintmax_t Sz = fs::file_size(F, Ec);
    if (Ec)
      continue;
    E.Files.emplace_back(F, Sz);
    E.Bytes += Sz;
    fs::file_time_type M = fs::last_write_time(F, Ec);
    if (!Ec && M > E.Mtime)
      E.Mtime = M;
  }
  if (E.Files.empty())
    return;
  DiskTotal += E.Bytes;
  DiskByAge.emplace(std::make_pair(E.Mtime, Key), Key);
  DiskIndex.emplace(Key, std::move(E));
}

namespace {

/// Folds one regular file into the per-key scan state. \p Key is the
/// reconstructed cache key (shard prefix + stem); files that are not
/// `.c/.so/.meta` (in-flight `.tmp<pid>_<n>` publications, foreign files) are
/// skipped.
template <typename EntryMap>
void gcAccumulate(EntryMap &Entries, const std::string &Key,
                  const fs::directory_entry &File) {
  std::string Ext = File.path().extension().string();
  if (Ext != ".c" && Ext != ".so" && Ext != ".meta")
    return;
  std::error_code Ec;
  uintmax_t Sz = File.file_size(Ec);
  if (Ec)
    return;
  auto &E = Entries[Key];
  E.Files.emplace_back(File.path().string(), Sz);
  E.Bytes += Sz;
  fs::file_time_type M = fs::last_write_time(File.path(), Ec);
  if (!Ec && M > E.Mtime)
    E.Mtime = M;
}

} // namespace

void KernelCache::scanDiskTierLocked() const {
  DiskIndex.clear();
  DiskByAge.clear();
  DiskTotal = 0;
  ++NumDiskScans;
  // Entries live one level down, as `ab/<rest>.{c,so,meta}`.
  std::error_code Ec;
  for (const fs::directory_entry &Top : fs::directory_iterator(Dir, Ec)) {
    if (!Top.is_directory(Ec))
      continue;
    std::string Shard = Top.path().filename().string();
    for (const fs::directory_entry &File :
         fs::directory_iterator(Top.path(), Ec))
      if (File.is_regular_file(Ec))
        gcAccumulate(DiskIndex, Shard + File.path().stem().string(), File);
  }
  for (const auto &[Key, E] : DiskIndex) {
    DiskTotal += E.Bytes;
    DiskByAge.emplace(std::make_pair(E.Mtime, Key), Key);
  }
  DiskIndexed = true;
}

size_t KernelCache::diskScans() const {
  std::lock_guard<std::mutex> L(DiskMu);
  return NumDiskScans;
}

long KernelCache::diskEvictions() const {
  std::lock_guard<std::mutex> L(DiskMu);
  return NumDiskEvictions;
}

size_t KernelCache::diskEntries() const {
  std::lock_guard<std::mutex> L(DiskMu);
  if (!DiskIndexed && !Dir.empty())
    scanDiskTierLocked();
  return DiskIndex.size();
}

long KernelCache::diskBytes() const {
  std::lock_guard<std::mutex> L(DiskMu);
  if (!DiskIndexed && !Dir.empty())
    scanDiskTierLocked();
  return static_cast<long>(DiskTotal);
}

void KernelCache::refreshDiskEntry(const std::string &Key) {
  if (Dir.empty())
    return;
  std::lock_guard<std::mutex> L(DiskMu);
  if (DiskIndexed)
    indexDiskEntryLocked(Key);
}

size_t KernelCache::enforceDiskBudget(long MaxBytes,
                                      const std::string &KeepKey) {
  if (Dir.empty() || MaxBytes <= 0)
    return 0;
  std::lock_guard<std::mutex> L(DiskMu);
  if (!DiskIndexed)
    scanDiskTierLocked();
  size_t Evicted = 0;
  auto It = DiskByAge.begin();
  while (DiskTotal > static_cast<uintmax_t>(MaxBytes) &&
         It != DiskByAge.end()) {
    const std::string Key = It->second;
    if (Key == KeepKey) {
      ++It;
      continue;
    }
    auto MapIt = DiskIndex.find(Key);
    if (MapIt == DiskIndex.end()) {
      It = DiskByAge.erase(It);
      continue;
    }
    DiskEntry E = std::move(MapIt->second);
    It = DiskByAge.erase(It);
    DiskIndex.erase(MapIt);
    // Only count what actually left the disk: an unremovable file (EACCES
    // in a shared directory, say) must not fool the budget into thinking
    // space was freed, or the tier would quietly grow past the cap.
    std::vector<std::pair<std::string, uintmax_t>> Stuck;
    uintmax_t StuckBytes = 0;
    for (const auto &[F, Sz] : E.Files) {
      std::error_code RmEc;
      if (fs::remove(F, RmEc) || !fs::exists(F, RmEc))
        DiskTotal -= std::min(DiskTotal, Sz);
      else {
        Stuck.emplace_back(F, Sz);
        StuckBytes += Sz;
      }
    }
    if (Stuck.empty()) {
      ++Evicted;
      ++NumDiskEvictions;
    } else {
      // Keep the survivors indexed (bytes stay in the total) so a later
      // pass retries them; re-inserting under the same age slots them
      // before the iterator, ending this pass's interest in them.
      DiskEntry R;
      R.Files = std::move(Stuck);
      R.Bytes = StuckBytes;
      R.Mtime = E.Mtime;
      DiskByAge.emplace(std::make_pair(R.Mtime, Key), Key);
      DiskIndex.emplace(Key, std::move(R));
    }
  }
  return Evicted;
}
