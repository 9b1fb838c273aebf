// The single source of schedule truth.
//
// The paper: "we can maintain a database to store the results for every convolution
// workload on every CPU type to prevent repeating search for the same convolution in
// different models." TuningCache is that database grown into a subsystem shared by the
// compiler and the serving tier:
//   * keyed by WorkloadKey, so batch-1 and batch-8 tunings of the same conv coexist;
//   * thread-safe — serving-side background re-tunes populate it while compile-time
//     lookups and other re-tunes read it concurrently;
//   * results are handed out as shared_ptr<const ...>, so a hit is a pointer copy and
//     stays valid regardless of later inserts;
//   * hit/miss/insert accounting for observability (serving stats surface it);
//   * persistable: a versioned text file (SaveToFile/LoadFromFile) for standalone use,
//     and a Serialize/Deserialize pair used by core/serialization to embed the cache
//     inside a compiled-module artifact: loading re-lowers the model from it, and
//     warm starts restore every batch variant's tuning without re-searching.
#ifndef NEOCPU_SRC_TUNING_TUNING_CACHE_H_
#define NEOCPU_SRC_TUNING_TUNING_CACHE_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/tuning/local_search.h"
#include "src/tuning/workload_key.h"

namespace neocpu {

struct TuningCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::size_t entries = 0;

  double HitRate() const {
    const std::uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups);
  }
};

class TuningCache {
 public:
  // Bumped whenever the on-disk layout changes; only this version loads (any other is
  // rejected instead of misread). v5: conv `workload` lines carry the algorithm and
  // execution dtype, and `dense` records hold tuned-GEMM workloads (keys spelled with
  // a "dense:" shape token, lines carrying mc/nc/kc/mr/nr blocking tuples). v6: the
  // retired Winograd algorithm (2) no longer ranks, and a line naming it fails the load.
  static constexpr std::uint32_t kFormatVersion = 6;

  TuningCache() = default;
  TuningCache(const TuningCache&) = delete;
  TuningCache& operator=(const TuningCache&) = delete;

  // Nullptr on miss. Every call counts toward hit/miss accounting.
  std::shared_ptr<const LocalSearchResult> Find(const WorkloadKey& key) const;

  // Inserting an existing key replaces its result (a fresh re-measurement of the same
  // workload supersedes the stale timing, for example — note that analytic and
  // measured results live under different keys, since cost mode is part of the key).
  void Insert(const WorkloadKey& key, LocalSearchResult result);
  void Insert(const WorkloadKey& key, std::shared_ptr<const LocalSearchResult> result);

  // Merges every entry of `other` into this cache (replacing same-key entries), used to
  // fold a model's private cache into a registry-wide shared one. Counts as inserts.
  void MergeFrom(const TuningCache& other);

  std::size_t size() const;
  TuningCacheStats Stats() const;

  // All keys currently cached, in stable (text-key) order.
  std::vector<WorkloadKey> Keys() const;

  // Stream form used both by the file API and by module serialization. Deserialize
  // *merges* into the current contents and returns false on version mismatch or
  // malformed input (cache left with the entries parsed so far discarded — the cache is
  // untouched on any failure). Malformed includes a key this build cannot parse (an
  // s8 dtype token, written by a build that had s8 activations) and a schedule line
  // whose dtype differs from its key's.
  void Serialize(std::ostream& out) const;
  bool Deserialize(std::istream& in);

  // Versioned text file:
  //   neocpu-tuning-cache <version> <entry-count>
  //   workload <key> <num-schedules>
  //   <ic_bn> <oc_bn> <reg_n> <unroll> <algo> <dtype> <ms>     (dtype: the key's)
  //   dense <key> <num-schedules>
  //   <mc> <nc> <kc> <mr> <nr> <dtype> <ms>
  //   ...
  // Crash-consistent: the cache is serialized to `<path>.tmp`, fsynced, and rename(2)d
  // over `path`, so a reader never observes a torn file — a crash mid-save leaves the
  // previous file (plus at worst an orphaned .tmp the next save overwrites).
  bool SaveToFile(const std::string& path) const;
  // Merges the file's entries into the cache. False on I/O failure, version mismatch or
  // malformed content; the in-memory cache is unchanged on failure.
  bool LoadFromFile(const std::string& path);

  // Simulated-crash injection for SaveToFile (process-global; tests only). A save that
  // reaches the armed point returns false exactly as a killed process would leave the
  // filesystem: temp file written (possibly durable), destination untouched.
  enum class SaveKillPoint { kNone, kAfterTempWrite, kBeforeRename };
  static void SetSaveKillPointForTest(SaveKillPoint point);

 private:
  using EntryMap = std::map<std::string, std::shared_ptr<const LocalSearchResult>>;

  static bool ParseStream(std::istream& in, EntryMap* entries);

  // Requires mutex_ held.
  void InsertLocked(std::string text, std::shared_ptr<const LocalSearchResult> result);

  mutable std::mutex mutex_;
  // Keyed by WorkloadKey::ToString(); Keys() re-parses on demand (Parse is the exact
  // inverse, so there is no second map to keep in sync).
  EntryMap entries_;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
  std::uint64_t inserts_ = 0;
};

}  // namespace neocpu

#endif  // NEOCPU_SRC_TUNING_TUNING_CACHE_H_
