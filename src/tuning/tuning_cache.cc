#include "src/tuning/tuning_cache.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <utility>

#include "src/base/logging.h"
#include "src/kernels/conv_schedule.h"
#include "src/obs/metrics.h"

namespace neocpu {

namespace {
constexpr char kFileTag[] = "neocpu-tuning-cache";

std::atomic<TuningCache::SaveKillPoint> g_save_kill_point{
    TuningCache::SaveKillPoint::kNone};

// Process-global cache traffic, aggregated across every TuningCache instance (the
// per-instance Stats() counters remain the per-cache view). Lazy function-local
// statics: the registry lookup happens once, the hot path is one relaxed fetch_add.
Counter* HitsMetric() {
  static Counter* counter = MetricsRegistry::Global().GetCounter(
      "neocpu_tuning_cache_hits_total", "Tuning-cache lookups served from the cache");
  return counter;
}

Counter* MissesMetric() {
  static Counter* counter = MetricsRegistry::Global().GetCounter(
      "neocpu_tuning_cache_misses_total", "Tuning-cache lookups that required a search");
  return counter;
}

Counter* InsertsMetric() {
  static Counter* counter = MetricsRegistry::Global().GetCounter(
      "neocpu_tuning_cache_inserts_total", "Tuning-cache entry inserts/replacements");
  return counter;
}

}  // namespace

std::shared_ptr<const LocalSearchResult> TuningCache::Find(const WorkloadKey& key) const {
  const std::string text = key.ToString();
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(text);
  if (it == entries_.end()) {
    ++misses_;
    MissesMetric()->Increment();
    return nullptr;
  }
  ++hits_;
  HitsMetric()->Increment();
  return it->second;
}

void TuningCache::Insert(const WorkloadKey& key, LocalSearchResult result) {
  Insert(key, std::make_shared<const LocalSearchResult>(std::move(result)));
}

void TuningCache::Insert(const WorkloadKey& key,
                         std::shared_ptr<const LocalSearchResult> result) {
  NEOCPU_CHECK(result != nullptr &&
               (!result->ranked.empty() || !result->dense_ranked.empty()))
      << "inserting empty result for " << key.ToString();
  std::string text = key.ToString();
  std::lock_guard<std::mutex> lock(mutex_);
  InsertLocked(std::move(text), std::move(result));
}

void TuningCache::InsertLocked(std::string text,
                               std::shared_ptr<const LocalSearchResult> result) {
  entries_[std::move(text)] = std::move(result);
  ++inserts_;
  InsertsMetric()->Increment();
}

void TuningCache::MergeFrom(const TuningCache& other) {
  if (&other == this) {
    return;
  }
  // Snapshot under the source lock, insert under ours: no lock is ever held twice.
  EntryMap snapshot;
  {
    std::lock_guard<std::mutex> lock(other.mutex_);
    snapshot = other.entries_;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [text, result] : snapshot) {
    InsertLocked(text, std::move(result));
  }
}

std::size_t TuningCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

TuningCacheStats TuningCache::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  TuningCacheStats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.inserts = inserts_;
  stats.entries = entries_.size();
  return stats;
}

std::vector<WorkloadKey> TuningCache::Keys() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<WorkloadKey> keys;
  keys.reserve(entries_.size());
  for (const auto& [text, result] : entries_) {
    WorkloadKey key;
    NEOCPU_CHECK(WorkloadKey::Parse(text, &key)) << "unparseable cache key " << text;
    keys.push_back(std::move(key));
  }
  return keys;
}

void TuningCache::Serialize(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  out << kFileTag << " " << kFormatVersion << " " << entries_.size() << "\n";
  out << std::setprecision(17);
  for (const auto& [text, result] : entries_) {
    if (!result->dense_ranked.empty()) {
      // Dense (tuned GEMM) entry: v5 record tag, one blocking tuple per line.
      out << "dense " << text << " " << result->dense_ranked.size() << "\n";
      for (const DenseScheduleCost& sc : result->dense_ranked) {
        out << sc.schedule.mc << " " << sc.schedule.nc << " " << sc.schedule.kc << " "
            << sc.schedule.mr << " " << sc.schedule.nr << " "
            << static_cast<unsigned>(sc.schedule.dtype) << " " << sc.ms << "\n";
      }
      continue;
    }
    out << "workload " << text << " " << result->ranked.size() << "\n";
    for (const ScheduleCost& sc : result->ranked) {
      out << sc.schedule.ic_bn << " " << sc.schedule.oc_bn << " " << sc.schedule.reg_n
          << " " << (sc.schedule.unroll_ker ? 1 : 0) << " "
          << static_cast<unsigned>(sc.schedule.algo) << " "
          << static_cast<unsigned>(sc.schedule.dtype) << " " << sc.ms << "\n";
    }
  }
}

bool TuningCache::ParseStream(std::istream& in, EntryMap* entries) {
  std::string tag;
  std::uint32_t version = 0;
  std::size_t entry_count = 0;
  in >> tag >> version >> entry_count;
  if (!in || tag != kFileTag) {
    return false;
  }
  if (version != kFormatVersion) {
    LOG(ERROR) << "tuning cache version " << version << " unsupported (expected "
               << kFormatVersion << ")";
    return false;
  }
  for (std::size_t e = 0; e < entry_count; ++e) {
    std::string record_tag;
    std::string key_text;
    std::size_t count = 0;
    in >> record_tag >> key_text >> count;
    const bool dense_record = record_tag == "dense";
    if (!in || (record_tag != "workload" && !dense_record) || count == 0) {
      return false;
    }
    WorkloadKey key;
    if (!WorkloadKey::Parse(key_text, &key)) {
      return false;
    }
    if (dense_record != key.is_dense) {
      return false;  // record tag and key spelling must agree
    }
    if (dense_record) {
      // Lines are appended as they parse (no up-front resize), so a corrupt count
      // fails at the first missing line instead of allocating for it.
      LocalSearchResult result;
      for (std::size_t i = 0; i < count; ++i) {
        unsigned dtype = 0;
        DenseScheduleCost sc;
        in >> sc.schedule.mc >> sc.schedule.nc >> sc.schedule.kc >> sc.schedule.mr >>
            sc.schedule.nr >> dtype >> sc.ms;
        if (!in || dtype != static_cast<unsigned>(key.dtype)) {
          return false;  // every schedule of an entry has its key's dtype
        }
        sc.schedule.dtype = key.dtype;
        result.dense_ranked.push_back(sc);
      }
      (*entries)[key_text] =
          std::make_shared<const LocalSearchResult>(std::move(result));
      continue;
    }
    LocalSearchResult result;
    for (std::size_t i = 0; i < count; ++i) {
      int unroll = 0;
      unsigned algo = 0;
      unsigned dtype = 0;
      ScheduleCost sc;
      in >> sc.schedule.ic_bn >> sc.schedule.oc_bn >> sc.schedule.reg_n >> unroll >> algo >>
          dtype >> sc.ms;
      if (!in || algo > static_cast<unsigned>(ConvAlgo::kReference) ||
          dtype != static_cast<unsigned>(key.dtype)) {
        return false;
      }
      if (algo == static_cast<unsigned>(ConvAlgo::kWinograd)) {
        LOG(ERROR) << "tuning cache ranks the retired Winograd algorithm for " << key_text;
        return false;
      }
      sc.schedule.unroll_ker = unroll != 0;
      sc.schedule.algo = static_cast<ConvAlgo>(algo);
      sc.schedule.dtype = key.dtype;
      result.ranked.push_back(sc);
    }
    // Drop blocks the templates are not instantiated for (earlier builds ranked some)
    // so a warm start can never select one.
    std::erase_if(result.ranked, [](const ScheduleCost& sc) {
      return sc.schedule.IsDirect() && !IsTemplated(sc.schedule);
    });
    if (result.ranked.empty()) {
      continue;
    }
    (*entries)[key_text] = std::make_shared<const LocalSearchResult>(std::move(result));
  }
  return true;
}

bool TuningCache::Deserialize(std::istream& in) {
  EntryMap entries;
  if (!ParseStream(in, &entries)) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [text, result] : entries) {
    InsertLocked(text, std::move(result));
  }
  return true;
}

void TuningCache::SetSaveKillPointForTest(SaveKillPoint point) {
  g_save_kill_point.store(point, std::memory_order_relaxed);
}

bool TuningCache::SaveToFile(const std::string& path) const {
  // Crash-consistent write: serialize to <path>.tmp, fsync, then atomically rename(2)
  // over the destination. A crash at any point leaves either the complete old file or
  // the complete new file — never a truncated cache that a warm start would reject
  // (or worse, a prefix of that would half-load).
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      return false;
    }
    Serialize(out);
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (g_save_kill_point.load(std::memory_order_relaxed) ==
      SaveKillPoint::kAfterTempWrite) {
    return false;  // simulated crash: temp written, destination untouched
  }
  // ofstream flush only reaches the page cache; fsync makes the temp file's contents
  // durable before the rename can commit the name to them.
  const int fd = ::open(tmp.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
  if (g_save_kill_point.load(std::memory_order_relaxed) == SaveKillPoint::kBeforeRename) {
    return false;  // simulated crash: durable temp, destination untouched
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool TuningCache::LoadFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  return Deserialize(in);
}

}  // namespace neocpu
