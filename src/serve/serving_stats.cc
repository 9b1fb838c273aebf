#include "src/serve/serving_stats.h"

#include <algorithm>

#include "src/base/string_util.h"

namespace neocpu {
namespace {

// Nearest-rank percentile over a sorted sample vector.
double Percentile(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double rank = pct / 100.0 * static_cast<double>(sorted.size());
  std::size_t index = rank <= 1.0 ? 0 : static_cast<std::size_t>(rank + 0.5) - 1;
  index = std::min(index, sorted.size() - 1);
  return sorted[index];
}

}  // namespace

void LatencyRecorder::Record(double millis) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++count_;
  if (samples_.size() < kMaxSamples) {
    samples_.push_back(millis);
    return;
  }
  // Classic reservoir step: sample i (1-based) replaces a random slot with probability
  // kMaxSamples / i, keeping the reservoir a uniform sample of the whole stream.
  std::uint64_t z = (rng_state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  const std::uint64_t slot = (z ^ (z >> 31)) % count_;
  if (slot < kMaxSamples) {
    samples_[static_cast<std::size_t>(slot)] = millis;
  }
}

LatencySnapshot LatencyRecorder::Snapshot() const {
  std::vector<double> samples;
  std::uint64_t total = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    samples = samples_;
    total = count_;
  }
  LatencySnapshot snap;
  snap.count = static_cast<std::size_t>(total);
  if (samples.empty()) {
    return snap;
  }
  std::sort(samples.begin(), samples.end());
  double sum = 0.0;
  for (double s : samples) {
    sum += s;
  }
  snap.mean_ms = sum / static_cast<double>(samples.size());
  snap.p50_ms = Percentile(samples, 50.0);
  snap.p99_ms = Percentile(samples, 99.0);
  snap.p999_ms = Percentile(samples, 99.9);
  snap.max_ms = samples.back();
  return snap;
}

std::string ServerStats::ToString() const {
  std::string out = StrFormat(
      "submitted=%llu completed=%llu shed=%llu queue_depth=%zu/%zu batch_runs=%llu "
      "mean_batch=%.2f max_batch=%lld latency{p50=%.3fms p99=%.3fms p999=%.3fms "
      "mean=%.3fms} "
      "tuning{retunes=%llu/%llu deferred=%llu cache_hits=%llu "
      "cache_misses=%llu entries=%llu} "
      "topology{nodes=%d partitions=%d cross_node=%llu}",
      static_cast<unsigned long long>(submitted), static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(requests_shed), queue_depth_now, queue_limit,
      static_cast<unsigned long long>(batch_runs), mean_batch_size,
      static_cast<long long>(max_batch_size), latency.p50_ms, latency.p99_ms,
      latency.p999_ms, latency.mean_ms, static_cast<unsigned long long>(retunes_completed),
      static_cast<unsigned long long>(retunes_started),
      static_cast<unsigned long long>(retunes_deferred),
      static_cast<unsigned long long>(tuning_cache.hits),
      static_cast<unsigned long long>(tuning_cache.misses),
      static_cast<unsigned long long>(tuning_cache.entries), num_nodes, num_partitions,
      static_cast<unsigned long long>(cross_node_dispatches));
  for (const ModelServeStats& model : per_model) {
    out += StrFormat("\n  model %s: retunes=%llu/%llu deferred=%llu", model.name.c_str(),
                     static_cast<unsigned long long>(model.retunes_completed),
                     static_cast<unsigned long long>(model.retunes_started),
                     static_cast<unsigned long long>(model.retunes_deferred));
    if (model.profiled_runs > 0) {
      out += StrFormat(" profiled{runs=%llu %.3f ms/run}",
                       static_cast<unsigned long long>(model.profiled_runs),
                       model.profile_ms_per_run);
    }
  }
  return out;
}

namespace {

std::string LatencyJson(const LatencySnapshot& l) {
  return StrFormat(
      "{\"count\": %zu, \"mean_ms\": %.6f, \"p50_ms\": %.6f, \"p99_ms\": %.6f, "
      "\"p999_ms\": %.6f, \"max_ms\": %.6f}",
      l.count, l.mean_ms, l.p50_ms, l.p99_ms, l.p999_ms, l.max_ms);
}

}  // namespace

std::string ServerStats::ToJson() const {
  std::string out = "{\n";
  out += StrFormat("  \"submitted\": %llu,\n  \"completed\": %llu,\n",
                   static_cast<unsigned long long>(submitted),
                   static_cast<unsigned long long>(completed));
  out += StrFormat("  \"requests_shed\": %llu,\n",
                   static_cast<unsigned long long>(requests_shed));
  out += StrFormat("  \"requests_shed_queue_full\": %llu,\n",
                   static_cast<unsigned long long>(requests_shed_queue_full));
  out += StrFormat("  \"requests_shed_arena\": %llu,\n",
                   static_cast<unsigned long long>(requests_shed_arena));
  out += StrFormat("  \"queue_depth_now\": %zu,\n  \"queue_limit\": %zu,\n",
                   queue_depth_now, queue_limit);
  out += StrFormat("  \"arena_bytes_cap\": %zu,\n  \"inflight_arena_bytes\": %zu,\n",
                   arena_bytes_cap, inflight_arena_bytes);
  out += StrFormat("  \"batch_runs\": %llu,\n  \"mean_batch_size\": %.4f,\n",
                   static_cast<unsigned long long>(batch_runs), mean_batch_size);
  out += StrFormat("  \"max_batch_size\": %lld,\n",
                   static_cast<long long>(max_batch_size));
  out += "  \"latency\": " + LatencyJson(latency) + ",\n";
  out += "  \"lane_latency\": {\"latency\": " + LatencyJson(lane_latency[0]) +
         ", \"throughput\": " + LatencyJson(lane_latency[1]) + "},\n";
  out += StrFormat(
      "  \"retunes\": {\"started\": %llu, \"completed\": %llu, \"failed\": %llu, "
      "\"deferred\": %llu},\n",
      static_cast<unsigned long long>(retunes_started),
      static_cast<unsigned long long>(retunes_completed),
      static_cast<unsigned long long>(retunes_failed),
      static_cast<unsigned long long>(retunes_deferred));
  out += StrFormat(
      "  \"topology\": {\"nodes\": %d, \"partitions\": %d, "
      "\"cross_node_dispatches\": %llu},\n",
      num_nodes, num_partitions, static_cast<unsigned long long>(cross_node_dispatches));
  out += "  \"models\": [" +
         JoinMapped(per_model, ", ",
                    [](const ModelServeStats& m) { return "\"" + m.name + "\""; }) +
         "]\n";
  out += "}\n";
  return out;
}

}  // namespace neocpu
