// Serving-side observability: per-request latency distribution and batching counters.
//
// The recorder keeps every sample (serving tests and benches run bounded request
// counts); Snapshot() computes nearest-rank percentiles on demand. All entry points are
// thread-safe — executor-pool workers record concurrently.
#ifndef NEOCPU_SRC_SERVE_SERVING_STATS_H_
#define NEOCPU_SRC_SERVE_SERVING_STATS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/tuning/tuning_cache.h"

namespace neocpu {

struct LatencySnapshot {
  std::size_t count = 0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;  // the overload-gated tail (needs thousands of samples to bite)
  double max_ms = 0.0;
};

// Bounded memory: once kMaxSamples is reached, reservoir sampling keeps a uniform
// subset of the full stream, so percentiles stay representative in a server that runs
// for days while memory stays flat. `count` still reports every recorded request.
class LatencyRecorder {
 public:
  static constexpr std::size_t kMaxSamples = 1 << 16;

  void Record(double millis);
  LatencySnapshot Snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::vector<double> samples_;
  std::uint64_t count_ = 0;   // total recorded, including displaced samples
  std::uint64_t rng_state_ = 0x243f6a8885a308d3ull;  // splitmix64 state for the reservoir
};

// Per-model slice of a server's stats: the tuning counters of one registry entry plus,
// when profiling is enabled, the entry's merged node-profile roll-up.
struct ModelServeStats {
  std::string name;
  std::uint64_t retunes_started = 0;
  std::uint64_t retunes_completed = 0;
  std::uint64_t retunes_failed = 0;
  std::uint64_t retunes_deferred = 0;
  std::uint64_t profiled_runs = 0;      // Runs the per-node profiler actually timed
  double profile_ms_per_run = 0.0;      // mean profiled wall time per Run
};

// Aggregate serving counters plus the request-latency distribution (submit → result).
struct ServerStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t batch_runs = 0;      // executor invocations (one per formed batch)
  std::uint64_t batched_samples = 0; // completed requests that shared a multi-request batch
  double mean_batch_size = 0.0;
  std::int64_t max_batch_size = 0;
  // Requests sitting in the admission queue at snapshot time — the instantaneous
  // backlog, not a lifetime counter. Bounded by queue_limit.
  std::size_t queue_depth_now = 0;
  LatencySnapshot latency;

  // Admission control. The queue is bounded: a request arriving at a full queue (or one
  // that would push the aggregate in-flight arena footprint past arena_bytes_cap) is
  // shed with a retry-after hint instead of queued — requests_shed counts both kinds.
  std::size_t queue_limit = 0;           // 0 = unbounded (legacy servers only)
  std::size_t arena_bytes_cap = 0;       // 0 = uncapped
  std::size_t inflight_arena_bytes = 0;  // admitted-but-not-completed plan footprint
  std::uint64_t requests_shed = 0;
  std::uint64_t requests_shed_queue_full = 0;
  std::uint64_t requests_shed_arena = 0;
  // Per-priority-lane latency split (index by RequestLane): the latency lane is popped
  // first under contention, so its tail should sit below the throughput lane's.
  LatencySnapshot lane_latency[2];

  // Topology-aware scale-out. num_nodes is the NUMA node count the serving plan saw
  // (1 on single-socket hosts); cross_node_dispatches counts batches a worker took on
  // a different node than the model's previous run (socket-affine dispatch falling
  // back — always 0 single-node).
  int num_nodes = 1;
  int num_partitions = 0;
  std::uint64_t cross_node_dispatches = 0;

  // Batch-aware tuning activity, aggregated over every registered model: background
  // per-batch re-tunes and the lifetime TuningCache traffic (the caches may be shared
  // beyond this server — e.g. with the compiles that produced the models).
  std::uint64_t retunes_started = 0;
  std::uint64_t retunes_completed = 0;
  std::uint64_t retunes_failed = 0;
  std::uint64_t retunes_deferred = 0;
  TuningCacheStats tuning_cache;

  // One slice per registered model, registry order.
  std::vector<ModelServeStats> per_model;

  std::string ToString() const;
  // Machine-readable export: the frontend's GET /stats body. Stable key order.
  std::string ToJson() const;
};

}  // namespace neocpu

#endif  // NEOCPU_SRC_SERVE_SERVING_STATS_H_
