// Low-overhead per-node execution profiler for the graph executor.
//
// The paper's whole argument is that per-layer choices (blocking, algorithm, dtype)
// decide end-to-end latency; the profiler makes those per-layer costs visible at
// runtime. An Executor with a profiler attached times every node of a *sampled* Run
// with steady_clock (vDSO clock_gettime, ~20ns per read) and folds the result into
// per-node and per-op-kind aggregates.
//
// Overhead contract:
//   * detached (the default): the executor pays one relaxed atomic load per Run and
//     one predictable branch per node — no clock reads, no stores;
//   * attached with sample_rate N: only every Nth Run is timed, so steady-state cost
//     is (2 clock reads + 1 shared-lock + 2 relaxed adds) per node per N runs. The
//     serve_test overhead guard holds this under 5% of throughput on the tiny zoo
//     model at the default serving rate.
//
// Thread-safety: RecordNode/BeginRun are called concurrently by executor-pool workers
// (hot, shared lock + relaxed atomics); RegisterGraph takes the exclusive lock and is
// expected at attach time (compile, registration, variant materialization), not per
// request. Snapshot is safe anytime.
#ifndef NEOCPU_SRC_OBS_NODE_PROFILER_H_
#define NEOCPU_SRC_OBS_NODE_PROFILER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/graph.h"

namespace neocpu {

struct NodeProfile {
  int node_id = -1;
  OpType type = OpType::kInput;
  std::string name;
  std::uint64_t runs = 0;   // sampled executions of this node
  double total_ms = 0.0;    // summed over sampled executions
  double mean_us() const {
    return runs == 0 ? 0.0 : total_ms * 1e3 / static_cast<double>(runs);
  }
};

struct OpKindProfile {
  std::string kind;  // OpTypeName, with convs split by algorithm ("Conv2d/im2col")
  std::uint64_t calls = 0;
  double total_ms = 0.0;
};

struct NodeProfileSnapshot {
  std::uint64_t runs_total = 0;    // Run() calls observed (sampled or not)
  std::uint64_t runs_sampled = 0;  // Run() calls actually timed
  double total_ms = 0.0;           // sum of all node times across sampled runs
  std::vector<NodeProfile> nodes;  // nodes with at least one sample, by node id
  std::vector<OpKindProfile> by_kind;  // descending total_ms

  bool empty() const { return runs_sampled == 0; }
  // Mean timed cost of one full Run (the number to compare against wall time).
  double PerRunMs() const {
    return runs_sampled == 0 ? 0.0 : total_ms / static_cast<double>(runs_sampled);
  }
  // Human-readable table: per-kind rollup plus the top_n hottest nodes (0 = all).
  std::string ToString(std::size_t top_n = 16) const;
};

// Merges snapshots from several executors/variants of one model: run counts and kind
// totals add; nodes are unioned keyed by (id, type, name) so batch variants of the
// same graph fold together while structurally different re-tuned graphs stay distinct.
NodeProfileSnapshot MergeProfileSnapshots(const std::vector<NodeProfileSnapshot>& parts);

class NodeProfiler {
 public:
  // Times every sample_rate-th Run (1 = every run). Rate 0 is clamped to 1.
  explicit NodeProfiler(std::uint32_t sample_rate = 1);

  NodeProfiler(const NodeProfiler&) = delete;
  NodeProfiler& operator=(const NodeProfiler&) = delete;

  // Pre-registers every node of `graph` (id, type, name) so the record path never
  // allocates. Called at attach time; safe to call for several graphs — cells grow to
  // the largest node id seen.
  void RegisterGraph(const Graph& graph);

  // One call per Executor::Run; true when this run should be timed.
  bool BeginRun() {
    return runs_total_.fetch_add(1, std::memory_order_relaxed) % sample_rate_ == 0;
  }
  // Counts a timed run (called once per sampled Run, after its nodes recorded).
  void EndSampledRun() { runs_sampled_.fetch_add(1, std::memory_order_relaxed); }

  // Folds one timed node execution in. `node.id` must have been registered.
  void RecordNode(const Node& node, std::uint64_t nanos);

  NodeProfileSnapshot Snapshot() const;
  void Reset();

  std::uint32_t sample_rate() const { return sample_rate_; }

 private:
  struct Cell {
    std::atomic<std::uint64_t> nanos{0};
    std::atomic<std::uint64_t> runs{0};
    OpType type = OpType::kInput;
    std::string name;
    std::string kind;  // precomputed aggregation key
    bool registered = false;
  };

  const std::uint32_t sample_rate_;
  std::atomic<std::uint64_t> runs_total_{0};
  std::atomic<std::uint64_t> runs_sampled_{0};
  // Shared lock on the hot record path, exclusive only when RegisterGraph grows the
  // cell table (unique_ptr cells keep addresses stable across growth regardless).
  mutable std::shared_mutex mutex_;
  std::vector<std::unique_ptr<Cell>> cells_;  // indexed by node id
};

}  // namespace neocpu

#endif  // NEOCPU_SRC_OBS_NODE_PROFILER_H_
