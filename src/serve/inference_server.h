// Concurrent inference serving on top of the compiled graph.
//
//                    ┌──────────────┐   batches   ┌────────────────────────────┐
//   TrySubmit() ───▶ │ DynamicBatch │ ──────────▶ │ executor pool: N workers,  │
//   (any thread)     │   er (FIFO)  │             │ each on a disjoint core    │
//   SubmitTicket ◀───┴──────────────┘             │ partition of the host      │
//   (verdict + future<Tensor>)                    └────────────────────────────┘
//
// The executor pool realizes the paper's Figure-4 observation: thread-pool scalability
// flattens well before the full core count for batch-1 CNN inference, so two executors
// on half the cores each serve more traffic than one executor spanning all cores. Each
// pool worker constructs its ThreadEngine *inside* its own thread, so the worker thread
// itself becomes worker 0 of its partition's fork-join pool, pinned to the partition's
// first core.
//
// On multi-node (NUMA) hosts the plan is topology-aware (src/runtime/topology.h): no
// partition straddles a node boundary, each worker's arena is bound to its partition's
// home node, constant weights are replicated per node (model_registry), and the batcher
// dispatch is socket-affine — a batch prefers a worker on the node where the model's
// weights are hot, falling back across nodes rather than queueing. A single-node host
// is planned as a one-node topology: contiguous slices of its online cpus.
//
// TrySubmit is thread-safe and non-blocking; results arrive through the ticket's
// std::future. The admission queue is BOUNDED (BatchingOptions::queue_limit, plus an
// optional cap on aggregate in-flight arena bytes): under overload TrySubmit sheds
// with a typed verdict and a retry-after hint instead of queueing without limit —
// Stats().requests_shed and queue_limit report the admission behavior. Requests carry
// a priority lane (latency / throughput); the batcher serves the latency lane first.
// Per-request latency (submit → result, split per lane) and batching counters are
// available from Stats().
#ifndef NEOCPU_SRC_SERVE_INFERENCE_SERVER_H_
#define NEOCPU_SRC_SERVE_INFERENCE_SERVER_H_

#include <atomic>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "src/runtime/partition.h"
#include "src/serve/dynamic_batcher.h"
#include "src/serve/model_registry.h"
#include "src/serve/serving_stats.h"

namespace neocpu {

struct ServerOptions {
  // Executor-pool width. <= 0 selects two executors when the host has at least two
  // cores (the paper's sweet spot for small-input traffic), else one.
  int num_executors = 0;
  // Cores split across the pool; <= 0 selects the physical core count.
  int total_workers = 0;
  // Pin pool threads to their partition's cores. Disable on oversubscribed hosts/CI.
  bool bind_threads = true;
  // Re-tune schedules per observed batch size in the background (see model_registry.h):
  // a first-use batch serves the rebound variant immediately and hot-swaps to the
  // per-batch-tuned variant when its re-tune lands. Re-tunes run serially on their own
  // unpinned thread.
  bool background_retune = true;
  BatchingOptions batching;
  // Per-node profiling across every registered model: one Run in `profile_sample_rate`
  // is timed node by node (0 = off; 1 = every Run). Snapshots surface per model in
  // Stats().per_model and via registry() entries. Keep the rate >= ~16 in production;
  // a sampled run pays two clock reads per node.
  std::uint32_t profile_sample_rate = 0;
  // Chrome-trace capture (obs/trace): request lifecycle instants/spans plus one span
  // per executed node. Borrowed; must outlive the server. Null = off.
  TraceRecorder* tracer = nullptr;
};

// TrySubmit verdict: everything the wire front end turns into a typed error
// reply instead of a process death.
enum class SubmitStatus {
  kOk = 0,
  kUnknownModel,
  kShapeMismatch,    // rank or a dim differs from the model's sample_dims()
  kShedQueueFull,    // bounded admission queue is full — retry after retry_after_ms
  kShedArenaBytes,   // aggregate in-flight arena bytes would exceed the cap
  kShuttingDown,
};

const char* SubmitStatusName(SubmitStatus status);

struct SubmitOptions {
  RequestLane lane = RequestLane::kLatency;
};

// TrySubmit outcome: on kOk `result` holds the future; on a shed verdict
// retry_after_ms carries the backoff hint clients should honor.
struct SubmitTicket {
  SubmitStatus status = SubmitStatus::kShuttingDown;
  double retry_after_ms = 0.0;
  std::future<Tensor> result;

  bool ok() const { return status == SubmitStatus::kOk; }
};

class InferenceServer {
 public:
  explicit InferenceServer(ServerOptions options = {});
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  ModelRegistry& registry() { return registry_; }
  // Convenience wrappers around registry().
  ModelEntry* RegisterModel(std::string name, CompiledModel model);
  ModelEntry* RegisterModelFromFile(std::string name, const std::string& path);

  // The one way in: enqueues one single-sample request against a registered model.
  // Validates the model and shape (the input's dims must match the model's
  // sample_dims() exactly, leading dim 1), charges the model's planned arena footprint
  // against the cap, and enqueues on the request's lane. On kOk the ticket holds the
  // future of the output tensor; unknown models, shape mismatches, overload and
  // shutdown return a typed non-kOk verdict instead of dying. Thread-safe,
  // non-blocking.
  SubmitTicket TrySubmit(const std::string& model, Tensor input,
                         SubmitOptions options = {});

  // Stops accepting requests, drains everything queued, joins the pool. Idempotent;
  // also run by the destructor.
  void Shutdown();

  ServerStats Stats() const;
  int num_executors() const { return num_executors_; }
  // The realized serving plan: one partition per pooled executor, node-aligned on
  // multi-node hosts (partition i backs worker i; workers beyond the plan run serially
  // and timeshare).
  const std::vector<CorePartition>& partitions() const { return partitions_; }
  // NUMA nodes visible to the plan (1 on single-socket hosts).
  int num_nodes() const { return num_nodes_; }
  // The chrome-trace recorder this server was built with (null = tracing off).
  TraceRecorder* tracer() const { return options_.tracer; }

  // Blocks until every background per-batch re-tune has finished (tests; controlled
  // benchmarking of the fully-tuned steady state).
  void WaitForRetunes() { registry_.WaitForRetunes(); }

 private:
  void WorkerLoop(const CorePartition& partition, bool pooled);

  ModelRegistry registry_;
  DynamicBatcher batcher_;
  ServerOptions options_;
  int num_executors_ = 1;
  int num_nodes_ = 1;
  std::vector<CorePartition> partitions_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stopped_{false};

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> batch_runs_{0};
  std::atomic<std::uint64_t> batched_samples_{0};
  std::atomic<std::int64_t> max_batch_{0};
  LatencyRecorder latency_;
  LatencyRecorder lane_latency_[kNumRequestLanes];
};

}  // namespace neocpu

#endif  // NEOCPU_SRC_SERVE_INFERENCE_SERVER_H_
