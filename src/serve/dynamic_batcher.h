// Dynamic request batching with bounded admission (the IntelCaffe / serving-systems
// technique, hardened for overload).
//
// Single-image requests queue up per priority lane in arrival order; an executor-pool
// worker pops a *batch*: the longest front run of mutually compatible requests of the
// highest-priority non-empty lane, capped at max_batch_size. A partial batch is held
// back until the oldest request in it has waited max_delay_ms, trading that bounded
// extra latency for the throughput of a batched kernel invocation. Requests that cannot
// batch — a different model, a different input shape, or a model whose graph cannot be
// batch-rebound — simply form a batch of one (bypass); FIFO order across batches is
// preserved *within a lane*.
//
// Admission is bounded on two axes (backpressure instead of unbounded queueing):
//   * queue_limit — at most this many requests may wait across both lanes; a request
//     arriving at a full queue is shed with kShedQueueFull and a retry-after hint.
//   * arena_bytes_cap — each request carries its model's planned per-sample arena
//     footprint (CompileStats::arena_bytes); the aggregate over every admitted-but-not-
//     completed request may not exceed the cap. The charge is taken at TryPush and
//     released by ReleaseArena once the worker has fulfilled the request, so the cap
//     bounds queued AND executing plan bytes — the number that actually backs arenas.
#ifndef NEOCPU_SRC_SERVE_DYNAMIC_BATCHER_H_
#define NEOCPU_SRC_SERVE_DYNAMIC_BATCHER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/tensor/tensor.h"

namespace neocpu {

// Priority lanes: the latency lane is always popped before the throughput lane, so a
// latency-tier request never waits behind bulk traffic (it still waits behind older
// latency-tier requests). Enumerator values appear on the wire — append only.
enum class RequestLane : std::uint8_t {
  kLatency = 0,
  kThroughput = 1,
};
inline constexpr int kNumRequestLanes = 2;

const char* RequestLaneName(RequestLane lane);

// One in-flight inference request. Created by InferenceServer::TrySubmit; fulfilled
// by an executor-pool worker.
struct ServeRequest {
  std::string model;
  Tensor input;  // single-sample tensor, dims {1, ...}
  std::promise<Tensor> result;
  bool batchable = true;  // false forces a batch of one
  std::chrono::steady_clock::time_point enqueue_time;
  RequestLane lane = RequestLane::kLatency;
  // Planned per-sample arena footprint of the request's model; charged against
  // arena_bytes_cap while the request is in flight (0 = exempt from the cap).
  std::size_t arena_bytes = 0;
};

struct BatchingOptions {
  std::int64_t max_batch_size = 8;
  double max_delay_ms = 2.0;  // max time a request may wait for batch-mates
  // Bounded admission queue: at most this many waiting requests across both lanes
  // before TryPush sheds (0 = unbounded; in-process callers that predate admission).
  std::size_t queue_limit = 1024;
  // Cap on the aggregate in-flight arena bytes (queued + executing); 0 = uncapped.
  std::size_t arena_bytes_cap = 0;
  // Retry-after hint returned with every shed, for clients to back off by.
  double shed_retry_after_ms = 25.0;
};

// TryPush verdict. Everything but kAccepted leaves the request with the caller (the
// promise is untouched, so the caller owns the typed-error reply).
enum class AdmitResult {
  kAccepted = 0,
  kShedQueueFull,   // queue_limit waiting requests already
  kShedArenaBytes,  // admitting would push in-flight arena bytes past the cap
  kShutdown,        // batcher is shut down
};

// Lifetime admission counters (monotonic) plus the instantaneous in-flight footprint.
struct AdmissionStats {
  std::uint64_t sheds_queue_full = 0;
  std::uint64_t sheds_arena = 0;
  std::size_t inflight_arena_bytes = 0;
  // Batches taken by a worker on a different NUMA node than the one the model last
  // executed on (socket-affine dispatch falling back across nodes). Always 0 on
  // single-node hosts and for workers popping with worker_node = -1.
  std::uint64_t cross_node_dispatches = 0;
};

class Counter;
class Gauge;
class Histogram;

class DynamicBatcher {
 public:
  explicit DynamicBatcher(BatchingOptions options);

  DynamicBatcher(const DynamicBatcher&) = delete;
  DynamicBatcher& operator=(const DynamicBatcher&) = delete;

  // Bounded admission: enqueues the request on its lane and wakes a waiting worker, or
  // sheds. On any non-kAccepted verdict the request is untouched beyond the move and
  // the caller still holds its promise.
  AdmitResult TryPush(ServeRequest request);

  // Blocks until a batch is ready and moves it into `out`. A batch is released when it
  // is full, when its oldest request has waited max_delay_ms, when its front request is
  // non-batchable (batch of one), or immediately on shutdown (drain). The latency lane
  // is always served before the throughput lane. Returns false only once the batcher is
  // shut down AND both lanes are empty.
  //
  // `worker_node` makes the dispatch socket-affine: a worker that passes its home NUMA
  // node (>= 0) will briefly yield a flushable batch whose model last executed on a
  // DIFFERENT node while a worker of that node is also waiting — the node with the hot
  // weight replica and warm LLC gets first claim. The yield is one bounded grace wait
  // (a fraction of max_delay_ms), after which the foreign worker takes the batch
  // anyway: traffic falls back across nodes rather than queueing behind a busy socket.
  // Cross-node takes are counted (AdmissionStats::cross_node_dispatches). -1 keeps the
  // legacy strictly-FIFO behavior.
  bool PopBatch(std::vector<ServeRequest>* out, int worker_node = -1);

  // Returns the arena charge taken at admission. The worker calls this once a batch's
  // requests are fulfilled; until then the bytes count against arena_bytes_cap.
  void ReleaseArena(std::size_t bytes);

  // Stops accepting delay-based holds; queued requests drain, then PopBatch returns
  // false. Safe to call more than once.
  void Shutdown();

  std::size_t PendingCount() const;
  std::size_t PendingCount(RequestLane lane) const;
  AdmissionStats GetAdmissionStats() const;
  const BatchingOptions& options() const { return options_; }

 private:
  static bool Compatible(const ServeRequest& a, const ServeRequest& b);
  void UpdateQueueMetricsLocked();

  BatchingOptions options_;
  mutable std::mutex mutex_;
  std::condition_variable ready_cv_;
  std::deque<ServeRequest> lanes_[kNumRequestLanes];
  bool shutdown_ = false;
  std::size_t inflight_arena_bytes_ = 0;  // queued + executing; guarded by mutex_
  std::uint64_t sheds_queue_full_ = 0;
  std::uint64_t sheds_arena_ = 0;
  std::uint64_t cross_node_dispatches_ = 0;
  // Socket affinity state (guarded by mutex_): the node each model last executed on —
  // where its LLC lines and (with replicas everywhere) its hot pages live — and how
  // many workers per node are currently parked in PopBatch.
  std::map<std::string, int> model_last_node_;
  std::map<int, int> waiting_by_node_;
  // Process-global metrics (obs/metrics), resolved once at construction: instantaneous
  // queue depth / in-flight arena bytes, the realized batch-size distribution, and the
  // lifetime shed count. Every batcher in the process feeds the same instruments — the
  // registry hands back the same handles.
  Gauge* queue_depth_metric_;
  Gauge* inflight_arena_metric_;
  Histogram* batch_size_metric_;
  Counter* sheds_metric_;
  Counter* cross_node_metric_;
};

}  // namespace neocpu

#endif  // NEOCPU_SRC_SERVE_DYNAMIC_BATCHER_H_
