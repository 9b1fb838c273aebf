#include "src/serve/dynamic_batcher.h"

#include <algorithm>

#include "src/obs/metrics.h"

namespace neocpu {

const char* RequestLaneName(RequestLane lane) {
  switch (lane) {
    case RequestLane::kLatency:
      return "latency";
    case RequestLane::kThroughput:
      return "throughput";
  }
  return "unknown";
}

DynamicBatcher::DynamicBatcher(BatchingOptions options)
    : options_(options),
      queue_depth_metric_(MetricsRegistry::Global().GetGauge(
          "neocpu_serve_queue_depth", "Requests waiting in the admission queue")),
      inflight_arena_metric_(MetricsRegistry::Global().GetGauge(
          "neocpu_serve_inflight_arena_bytes",
          "Aggregate planned arena bytes of admitted-but-not-completed requests")),
      batch_size_metric_(MetricsRegistry::Global().GetHistogram(
          "neocpu_serve_batch_size", {1, 2, 4, 8, 16, 32},
          "Realized batch sizes popped by executor-pool workers")),
      sheds_metric_(MetricsRegistry::Global().GetCounter(
          "neocpu_serve_requests_shed_total",
          "Requests shed by bounded admission (queue-full + arena-cap)")),
      cross_node_metric_(MetricsRegistry::Global().GetCounter(
          "neocpu_cross_node_dispatch_total",
          "Batches executed on a different NUMA node than the model's last run")) {}

bool DynamicBatcher::Compatible(const ServeRequest& a, const ServeRequest& b) {
  return a.batchable && b.batchable && a.model == b.model &&
         a.input.dims() == b.input.dims();
}

void DynamicBatcher::UpdateQueueMetricsLocked() {
  queue_depth_metric_->Set(
      static_cast<double>(lanes_[0].size() + lanes_[1].size()));
  inflight_arena_metric_->Set(static_cast<double>(inflight_arena_bytes_));
}

AdmitResult DynamicBatcher::TryPush(ServeRequest request) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) {
      return AdmitResult::kShutdown;
    }
    const std::size_t waiting = lanes_[0].size() + lanes_[1].size();
    if (options_.queue_limit > 0 && waiting >= options_.queue_limit) {
      ++sheds_queue_full_;
      sheds_metric_->Increment();
      return AdmitResult::kShedQueueFull;
    }
    // Strict cap: a single request whose plan alone exceeds the cap is a configuration
    // error (raise the cap), not a reason to burst past it — the gauge never lies.
    if (options_.arena_bytes_cap > 0 && request.arena_bytes > 0 &&
        inflight_arena_bytes_ + request.arena_bytes > options_.arena_bytes_cap) {
      ++sheds_arena_;
      sheds_metric_->Increment();
      return AdmitResult::kShedArenaBytes;
    }
    inflight_arena_bytes_ += request.arena_bytes;
    lanes_[static_cast<int>(request.lane)].push_back(std::move(request));
    UpdateQueueMetricsLocked();
  }
  // notify_all, not notify_one: a push can both complete one worker's partial batch and
  // leave an incompatible request for another waiting worker.
  ready_cv_.notify_all();
  return AdmitResult::kAccepted;
}

bool DynamicBatcher::PopBatch(std::vector<ServeRequest>* out, int worker_node) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (worker_node >= 0) {
    ++waiting_by_node_[worker_node];
  }
  // At most one affinity yield per pop: after the grace wait the batch goes to
  // whichever worker gets here first — cross-node beats queueing.
  bool yielded = false;
  for (;;) {
    ready_cv_.wait(lock, [&] {
      return !lanes_[0].empty() || !lanes_[1].empty() || shutdown_;
    });
    if (lanes_[0].empty() && lanes_[1].empty()) {
      if (worker_node >= 0) {
        --waiting_by_node_[worker_node];
      }
      return false;  // shutdown and drained
    }
    // Lanes in priority order: the first lane with a flushable front batch wins; when
    // every non-empty lane is holding a partial batch, sleep until the earliest
    // deadline. The latency lane going first is the whole point of the lanes.
    bool have_deadline = false;
    bool yield_now = false;
    std::chrono::steady_clock::time_point earliest{};
    for (std::deque<ServeRequest>& queue : lanes_) {
      if (queue.empty()) {
        continue;
      }
      // Longest mutually compatible front run, capped at max_batch_size.
      std::size_t run = 1;
      const std::size_t cap = static_cast<std::size_t>(std::max<std::int64_t>(
          1, queue.front().batchable ? options_.max_batch_size : 1));
      while (run < cap && run < queue.size() && Compatible(queue.front(), queue[run])) {
        ++run;
      }
      const auto deadline =
          queue.front().enqueue_time +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double, std::milli>(options_.max_delay_ms));
      // A run stopped by an incompatible successor can never grow (later arrivals queue
      // behind it), so holding it for the delay would be pure added latency.
      const bool blocked = run < queue.size() && run < cap;
      const bool flush = run >= cap || blocked || shutdown_ ||
                         std::chrono::steady_clock::now() >= deadline;
      if (flush) {
        // Socket-affine dispatch: when the batch's model last ran on another node and
        // a worker of that node is parked right here, give it one bounded chance to
        // claim the batch (its node holds the hot weight replica and warm LLC lines).
        // Never past the request's own deadline, never during shutdown.
        if (worker_node >= 0 && !yielded && !shutdown_) {
          const auto hint = model_last_node_.find(queue.front().model);
          if (hint != model_last_node_.end() && hint->second != worker_node) {
            const auto parked = waiting_by_node_.find(hint->second);
            if (parked != waiting_by_node_.end() && parked->second > 0 &&
                std::chrono::steady_clock::now() < deadline) {
              yield_now = true;
              break;
            }
          }
        }
        out->clear();
        out->reserve(run);
        for (std::size_t i = 0; i < run; ++i) {
          out->push_back(std::move(queue.front()));
          queue.pop_front();
        }
        UpdateQueueMetricsLocked();
        batch_size_metric_->Observe(static_cast<double>(run));
        if (worker_node >= 0) {
          const auto hint = model_last_node_.find(out->front().model);
          if (hint != model_last_node_.end() && hint->second != worker_node) {
            ++cross_node_dispatches_;
            cross_node_metric_->Increment();
          }
          model_last_node_[out->front().model] = worker_node;
          --waiting_by_node_[worker_node];
        }
        return true;
      }
      if (!have_deadline || deadline < earliest) {
        have_deadline = true;
        earliest = deadline;
      }
    }
    if (yield_now) {
      // The grace window is a fraction of the batching delay: long enough for a
      // node-local worker to wake and take the batch, short enough that a busy remote
      // socket falls back here instead of stalling the request.
      yielded = true;
      ready_cv_.wait_for(lock, std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::duration<double, std::milli>(
                                       std::max(0.05, options_.max_delay_ms * 0.25))));
      continue;
    }
    // Partial batches only: wait for batch-mates until the earliest front-request
    // deadline. A timeout flushes whatever run has formed by then.
    ready_cv_.wait_until(lock, earliest);
  }
}

void DynamicBatcher::ReleaseArena(std::size_t bytes) {
  if (bytes == 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  inflight_arena_bytes_ -= std::min(bytes, inflight_arena_bytes_);
  UpdateQueueMetricsLocked();
}

void DynamicBatcher::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  ready_cv_.notify_all();
}

std::size_t DynamicBatcher::PendingCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lanes_[0].size() + lanes_[1].size();
}

std::size_t DynamicBatcher::PendingCount(RequestLane lane) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lanes_[static_cast<int>(lane)].size();
}

AdmissionStats DynamicBatcher::GetAdmissionStats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  AdmissionStats stats;
  stats.sheds_queue_full = sheds_queue_full_;
  stats.sheds_arena = sheds_arena_;
  stats.inflight_arena_bytes = inflight_arena_bytes_;
  stats.cross_node_dispatches = cross_node_dispatches_;
  return stats;
}

}  // namespace neocpu
