#include "src/serve/inference_server.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/base/cpu_info.h"
#include "src/base/logging.h"
#include "src/base/string_util.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/runtime/arena_pool.h"
#include "src/runtime/thread_pool.h"
#include "src/serve/batch_util.h"

namespace neocpu {

InferenceServer::InferenceServer(ServerOptions options)
    : batcher_(options.batching), options_(options) {
  const CpuTopology& topology = HostTopology();
  num_nodes_ = topology.num_nodes();
  const int cores = options_.total_workers > 0 ? options_.total_workers
                                               : HostCpuInfo().physical_cores;
  num_executors_ = options_.num_executors > 0 ? options_.num_executors
                                              : (cores >= 2 ? 2 : 1);
  // Partition the cores across the pool, node-aligned on multi-node hosts. When the
  // pool is wider than the core count (useful on small CI hosts), the extra workers
  // run serial executors that timeshare.
  partitions_ = PlanCorePartitions(num_executors_, options_.total_workers, topology);
  RetuneOptions retune;
  retune.enabled = options_.background_retune;
  registry_.ConfigureRetune(retune);

  // Per-socket weight replicas when the serving plan spans nodes: every partition then
  // reads its model constants from node-local pages (ExecutorFor in WorkerLoop).
  std::vector<int> replica_nodes;
  for (const CorePartition& partition : partitions_) {
    if (std::find(replica_nodes.begin(), replica_nodes.end(), partition.home_node) ==
        replica_nodes.end()) {
      replica_nodes.push_back(partition.home_node);
    }
  }
  if (replica_nodes.size() > 1) {
    registry_.ConfigureReplicas(replica_nodes);
  }

  MetricsRegistry::Global()
      .GetGauge("neocpu_topology_nodes", "NUMA nodes visible to the serving plan")
      ->Set(static_cast<double>(num_nodes_));
  for (std::size_t i = 0; i < partitions_.size(); ++i) {
    MetricsRegistry::Global()
        .GetGauge(StrFormat("neocpu_partition_%d_home_node", static_cast<int>(i)),
                  "Home NUMA node of this serving partition")
        ->Set(static_cast<double>(partitions_[i].home_node));
    MetricsRegistry::Global()
        .GetGauge(StrFormat("neocpu_partition_%d_width", static_cast<int>(i)),
                  "Worker threads of this serving partition")
        ->Set(static_cast<double>(partitions_[i].cpus.size()));
  }

  if (options_.profile_sample_rate > 0) {
    registry_.ConfigureProfiling(options_.profile_sample_rate);
  }
  if (options_.tracer != nullptr) {
    registry_.ConfigureTracing(options_.tracer);
  }

  workers_.reserve(static_cast<std::size_t>(num_executors_));
  for (int i = 0; i < num_executors_; ++i) {
    const bool pooled = i < static_cast<int>(partitions_.size());
    const CorePartition partition =
        pooled ? partitions_[static_cast<std::size_t>(i)] : CorePartition{};
    workers_.emplace_back([this, partition, pooled] { WorkerLoop(partition, pooled); });
  }
}

InferenceServer::~InferenceServer() { Shutdown(); }

ModelEntry* InferenceServer::RegisterModel(std::string name, CompiledModel model) {
  return registry_.Register(std::move(name), std::move(model));
}

ModelEntry* InferenceServer::RegisterModelFromFile(std::string name,
                                                   const std::string& path) {
  return registry_.RegisterFromFile(std::move(name), path);
}

const char* SubmitStatusName(SubmitStatus status) {
  switch (status) {
    case SubmitStatus::kOk:
      return "ok";
    case SubmitStatus::kUnknownModel:
      return "unknown-model";
    case SubmitStatus::kShapeMismatch:
      return "shape-mismatch";
    case SubmitStatus::kShedQueueFull:
      return "shed-queue-full";
    case SubmitStatus::kShedArenaBytes:
      return "shed-arena-bytes";
    case SubmitStatus::kShuttingDown:
      return "shutting-down";
  }
  return "unknown";
}

SubmitTicket InferenceServer::TrySubmit(const std::string& model, Tensor input,
                                        SubmitOptions options) {
  SubmitTicket ticket;
  if (stopped_.load(std::memory_order_acquire)) {
    ticket.status = SubmitStatus::kShuttingDown;
    return ticket;
  }
  ModelEntry* entry = registry_.Find(model);
  if (entry == nullptr) {
    ticket.status = SubmitStatus::kUnknownModel;
    return ticket;
  }
  const std::vector<std::int64_t>& expect = entry->sample_dims();
  if (input.ndim() != static_cast<int>(expect.size())) {
    ticket.status = SubmitStatus::kShapeMismatch;
    return ticket;
  }
  for (int axis = 0; axis < input.ndim(); ++axis) {
    if (input.dim(axis) != expect[static_cast<std::size_t>(axis)]) {
      ticket.status = SubmitStatus::kShapeMismatch;
      return ticket;
    }
  }

  ServeRequest request;
  request.model = model;
  request.input = std::move(input);
  request.batchable = entry->batchable();
  request.enqueue_time = std::chrono::steady_clock::now();
  request.lane = options.lane;
  request.arena_bytes = entry->arena_bytes_per_sample();
  std::future<Tensor> future = request.result.get_future();
  // The push is the authoritative shutdown gate (checked under the batcher's lock):
  // the stopped_ check above can race a concurrent Shutdown, and a request accepted
  // after the workers drain would hang its future forever.
  switch (batcher_.TryPush(std::move(request))) {
    case AdmitResult::kAccepted:
      break;
    case AdmitResult::kShedQueueFull:
      ticket.status = SubmitStatus::kShedQueueFull;
      ticket.retry_after_ms = options_.batching.shed_retry_after_ms;
      return ticket;
    case AdmitResult::kShedArenaBytes:
      ticket.status = SubmitStatus::kShedArenaBytes;
      ticket.retry_after_ms = options_.batching.shed_retry_after_ms;
      return ticket;
    case AdmitResult::kShutdown:
      ticket.status = SubmitStatus::kShuttingDown;
      return ticket;
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  MetricsRegistry::Global()
      .GetCounter("neocpu_serve_requests_total", "Requests accepted by TrySubmit")
      ->Increment();
  if (options_.tracer != nullptr) {
    options_.tracer->RecordInstant("request", "submit",
                                   StrFormat("\"model\":\"%s\"", model.c_str()));
  }
  ticket.status = SubmitStatus::kOk;
  ticket.result = std::move(future);
  return ticket;
}

void InferenceServer::WorkerLoop(const CorePartition& partition, bool pooled) {
  // Built in-thread so this thread is worker 0 of its partition, bound to the
  // partition's first cpu — single-cpu partitions too, so their placement and their
  // arena's first touch land on the planned cpu.
  std::unique_ptr<ThreadEngine> owned;
  if (pooled) {
    owned = std::make_unique<NeoThreadPool>(static_cast<int>(partition.cpus.size()),
                                            options_.bind_threads, partition.cpus);
  } else {
    owned = std::make_unique<SerialEngine>();
  }
  ThreadEngine* engine = owned.get();

  // One warm arena per pool worker: planned executions reuse this block request after
  // request, so its pages are faulted once and stay resident and local to this
  // partition's cores (the partition's own threads do the first touch, and on NUMA
  // hosts the arena is additionally bound to the partition's home node). It grows to
  // the largest plan this worker ever runs and then never allocates again.
  Arena arena;
  if (pooled) {
    arena.set_home_node(partition.home_node);
  }

  // Socket-affine pops only when there is more than one node to be affine to; -1 keeps
  // the batcher's strictly-FIFO single-node fast path.
  const int worker_node = (pooled && num_nodes_ > 1) ? partition.home_node : -1;

  std::vector<ServeRequest> batch;
  while (batcher_.PopBatch(&batch, worker_node)) {
    ModelEntry* entry = registry_.Find(batch[0].model);
    NEOCPU_CHECK(entry != nullptr) << "model vanished: " << batch[0].model;
    const std::int64_t n = static_cast<std::int64_t>(batch.size());
    TraceRecorder* tracer = options_.tracer;
    const auto batch_begin = std::chrono::steady_clock::now();
    if (tracer != nullptr) {
      tracer->RecordInstant(
          "serve", "batch formed",
          StrFormat("\"model\":\"%s\",\"batch\":%lld", batch[0].model.c_str(),
                    static_cast<long long>(n)));
    }
    std::vector<Tensor> results;
    results.reserve(batch.size());
    if (n == 1) {
      // The shared_ptr pins the variant across a concurrent re-tune hot swap;
      // ExecutorFor picks this partition's node-local weight replica when one exists.
      const ModelEntry::VariantPtr variant = entry->VariantFor(1);
      results.push_back(variant->ExecutorFor(partition.home_node)
                            ->Run(batch[0].input, engine, &arena));
    } else {
      std::vector<Tensor> samples;
      samples.reserve(batch.size());
      for (const ServeRequest& r : batch) {
        samples.push_back(r.input);
      }
      const ModelEntry::VariantPtr variant = entry->VariantFor(n);
      Tensor stacked = StackBatch(samples);
      results = SplitBatch(
          variant->ExecutorFor(partition.home_node)->Run(stacked, engine, &arena), n);
    }

    // Stats first, promises last: a client that sees its future ready must also see the
    // request reflected in Stats().
    const auto now = std::chrono::steady_clock::now();
    if (tracer != nullptr) {
      // The batch span encloses the per-node spans the executor's tracer hook emitted.
      tracer->RecordSpan(
          "serve", StrFormat("batch %s x%lld", batch[0].model.c_str(),
                             static_cast<long long>(n)),
          batch_begin, now,
          StrFormat("\"model\":\"%s\",\"batch\":%lld", batch[0].model.c_str(),
                    static_cast<long long>(n)));
    }
    for (const ServeRequest& r : batch) {
      const double millis =
          std::chrono::duration<double, std::milli>(now - r.enqueue_time).count();
      latency_.Record(millis);
      lane_latency_[static_cast<int>(r.lane)].Record(millis);
    }
    completed_.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
    batch_runs_.fetch_add(1, std::memory_order_relaxed);
    if (n > 1) {
      batched_samples_.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
    }
    std::int64_t seen = max_batch_.load(std::memory_order_relaxed);
    while (n > seen && !max_batch_.compare_exchange_weak(seen, n)) {
    }
    std::size_t arena_charged = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      arena_charged += batch[i].arena_bytes;
      batch[i].result.set_value(std::move(results[i]));
    }
    // The requests' plan footprints stop counting against the admission cap only once
    // their results are delivered — the cap bounds queued AND executing bytes.
    batcher_.ReleaseArena(arena_charged);
    batch.clear();
  }
}

void InferenceServer::Shutdown() {
  if (stopped_.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  batcher_.Shutdown();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
}

ServerStats InferenceServer::Stats() const {
  ServerStats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.batch_runs = batch_runs_.load(std::memory_order_relaxed);
  stats.batched_samples = batched_samples_.load(std::memory_order_relaxed);
  stats.max_batch_size = max_batch_.load(std::memory_order_relaxed);
  stats.mean_batch_size = stats.batch_runs == 0
                              ? 0.0
                              : static_cast<double>(stats.completed) /
                                    static_cast<double>(stats.batch_runs);
  stats.latency = latency_.Snapshot();
  for (int lane = 0; lane < kNumRequestLanes; ++lane) {
    stats.lane_latency[lane] = lane_latency_[lane].Snapshot();
  }

  stats.queue_depth_now = batcher_.PendingCount();
  stats.queue_limit = options_.batching.queue_limit;
  stats.arena_bytes_cap = options_.batching.arena_bytes_cap;
  const AdmissionStats admission = batcher_.GetAdmissionStats();
  stats.inflight_arena_bytes = admission.inflight_arena_bytes;
  stats.requests_shed_queue_full = admission.sheds_queue_full;
  stats.requests_shed_arena = admission.sheds_arena;
  stats.requests_shed = admission.sheds_queue_full + admission.sheds_arena;
  stats.cross_node_dispatches = admission.cross_node_dispatches;

  stats.num_nodes = num_nodes_;
  stats.num_partitions = static_cast<int>(partitions_.size());

  const EntryTuningStats tuning = registry_.AggregateTuningStats();
  stats.retunes_started = tuning.retunes_started;
  stats.retunes_completed = tuning.retunes_completed;
  stats.retunes_failed = tuning.retunes_failed;
  stats.retunes_deferred = tuning.retunes_deferred;
  stats.tuning_cache = tuning.cache;

  for (const std::string& name : registry_.ModelNames()) {
    ModelEntry* entry = registry_.Find(name);
    if (entry == nullptr) {
      continue;  // racing a re-registration
    }
    const EntryTuningStats entry_tuning = entry->TuningStats();
    ModelServeStats model;
    model.name = name;
    model.retunes_started = entry_tuning.retunes_started;
    model.retunes_completed = entry_tuning.retunes_completed;
    model.retunes_failed = entry_tuning.retunes_failed;
    model.retunes_deferred = entry_tuning.retunes_deferred;
    const NodeProfileSnapshot profile = entry->ProfileSnapshot();
    model.profiled_runs = profile.runs_sampled;
    model.profile_ms_per_run = profile.PerRunMs();
    stats.per_model.push_back(std::move(model));
  }
  return stats;
}

}  // namespace neocpu
