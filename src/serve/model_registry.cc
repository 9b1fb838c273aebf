#include "src/serve/model_registry.h"

#include <set>
#include <utility>

#include "src/base/logging.h"
#include "src/core/serialization.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/runtime/partition.h"
#include "src/runtime/thread_pool.h"
#include "src/runtime/topology.h"

namespace neocpu {

Executor* ModelEntry::Variant::ExecutorFor(int node) const {
  if (node >= 0 && replicas_ready.load(std::memory_order_acquire)) {
    for (const std::unique_ptr<Replica>& replica : replicas) {
      if (replica->node == node) {
        return replica->executor.get();
      }
    }
  }
  return executor.get();
}

bool RetuneBudget::TryAcquire() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (max_concurrent_ > 0 && in_flight_ >= max_concurrent_) {
    ++deferred_;
    return false;
  }
  ++in_flight_;
  peak_ = in_flight_ > peak_ ? in_flight_ : peak_;
  return true;
}

void RetuneBudget::Release() {
  std::lock_guard<std::mutex> lock(mutex_);
  NEOCPU_CHECK_GT(in_flight_, 0);
  --in_flight_;
}

int RetuneBudget::in_flight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return in_flight_;
}

int RetuneBudget::peak_in_flight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return peak_;
}

std::uint64_t RetuneBudget::deferred() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return deferred_;
}

ModelEntry::ModelEntry(std::string name, CompiledModel model) : name_(std::move(name)) {
  const Graph& g = model.graph();
  int num_inputs = 0;
  for (int id = 0; id < g.num_nodes(); ++id) {
    if (g.node(id).type == OpType::kInput) {
      ++num_inputs;
      sample_dims_ = g.node(id).out_dims;
    }
  }
  NEOCPU_CHECK_EQ(num_inputs, 1) << name_ << ": serving requires single-input models";
  NEOCPU_CHECK_EQ(g.outputs().size(), 1u)
      << name_ << ": serving requires single-output models";
  NEOCPU_CHECK(!sample_dims_.empty()) << name_ << ": input has no dims";

  // Normalize the base variant to batch 1 (the per-request granularity). A model
  // registered at batch 1 whose graph refuses rebinding is still servable, just never
  // batched.
  CompiledModel base;
  if (RebindBatch(model, 1, &base)) {
    batchable_ = true;
  } else {
    NEOCPU_CHECK_EQ(sample_dims_[0], 1)
        << name_ << ": graph is not batch-rebindable and was registered at batch "
        << sample_dims_[0];
    base = std::move(model);
    batchable_ = false;
  }
  sample_dims_[0] = 1;

  // The admission controller charges this per admitted request, so the aggregate
  // in-flight plan footprint is a number the server can cap (plan-aware admission).
  arena_bytes_per_sample_ = base.stats().arena_bytes;

  Slot slot;
  slot.tuned = base.stats().tuned_batch == 1;
  slot.current = MakeVariant(std::move(base));
  variants_.emplace(1, std::move(slot));
}

ModelEntry::~ModelEntry() { WaitForRetunes(); }

ModelEntry::VariantPtr ModelEntry::MakeVariant(CompiledModel model) {
  auto variant = std::make_shared<Variant>();
  variant->model = std::make_unique<CompiledModel>(std::move(model));
  // The variant's memory plan rides along: pool workers execute this batch size inside
  // their partition's warm arena with zero per-request allocations.
  variant->executor = std::make_unique<Executor>(&variant->model->graph(),
                                                 /*engine=*/nullptr, variant->model->plan());
  return variant;
}

void ModelEntry::BuildReplicasLocked(const Variant& variant) {
  if (replica_nodes_.empty() || variant.replicas_ready.load(std::memory_order_acquire)) {
    return;
  }
  const CpuTopology& topology = HostTopology();
  for (int node : replica_nodes_) {
    auto replica = std::make_unique<Variant::Replica>();
    replica->node = node;
    // Node headers copy cheaply; the constant payloads still share the base's buffers
    // until the pinned builder thread below deep-clones them.
    replica->graph = variant.model->graph();
    // Clone on a thread pinned to the replica's node: the clone's allocation is
    // first-touched by the copy itself, so the weight pages land node-locally. Nodes
    // the host doesn't have (forced test layouts) clone unpinned — still a distinct
    // copy, exercising the exact serving path.
    Graph* graph = &replica->graph;
    const int bind_cpu = topology.FirstCpuOfNode(node);
    std::thread builder([graph, bind_cpu] {
      if (bind_cpu >= 0) {
        BindCurrentThreadToCpu(bind_cpu);
      }
      for (int id = 0; id < graph->num_nodes(); ++id) {
        Node& n = graph->node(id);
        if (n.type == OpType::kConstant && n.payload.defined()) {
          n.payload = n.payload.Clone();
        }
      }
    });
    builder.join();
    replica->executor = std::make_unique<Executor>(&replica->graph, /*engine=*/nullptr,
                                                   variant.model->plan());
    variant.replicas.push_back(std::move(replica));
  }
  variant.replicas_ready.store(true, std::memory_order_release);
}

ModelEntry::VariantPtr ModelEntry::VariantFor(std::int64_t batch) {
  NEOCPU_CHECK_GE(batch, 1);
  VariantPtr result;
  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = variants_.find(batch);
    if (it == variants_.end()) {
      NEOCPU_CHECK(batchable_) << name_ << ": batch " << batch
                               << " on a non-batchable model";
      const CompiledModel& base = *variants_.at(1).current->model;
      CompiledModel rebound;
      NEOCPU_CHECK(RebindBatch(base, batch, &rebound))
          << name_ << ": rebind to batch " << batch << " failed";
      Slot slot;
      // A rebind is "already tuned" only when the base's schedules were searched at
      // exactly this batch size.
      slot.tuned = rebound.stats().tuned_batch == batch;
      slot.current = MakeVariant(std::move(rebound));
      BuildReplicasLocked(*slot.current);
      AttachObservabilityLocked(*slot.current);
      it = variants_.emplace(batch, std::move(slot)).first;
    }
    Slot& slot = it->second;
    if (!slot.tuned && !slot.retune_inflight && retune_options_.enabled && batchable_) {
      // Registry-wide concurrency budget: when spent, DEFER rather than queue — the
      // slot stays untuned and the next request for this batch size retries, so hot
      // batch sizes naturally win the budget under churn. (Duplicate in-flight
      // re-tunes for one (model, batch) are already coalesced by retune_inflight.)
      const std::shared_ptr<RetuneBudget> budget = retune_options_.budget;
      if (budget != nullptr && !budget->TryAcquire()) {
        retunes_deferred_.fetch_add(1, std::memory_order_relaxed);
        MetricsRegistry::Global()
            .GetCounter("neocpu_retunes_deferred_total",
                        "Re-tunes skipped because the registry budget was spent")
            ->Increment();
      } else {
        // With nothing in flight, every thread in the vector has finished its work;
        // reap them (joins return ~immediately) so a long-lived server does not
        // accumulate one unjoined thread per batch size ever seen.
        if (retunes_inflight_ == 0) {
          finished.swap(retune_threads_);
        }
        slot.retune_inflight = true;
        ++retunes_inflight_;
        retunes_started_.fetch_add(1, std::memory_order_relaxed);
        retune_threads_.emplace_back([this, batch, budget] {
          RetuneSlot(batch);
          if (budget != nullptr) {
            budget->Release();
          }
        });
      }
    }
    result = slot.current;
  }
  for (std::thread& t : finished) {
    if (t.joinable()) {
      t.join();
    }
  }
  return result;
}

void ModelEntry::RetuneSlot(std::int64_t batch) {
  VariantPtr base;
  RetuneOptions opts;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    base = variants_.at(1).current;
    opts = retune_options_;
  }
  // The engine lives in this background thread: re-tunes run off the serving executors'
  // partitions. The measured-mode tuning partition hands its exact cpu slice through
  // opts.cpus — the engine (and this thread, as its worker 0) binds there, so
  // real-hardware timings never run on cores serving traffic.
  std::unique_ptr<ThreadEngine> engine;
  if (!opts.cpus.empty()) {
    const CorePartition tuning_slice{opts.cpus.front(),
                                     static_cast<int>(opts.cpus.size()), 0, opts.cpus};
    engine = MakePartitionEngine(tuning_slice, opts.bind_threads);
  } else if (opts.num_workers > 1) {
    engine = std::make_unique<NeoThreadPool>(opts.num_workers, opts.bind_threads,
                                             opts.core_offset);
  } else {
    engine = std::make_unique<SerialEngine>();
  }
  // Measured mode flips the cost model to real-hardware timings for this re-tune; the
  // winners are keyed kMeasured in the shared cache, so they coexist with (never
  // overwrite) the analytic entries and every future compile against the shared cache
  // in measured mode is a pure lookup — the promotion.
  CompileConfig measured_config;
  const CompileConfig* config_override = nullptr;
  if (opts.measured) {
    measured_config = base->model->config();
    measured_config.cost_mode = CostMode::kMeasured;
    config_override = &measured_config;
  }
  CompiledModel tuned;
  const bool ok =
      RetuneForBatch(*base->model, batch, engine.get(), &tuned, config_override);
  // Build the replacement variant before taking the lock: only the pointer swap needs
  // the mutex, not the executor construction.
  VariantPtr replacement = ok ? MakeVariant(std::move(tuned)) : nullptr;

  std::lock_guard<std::mutex> lock(mutex_);
  Slot& slot = variants_.at(batch);
  slot.retune_inflight = false;
  --retunes_inflight_;
  if (ok) {
    slot.current = std::move(replacement);  // hot swap; old variant drains via shared_ptr
    BuildReplicasLocked(*slot.current);
    AttachObservabilityLocked(*slot.current);
    slot.tuned = true;
    retunes_completed_.fetch_add(1, std::memory_order_relaxed);
    MetricsRegistry::Global()
        .GetCounter("neocpu_retunes_completed_total",
                    "Background per-batch re-tunes that hot-swapped a variant")
        ->Increment();
    if (opts.measured) {
      measured_promoted_.fetch_add(1, std::memory_order_relaxed);
      MetricsRegistry::Global()
          .GetCounter("neocpu_measured_retunes_promoted_total",
                      "Measured-mode re-tunes whose winners entered the shared cache")
          ->Increment();
    }
  } else {
    slot.tuned = true;  // don't retry a model that cannot be re-tuned
    retunes_failed_.fetch_add(1, std::memory_order_relaxed);
    MetricsRegistry::Global()
        .GetCounter("neocpu_retunes_failed_total",
                    "Background per-batch re-tunes that could not produce a variant")
        ->Increment();
  }
}

void ModelEntry::ConfigureRetune(const RetuneOptions& options) {
  std::lock_guard<std::mutex> lock(mutex_);
  retune_options_ = options;
}

void ModelEntry::ConfigureReplicas(const std::vector<int>& nodes) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!replica_nodes_.empty()) {
    return;  // replication is configured once (the server does it at startup)
  }
  replica_nodes_ = nodes;
  for (auto& [batch, slot] : variants_) {
    BuildReplicasLocked(*slot.current);
    // Re-attach so the replicas' executors pick up the profiler/tracer too.
    AttachObservabilityLocked(*slot.current);
  }
}

void ModelEntry::AttachObservabilityLocked(const Variant& variant) {
  // variant is shared as const, but its executor is reached through a const
  // unique_ptr whose pointee stays mutable — and the hook setters are atomic
  // stores, safe against Runs already in flight.
  NodeProfiler* profiler = nullptr;
  if (profile_sample_rate_ > 0) {
    auto owned = std::make_unique<NodeProfiler>(profile_sample_rate_);
    owned->RegisterGraph(variant.model->graph());
    profiler = owned.get();
    profilers_.push_back(std::move(owned));
  }
  variant.executor->SetProfiler(profiler);
  variant.executor->SetTracer(tracer_);
  // Replicas execute the same node ids, so they share the variant's profiler — the
  // snapshot aggregates all nodes' executions regardless of which replica ran them.
  for (const std::unique_ptr<Variant::Replica>& replica : variant.replicas) {
    replica->executor->SetProfiler(profiler);
    replica->executor->SetTracer(tracer_);
  }
}

void ModelEntry::ConfigureProfiling(std::uint32_t sample_rate) {
  std::lock_guard<std::mutex> lock(mutex_);
  profile_sample_rate_ = sample_rate;
  for (auto& [batch, slot] : variants_) {
    AttachObservabilityLocked(*slot.current);
  }
}

void ModelEntry::ConfigureTracing(TraceRecorder* tracer) {
  std::lock_guard<std::mutex> lock(mutex_);
  tracer_ = tracer;
  for (auto& [batch, slot] : variants_) {
    slot.current->executor->SetTracer(tracer_);
    for (const std::unique_ptr<Variant::Replica>& replica : slot.current->replicas) {
      replica->executor->SetTracer(tracer_);
    }
  }
}

NodeProfileSnapshot ModelEntry::ProfileSnapshot() const {
  std::vector<NodeProfileSnapshot> parts;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    parts.reserve(profilers_.size());
    for (const std::unique_ptr<NodeProfiler>& profiler : profilers_) {
      parts.push_back(profiler->Snapshot());
    }
  }
  return MergeProfileSnapshots(parts);
}

void ModelEntry::WaitForRetunes() {
  for (;;) {
    std::vector<std::thread> threads;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      threads.swap(retune_threads_);
    }
    if (threads.empty()) {
      return;
    }
    for (std::thread& t : threads) {
      if (t.joinable()) {
        t.join();
      }
    }
  }
}

EntryTuningStats ModelEntry::TuningStats() const {
  EntryTuningStats stats;
  stats.retunes_started = retunes_started_.load(std::memory_order_relaxed);
  stats.retunes_completed = retunes_completed_.load(std::memory_order_relaxed);
  stats.retunes_failed = retunes_failed_.load(std::memory_order_relaxed);
  stats.retunes_deferred = retunes_deferred_.load(std::memory_order_relaxed);
  stats.measured_retunes_promoted = measured_promoted_.load(std::memory_order_relaxed);
  if (std::shared_ptr<TuningCache> cache = tuning_cache()) {
    stats.cache = cache->Stats();
  }
  return stats;
}

std::shared_ptr<TuningCache> ModelEntry::tuning_cache() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return variants_.at(1).current->model->tuning();
}

ModelEntry* ModelRegistry::Register(std::string name, CompiledModel model) {
  // Fold the model's own tuning into the registry-wide cache and serve from that one
  // cache from here on: re-tunes for workloads any registered model already searched
  // become pure lookups.
  if (model.tuning() != shared_cache_) {
    shared_cache_->MergeFrom(*model.tuning());
    model.ReplaceTuningCache(shared_cache_);
  }
  auto entry = std::make_unique<ModelEntry>(name, std::move(model));
  ModelEntry* raw = entry.get();
  std::lock_guard<std::mutex> lock(mutex_);
  entry->ConfigureRetune(retune_options_);
  if (!replica_nodes_.empty()) {
    entry->ConfigureReplicas(replica_nodes_);
  }
  if (profile_sample_rate_ > 0) {
    entry->ConfigureProfiling(profile_sample_rate_);
  }
  if (tracer_ != nullptr) {
    entry->ConfigureTracing(tracer_);
  }
  std::unique_ptr<ModelEntry>& slot = entries_[std::move(name)];
  if (slot != nullptr) {
    retired_.push_back(std::move(slot));  // may still be referenced by in-flight work
  }
  slot = std::move(entry);
  return raw;
}

ModelEntry* ModelRegistry::RegisterFromFile(std::string name, const std::string& path) {
  CompiledModel model;
  if (!LoadModule(path, &model)) {
    LOG(ERROR) << "failed to load module '" << path << "' for model '" << name << "'";
    return nullptr;
  }
  return Register(std::move(name), std::move(model));
}

ModelEntry* ModelRegistry::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second.get();
}

std::vector<std::string> ModelRegistry::ModelNames() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    names.push_back(name);
  }
  return names;
}

void ModelRegistry::ConfigureRetune(const RetuneOptions& options) {
  std::lock_guard<std::mutex> lock(mutex_);
  retune_options_ = options;
  // One budget shared by every entry (current and future): the cap is registry-wide.
  if (retune_options_.max_concurrent_retunes > 0 && retune_options_.budget == nullptr) {
    retune_options_.budget =
        std::make_shared<RetuneBudget>(retune_options_.max_concurrent_retunes);
  }
  for (const auto& [name, entry] : entries_) {
    entry->ConfigureRetune(retune_options_);
  }
}

void ModelRegistry::ConfigureReplicas(const std::vector<int>& nodes) {
  std::lock_guard<std::mutex> lock(mutex_);
  replica_nodes_ = nodes;
  for (const auto& [name, entry] : entries_) {
    entry->ConfigureReplicas(nodes);
  }
}

void ModelRegistry::ConfigureProfiling(std::uint32_t sample_rate) {
  std::lock_guard<std::mutex> lock(mutex_);
  profile_sample_rate_ = sample_rate;
  for (const auto& [name, entry] : entries_) {
    entry->ConfigureProfiling(sample_rate);
  }
}

void ModelRegistry::ConfigureTracing(TraceRecorder* tracer) {
  std::lock_guard<std::mutex> lock(mutex_);
  tracer_ = tracer;
  for (const auto& [name, entry] : entries_) {
    entry->ConfigureTracing(tracer);
  }
}

EntryTuningStats ModelRegistry::AggregateTuningStats() const {
  std::vector<ModelEntry*> entries;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    entries.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) {
      entries.push_back(entry.get());
    }
  }
  EntryTuningStats total;
  // Models may share one TuningCache (e.g. compiled against a common cache); count
  // each distinct cache once or shared caches would be multiply counted.
  std::set<const TuningCache*> seen_caches;
  for (ModelEntry* entry : entries) {
    const EntryTuningStats stats = entry->TuningStats();
    total.retunes_started += stats.retunes_started;
    total.retunes_completed += stats.retunes_completed;
    total.retunes_failed += stats.retunes_failed;
    total.retunes_deferred += stats.retunes_deferred;
    total.measured_retunes_promoted += stats.measured_retunes_promoted;
    const std::shared_ptr<TuningCache> cache = entry->tuning_cache();
    if (cache != nullptr && seen_caches.insert(cache.get()).second) {
      total.cache.hits += stats.cache.hits;
      total.cache.misses += stats.cache.misses;
      total.cache.inserts += stats.cache.inserts;
      total.cache.entries += stats.cache.entries;
    }
  }
  return total;
}

void ModelRegistry::WaitForRetunes() {
  std::vector<ModelEntry*> entries;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    entries.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) {
      entries.push_back(entry.get());
    }
  }
  for (ModelEntry* entry : entries) {
    entry->WaitForRetunes();
  }
}

}  // namespace neocpu
