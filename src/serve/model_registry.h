// Compiled-model registry for the inference server.
//
// Each entry owns a compiled model plus lazily materialized batch-size variants. A
// variant starts life as a RebindBatch derivative — the optimized structure, chosen
// schedules, and pre-transformed weight payloads of the base model reused at the new
// batch, which costs microseconds but executes schedules *tuned for the base batch*.
// VariantFor therefore serves the rebound variant immediately and kicks off a
// background re-tune for that exact batch size; once RetuneForBatch finishes, the
// per-batch-tuned variant is hot-swapped in and all subsequent batches of that size
// execute schedules searched for their own batch.
// Variants are handed out as shared_ptr so a hot swap never invalidates an executor a
// pool worker is mid-flight on.
//
// Warm start: RegisterFromFile loads a module produced by SaveModule
// (core/serialization), so a server restart skips calibration and search entirely:
// loading re-lowers the model from the module's TuningCache, and the per-batch tunings
// ride along in that cache (a post-restart "re-tune" of a previously seen batch is a
// pure cache lookup).
#ifndef NEOCPU_SRC_SERVE_MODEL_REGISTRY_H_
#define NEOCPU_SRC_SERVE_MODEL_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/core/compiler.h"
#include "src/core/executor.h"
#include "src/obs/node_profiler.h"

namespace neocpu {

class TraceRecorder;

// Concurrency budget shared by every entry of one registry: caps how many background
// re-tunes run simultaneously so a batch-size churn storm (many models x many new
// batch sizes at once) cannot fan out into unbounded tuning threads. A re-tune that
// finds the budget exhausted is DEFERRED, not queued: the slot stays untuned and the
// next request for that batch size retries — re-tunes are traffic-driven, so hot batch
// sizes win the budget.
class RetuneBudget {
 public:
  explicit RetuneBudget(int max_concurrent) : max_concurrent_(max_concurrent) {}

  bool TryAcquire();
  void Release();

  int in_flight() const;
  int peak_in_flight() const;
  std::uint64_t deferred() const;

 private:
  mutable std::mutex mutex_;
  const int max_concurrent_;
  int in_flight_ = 0;
  int peak_ = 0;
  std::uint64_t deferred_ = 0;
};

// How a ModelEntry runs background per-batch re-tunes.
struct RetuneOptions {
  bool enabled = true;
  // Workers for the re-tune's thread engine (measured-mode tuning benefits; analytic
  // mode ignores it). 1 keeps the re-tune on a single spare core.
  int num_workers = 1;
  // Core the re-tune engine starts binding at — point it at a spare partition so
  // re-tunes don't steal cycles from serving executors. Binding only happens with
  // bind_threads; unpinned re-tunes timeshare politely.
  int core_offset = 0;
  bool bind_threads = false;
  // Explicit cpu ids for the re-tune engine — the measured-mode tuning partition
  // (src/runtime/partition.h PlanServingAndTuning). Non-empty overrides num_workers /
  // core_offset: the engine gets exactly these cpus, pinned when bind_threads.
  std::vector<int> cpus;
  // Run re-tunes in MEASURED cost mode (real-hardware kernel timings) instead of the
  // model's compile-time mode. Winners land under kMeasured workload keys in the
  // shared TuningCache — the promotion the dedicated tuning partition exists for.
  // Only sane together with a dedicated `cpus` slice; measured timings taken on cores
  // serving traffic would be noise and would perturb serving tails.
  bool measured = false;
  // Registry-wide cap on concurrent re-tunes (0 = unlimited). ModelRegistry
  // materializes `budget` from this when it configures its entries; standalone
  // ModelEntry users may share a budget across entries themselves.
  int max_concurrent_retunes = 0;
  std::shared_ptr<RetuneBudget> budget;
};

// Per-entry tuning observability (see also TuningCache::Stats for cache traffic).
struct EntryTuningStats {
  std::uint64_t retunes_started = 0;
  std::uint64_t retunes_completed = 0;
  std::uint64_t retunes_failed = 0;
  std::uint64_t retunes_deferred = 0;  // skipped because the registry budget was spent
  // Completed MEASURED-mode re-tunes: real-hardware winners promoted into the shared
  // cache by the tuning partition.
  std::uint64_t measured_retunes_promoted = 0;
  TuningCacheStats cache;  // zeroed when the model carries no tuning cache
};

class ModelEntry {
 public:
  // `model` must be single-input single-output (the serving batcher merges along the
  // one input). Checked fatally.
  ModelEntry(std::string name, CompiledModel model);
  ~ModelEntry();  // joins in-flight re-tune threads

  const std::string& name() const { return name_; }
  // Per-request input dims: the registered graph's input dims with leading dim 1.
  const std::vector<std::int64_t>& sample_dims() const { return sample_dims_; }
  // False when the graph cannot be batch-rebound (e.g. SSD's detection head); such
  // models always run one request at a time.
  bool batchable() const { return batchable_; }
  // Planned arena footprint of the batch-1 variant (CompileStats::arena_bytes): the
  // per-request unit the admission controller charges against its arena-bytes cap.
  std::size_t arena_bytes_per_sample() const { return arena_bytes_per_sample_; }

  struct Variant {
    std::unique_ptr<CompiledModel> model;
    std::unique_ptr<Executor> executor;  // engine-less; pass one per Run call

    // Per-NUMA-node weight replica: the same executable graph with every constant
    // payload deep-cloned by a thread pinned to the replica's node, so first-touch
    // places the weight pages node-locally. Structure, schedules, and the memory plan
    // are shared with the base — only the read-only payload bytes are duplicated.
    struct Replica {
      int node = -1;
      Graph graph;
      std::unique_ptr<Executor> executor;
    };
    // Built once, off the serving path, then read-only; `replicas_ready` publishes
    // the list so in-flight Runs racing the build simply use the base executor.
    // Mutable because variants circulate as shared_ptr<const Variant> and the build
    // happens after publication (guarded by the owning entry's mutex).
    mutable std::vector<std::unique_ptr<Replica>> replicas;
    mutable std::atomic<bool> replicas_ready{false};

    // The executor a partition homed on `node` should Run: the node's replica when
    // one exists, else the base. Zero allocations; safe concurrently with the build.
    Executor* ExecutorFor(int node) const;
  };
  using VariantPtr = std::shared_ptr<const Variant>;

  // Returns the variant executing at batch size `batch`, materializing (and caching) a
  // rebound variant on first use and scheduling its background re-tune. The returned
  // pointer keeps the variant alive across hot swaps; callers hold it for the duration
  // of a Run. Thread-safe. Dies if batch > 1 on a non-batchable model.
  VariantPtr VariantFor(std::int64_t batch);

  void ConfigureRetune(const RetuneOptions& options);

  // Replicates read-only constant weights onto each listed NUMA node: every current
  // and future variant of this entry grows one node-local weight replica per node
  // (ExecutorFor picks it by the executing partition's home node). Replication runs
  // here and at variant materialization / re-tune hot-swap — never on the serving
  // path — so steady-state execution stays zero-alloc. Nodes absent from the host
  // topology still replicate (tests force multi-node layouts on one-node hosts);
  // their builder threads just don't pin.
  void ConfigureReplicas(const std::vector<int>& nodes);

  // Per-node profiling across every batch variant of this entry. `sample_rate` N times
  // one Run in N per variant (0 disables). Takes effect immediately on live variants —
  // executors mid-flight pick the profiler up on their next Run — and automatically
  // covers variants materialized or hot-swapped later. Profilers for replaced variants
  // are retained, so ProfileSnapshot() aggregates the entry's whole profiled history.
  void ConfigureProfiling(std::uint32_t sample_rate);
  // Chrome-trace spans for every node execution (obs/trace). `tracer` is borrowed and
  // must outlive the entry or be detached with nullptr first.
  void ConfigureTracing(TraceRecorder* tracer);
  // Merged per-node profile over all variants (empty when profiling is off).
  NodeProfileSnapshot ProfileSnapshot() const;

  // Blocks until every re-tune scheduled so far has finished (tests; graceful drain).
  void WaitForRetunes();

  EntryTuningStats TuningStats() const;
  // The model's shared schedule cache.
  std::shared_ptr<TuningCache> tuning_cache() const;

 private:
  struct Slot {
    VariantPtr current;
    bool tuned = false;            // current executes schedules searched for its batch
    bool retune_inflight = false;  // a background re-tune for this batch is running
  };

  static VariantPtr MakeVariant(CompiledModel model);
  // Builds one node-local weight replica per configured node into `variant`. Called
  // with mutex_ held, before (or as) the variant enters service; no-op when already
  // replicated or no nodes are configured.
  void BuildReplicasLocked(const Variant& variant);
  // Runs in a background thread: re-tunes `batch` and hot-swaps the slot on success.
  void RetuneSlot(std::int64_t batch);
  // Attaches a fresh profiler (when profiling is on) and the tracer to a variant's
  // executor. Call with mutex_ held, on every variant entering service.
  void AttachObservabilityLocked(const Variant& variant);

  std::string name_;
  std::vector<std::int64_t> sample_dims_;
  bool batchable_ = false;
  std::size_t arena_bytes_per_sample_ = 0;

  mutable std::mutex mutex_;
  std::map<std::int64_t, Slot> variants_;
  RetuneOptions retune_options_;
  std::vector<int> replica_nodes_;  // NUMA nodes to replicate weights onto
  std::uint32_t profile_sample_rate_ = 0;  // 0 = profiling off; guarded by mutex_
  TraceRecorder* tracer_ = nullptr;        // borrowed; guarded by mutex_
  // One profiler per profiled variant, kept past hot swaps so snapshots cover history.
  std::vector<std::unique_ptr<NodeProfiler>> profilers_;
  std::vector<std::thread> retune_threads_;
  std::uint64_t retunes_inflight_ = 0;  // guarded by mutex_; gates thread reaping
  std::atomic<std::uint64_t> retunes_started_{0};
  std::atomic<std::uint64_t> retunes_completed_{0};
  std::atomic<std::uint64_t> retunes_failed_{0};
  std::atomic<std::uint64_t> retunes_deferred_{0};
  std::atomic<std::uint64_t> measured_promoted_{0};
};

class ModelRegistry {
 public:
  // Registers under `name`; replaces any existing entry with that name. Returns the
  // entry (stable address for the registry's lifetime).
  //
  // Cache sharing: every registered model is re-pointed at ONE registry-wide
  // TuningCache (its own cache's entries are merged in first), so identical conv
  // workloads across models are searched once — model B's background re-tune of a
  // batch model A already tuned is a pure cache lookup.
  ModelEntry* Register(std::string name, CompiledModel model);

  // The registry-wide schedule cache shared by all entries.
  std::shared_ptr<TuningCache> shared_tuning_cache() const { return shared_cache_; }

  // Warm start from a serialized module (SaveModule artifact). Returns nullptr, with
  // the reason logged, when LoadModule rejects the file.
  ModelEntry* RegisterFromFile(std::string name, const std::string& path);

  // Nullptr when unknown.
  ModelEntry* Find(const std::string& name) const;

  std::vector<std::string> ModelNames() const;

  // Applied to every current and future entry (the server points re-tunes at a spare
  // partition once it knows its own core plan).
  void ConfigureRetune(const RetuneOptions& options);

  // Replicates every entry's constant weights onto each listed NUMA node (see
  // ModelEntry::ConfigureReplicas). Applied to current and future entries; the server
  // calls this with its serving partitions' home nodes when the plan spans nodes.
  void ConfigureReplicas(const std::vector<int>& nodes);

  // Per-node profiling / tracing applied to every current and future entry (see
  // ModelEntry::ConfigureProfiling / ConfigureTracing).
  void ConfigureProfiling(std::uint32_t sample_rate);
  void ConfigureTracing(TraceRecorder* tracer);

  // Sum of per-entry tuning stats across all registered models.
  EntryTuningStats AggregateTuningStats() const;

  // Blocks until every background re-tune across all entries has finished.
  void WaitForRetunes();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<ModelEntry>> entries_;
  // One schedule cache for the whole registry (created eagerly; immutable pointer, so
  // it is safe to hand out without the mutex).
  const std::shared_ptr<TuningCache> shared_cache_ = std::make_shared<TuningCache>();
  RetuneOptions retune_options_;
  std::vector<int> replica_nodes_;
  std::uint32_t profile_sample_rate_ = 0;
  TraceRecorder* tracer_ = nullptr;
  // Entries displaced by a same-name Register. Kept alive for the registry's lifetime:
  // in-flight requests (and pool workers mid-batch) hold raw ModelEntry pointers, so
  // destroying a displaced entry eagerly would be a use-after-free. Re-registration is
  // rare (model rollout), so the leak-until-shutdown is bounded and deliberate.
  std::vector<std::unique_ptr<ModelEntry>> retired_;
};

}  // namespace neocpu

#endif  // NEOCPU_SRC_SERVE_MODEL_REGISTRY_H_
