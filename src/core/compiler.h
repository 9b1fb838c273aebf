// The NeoCPU compiler: turns a model graph into an optimized, executable module.
//
// Pipeline: SimplifyInference → FuseOps → schedule selection (per LayoutMode) →
// AlterConvLayout (+ compile-time weight pre-transformation) → executable graph.
//
// LayoutMode is the ablation axis of the paper's Table 3:
//   kNCHW          — row 1 "Baseline": default layout, the reference direct loop (or
//                    `forced_algo`: im2col, Winograd), no search; fusion and inference
//                    simplification still applied.
//   kNCHWcPerOp    — row 2 "Layout Opt.": every conv uses the NCHW[x]c template but
//                    transforms its input/output from/to NCHW (what a framework
//                    delegating to a fixed kernel library does).
//   kNCHWcFixed    — row 3 "Transform Elim.": one global split factor; the blocked
//                    layout flows through the graph; transforms only at the boundaries.
//   kNCHWcGlobal   — row 4 "Global Search": per-conv schemes chosen by the DP/PBQP
//                    global search over local-search candidates (§3.3).
//   kNCHWcLocal    — extra ablation: greedy per-conv local optimum, ignoring transform
//                    costs (the pitfall §3.3.1 warns about).
// In every mode each dense with a constant 2-D weight runs the packed GEMM: the two
// searched modes (kNCHWcGlobal, kNCHWcLocal) rank its blocking per layer, and the
// other three run it at the fixed "library" blocking GemmSchedule{}.
//
// Every per-conv decision is keyed by WorkloadKey — the conv shape *including the batch
// size* plus target/cost/space mode — and memoized in a shared TuningCache, so schedules
// tuned for one batch size never masquerade as schedules for another. A CompiledModel
// carries its fused pre-layout source graph, its compile configuration and its tuning
// cache, which is what lets RetuneForBatch re-run schedule selection for a different
// batch size at runtime (the serving tier's background per-batch re-tuning).
#ifndef NEOCPU_SRC_CORE_COMPILER_H_
#define NEOCPU_SRC_CORE_COMPILER_H_

#include <memory>
#include <string>

#include "src/base/logging.h"
#include "src/core/executor.h"
#include "src/core/memory_plan.h"
#include "src/core/target.h"
#include "src/graph/graph.h"
#include "src/obs/node_profiler.h"
#include "src/tuning/tuning_cache.h"

namespace neocpu {

enum class LayoutMode { kNCHW, kNCHWcPerOp, kNCHWcFixed, kNCHWcLocal, kNCHWcGlobal };

const char* LayoutModeName(LayoutMode mode);

// The schedule-selection configuration a compiled model was produced under. Persisted
// with the module (core/serialization) so a warm-started model can re-tune new batch
// sizes under the exact same policy it was originally compiled with.
struct CompileConfig {
  LayoutMode layout_mode = LayoutMode::kNCHWcGlobal;
  Target target = Target::Host();
  CostMode cost_mode = CostMode::kAnalytic;
  bool quick_space = true;  // prune channel-factor candidates (see schedule_space.h)
  std::size_t max_dp_table_entries = 1 << 22;
  // Forced convolution algorithm (baselines / ablation / testing): every conv that can
  // legally execute `forced_algo` gets it as its schedule instead of the selected one;
  // convs where it is illegal (Winograd on non-3x3-s1 shapes or fused residual adds)
  // keep the selected schedule. Under the NCHWc layout modes that is the searched
  // choice; kNCHW mode runs no search, gives every conv the reference loop, and only
  // the NCHW-layout algorithms (im2col, Winograd, reference) override it. Lowering
  // records the resulting ConvSchedule on each conv, and dispatch reads it.
  bool force_algo = false;
  ConvAlgo forced_algo = ConvAlgo::kDirectNCHWc;
  // Post-training int8 quantization. With `quantize`, compilation calibrates the fused
  // source graph on sample inputs (CompileOptions::calibration_inputs, or a
  // deterministic synthetic batch), ranks the int8 schedule space (u8 activations x
  // s8 weights) next to fp32 in every local search, and lets the global/local
  // selection choose fp32-vs-int8 per conv under quantize/dequantize boundary costs.
  // int8 is offered only on a target with a VNNI dot product (Target::vnni_dot), where
  // it can beat f32, and only under the kNCHWcGlobal and kNCHWcLocal modes (the
  // fixed-block modes are fp32 paper ablations). `force_quantize` also admits int8 on
  // targets without VNNI (the portable tier) and overrides the cost comparison: every
  // int8-legal conv takes its best int8 schedule (accuracy testing, int8 CI zoo); a
  // conv with no legal int8 blocking (e.g. a 126-channel SSD class head) keeps its f32
  // schedule. The 3-channel image stem quantizes too, over input channels padded to a
  // quad by the image's one quantize pass (QuantizeGraph). Serving re-tunes inherit
  // both flags through the persisted config, so per-batch re-tunes re-select quantized
  // schedules.
  bool quantize = false;
  bool force_quantize = false;
  // How activation ranges observed during calibration become quantization ranges:
  // straight min/max, a percentile clip (drops the extreme 0.1% tail mass), or an
  // entropy (KL) scan that picks the clip threshold losing the least information.
  CalibrationPolicy calibration_policy = CalibrationPolicy::kMinMax;
  // Also quantize dense (fully-connected) layers: dense nodes whose u8 packed-GEMM
  // search beats their f32 one (plus the Q/DQ boundary cost) take the u8*s8 kernel
  // with requantization, the one quantized dense path; every other dense runs in f32.
  // Off by default: the classifier head is small and accuracy-sensitive.
  bool quantize_dense = false;
  // Unused: u8 is the only quantized activation dtype, and the compiler never reads
  // this field. It stays declared only because perfbench/cnn_workload.cc assigns it;
  // a later change to the benchmark deletes the field together with that line.
  DType force_quant_dtype = DType::kF32;
};

struct CompileOptions : CompileConfig {
  // Single source of schedule truth, shared across models, batch sizes and the serving
  // tier's background re-tunes. Compile creates a private cache when none is given.
  std::shared_ptr<TuningCache> tuning_cache;
  ThreadEngine* engine = nullptr;  // used for measured tuning during compilation
  bool verbose = false;
  // Sample inputs for quantization calibration (ignored unless `quantize`): each is run
  // through the fp32 source graph with a range observer. Empty = one deterministic
  // synthetic batch per graph input.
  std::vector<Tensor> calibration_inputs;
};

struct CompileStats {
  double compile_seconds = 0.0;
  double tuning_seconds = 0.0;   // local search
  double search_seconds = 0.0;   // global DP / PBQP
  bool used_global_search = false;
  bool used_exact_dp = false;    // false + used_global_search => PBQP approximation
  int num_convs = 0;
  int num_layout_transforms = 0;  // runtime transform nodes left in the final graph
  int num_quantized_convs = 0;    // convs the selection assigned an int8 schedule
  int num_dense = 0;              // dense nodes lowered to the packed GEMM
  int num_quantized_dense = 0;    // of those, how many chose the u8 kernel
  double predicted_cost_ms = 0.0;  // global-search objective value (model units)

  // Per-batch tuning record: the batch size the chosen schedules were actually searched
  // at. A RebindBatch derivative keeps the original tuned_batch (its schedules still
  // come from the old batch); only Compile/RetuneForBatch set it to the executing batch.
  std::int64_t tuned_batch = 0;
  bool retuned = false;  // produced by RetuneForBatch rather than an initial Compile
  // TuningCache traffic attributable to this compilation's local searches.
  std::uint64_t tuning_cache_hits = 0;
  std::uint64_t tuning_cache_misses = 0;

  // Static memory planning (core/memory_plan). arena_bytes is the planned peak arena
  // footprint; naive_arena_bytes is what a heap-only plan would malloc per Run for the
  // same buffers (sum of intermediates + workspaces, no reuse). arena_bytes <=
  // naive_arena_bytes always; the gap is the planner's buffer-reuse win.
  std::size_t arena_bytes = 0;
  std::size_t naive_arena_bytes = 0;
};

// A compiled model is its fused source graph, compile configuration and tuning state;
// the executable graph is derived from them by Compile, RetuneForBatch or LoadModule.
// The constructor plans the executable graph's memory (core/memory_plan) and records
// the footprint in stats(), so plan() is never null.
class CompiledModel {
 public:
  CompiledModel()
      : CompiledModel(Graph(), CompileStats(), Graph(), CompileConfig(),
                      std::make_shared<TuningCache>()) {}
  // `source` is the fused pre-layout graph `graph` was lowered from (original NCHW
  // weights; payload buffers shared, not copied).
  CompiledModel(Graph graph, CompileStats stats, Graph source, CompileConfig config,
                std::shared_ptr<TuningCache> tuning)
      : graph_(std::move(graph)),
        stats_(stats),
        source_(std::move(source)),
        config_(std::move(config)),
        tuning_(std::move(tuning)) {
    plan_ = std::make_shared<const ExecutionPlan>(PlanMemory(graph_));
    stats_.arena_bytes = plan_->arena_bytes;
    stats_.naive_arena_bytes = plan_->naive_bytes;
  }

  // Runs inference. `engine` is borrowed; null runs serially.
  Tensor Run(const Tensor& input, ThreadEngine* engine = nullptr) const {
    Executor exec(&graph_, engine, plan_);
    exec.SetProfiler(profiler_.get());
    return exec.Run(input);
  }

  // Per-node profiling for the convenience Run path above (serving builds its own
  // per-variant profilers against long-lived executors instead). Every sample_rate-th
  // Run is timed node by node; Snapshot() aggregates. The profiler is shared, so
  // RebindBatch-style copies of the model keep feeding the same aggregate.
  void EnableProfiling(std::uint32_t sample_rate = 1) {
    auto profiler = std::make_shared<NodeProfiler>(sample_rate);
    profiler->RegisterGraph(graph_);
    profiler_ = std::move(profiler);
  }
  void DisableProfiling() { profiler_.reset(); }
  NodeProfiler* profiler() const { return profiler_.get(); }
  // Empty snapshot when profiling was never enabled.
  NodeProfileSnapshot ProfileSnapshot() const {
    return profiler_ != nullptr ? profiler_->Snapshot() : NodeProfileSnapshot{};
  }

  const Graph& graph() const { return graph_; }
  const CompileStats& stats() const { return stats_; }

  // The fused pre-layout graph schedule re-selection starts from.
  const Graph& source_graph() const { return source_; }
  const CompileConfig& config() const { return config_; }
  const std::shared_ptr<TuningCache>& tuning() const { return tuning_; }

  // Static memory plan for this model's executable graph (one per batch variant; see
  // core/memory_plan).
  const std::shared_ptr<const ExecutionPlan>& plan() const { return plan_; }

  // Re-points the model at a different schedule cache (the serving registry's shared
  // per-registry cache).
  void ReplaceTuningCache(std::shared_ptr<TuningCache> cache) {
    tuning_ = std::move(cache);
  }

  // Calibration ranges recorded at compile time, keyed by source-graph node id. Carried
  // (and serialized with the module) so RetuneForBatch and LoadModule can re-run the
  // fp32-vs-int8 selection without re-observing activations; empty for models compiled
  // without quantization.
  const CalibrationTable& calibration() const { return calibration_; }
  void SetCalibration(CalibrationTable table) { calibration_ = std::move(table); }

 private:
  Graph graph_;
  CompileStats stats_;
  Graph source_;
  CompileConfig config_;
  std::shared_ptr<TuningCache> tuning_;
  std::shared_ptr<const ExecutionPlan> plan_;
  CalibrationTable calibration_;
  std::shared_ptr<NodeProfiler> profiler_;
};

CompiledModel Compile(const Graph& model, const CompileOptions& options = {});

// Derives a compiled model running at a different batch size without re-compiling or
// re-tuning: the optimized structure, chosen schedules, and pre-transformed weights are
// reused (weight payloads are shared, not copied — the copy is a few hundred node
// headers), and only the logical shapes are re-inferred. The result keeps the original
// stats().tuned_batch: it executes schedules searched for the old batch size, which is
// why the serving tier treats it as a stopgap and re-tunes in the background. Returns
// false and leaves `out` untouched when the graph cannot be batch-rebound (see
// RebindBatchDim).
bool RebindBatch(const CompiledModel& model, std::int64_t batch, CompiledModel* out);

// Re-runs schedule selection for `batch` from the model's fused source graph, under the
// model's original CompileConfig and against its shared TuningCache: per-conv local
// searches are keyed by the batch-`batch` WorkloadKey (pure cache lookups when the cache
// already holds that batch's tuning — the warm-start path), followed by the configured
// global selection and layout lowering. `engine` backs measured-mode tuning; null
// times kernels serially and is fine for analytic mode. Returns false when the source
// cannot be rebound to `batch`.
bool RetuneForBatch(const CompiledModel& model, std::int64_t batch, ThreadEngine* engine,
                    CompiledModel* out);

// Rebuilds a model from its persisted parts (LoadModule's path): lowers `source` at
// `tuned_batch` through the same schedule selection and layout lowering as Compile and
// RetuneForBatch — pure cache lookups when `tuning` holds that batch's tuning — then
// rebinds the result to `source`'s own batch when the two differ (a saved RebindBatch
// derivative). Returns false when the source cannot be rebound to either batch.
bool LowerModel(Graph source, const CompileConfig& config,
                std::shared_ptr<TuningCache> tuning, CalibrationTable calibration,
                std::int64_t tuned_batch, CompiledModel* out);

}  // namespace neocpu

#endif  // NEOCPU_SRC_CORE_COMPILER_H_
