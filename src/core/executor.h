// Graph executor: runs a graph's nodes in topological order on a ThreadEngine.
//
// Every node runs through one call, ExecuteNodeInto (core/op_dispatch), into a buffer
// its ExecutionPlan (core/memory_plan) placed: an arena view for kArena, a fresh owning
// tensor for kHeap, an input view for kAlias (which runs no kernel). Buffers are
// released as soon as their last consumer has executed.
//   * With a PlanMemory plan (what CompiledModel supplies), intermediates and every
//     kernel workspace are views into one pre-faulted arena; steady-state Run heap-
//     allocates only the escaping graph outputs. The arena comes from a caller-supplied
//     warm Arena (the serving pool passes one per executor-pool partition so pages stay
//     local to the cores that touch them) or, by default, from the process-wide
//     ArenaPool.
//   * Without a plan, the executor uses PlanHeapOnly: every output and workspace is its
//     own heap buffer, freed by liveness. That bounds peak activation memory without an
//     arena and gives each buffer its own allocation (what sanitizers check), which is
//     why it serves as the reference oracle and runs calibration.
#ifndef NEOCPU_SRC_CORE_EXECUTOR_H_
#define NEOCPU_SRC_CORE_EXECUTOR_H_

#include <atomic>
#include <memory>
#include <vector>

#include "src/core/memory_plan.h"
#include "src/graph/graph.h"
#include "src/graph/passes/passes.h"
#include "src/runtime/arena_pool.h"
#include "src/runtime/thread_engine.h"
#include "src/tensor/tensor.h"

namespace neocpu {

class NodeProfiler;
class TraceRecorder;

// Records per-node output ranges while a graph executes — the calibration side of
// post-training quantization: the compiler runs the fp32 source graph over sample
// inputs with an observer attached, and QuantizeGraph turns the resulting ranges into
// u8 scales and zero points. Min/max calibration needs a single pass; the clipping policies
// (percentile, entropy) need a second pass over the SAME samples that bins |x| into a
// per-node histogram whose support [0, absmax] comes from the first pass' ranges —
// call BeginHistogramPhase() between the passes and Finalize(policy) at the end. Not
// thread-safe; attach to a dedicated executor and run calibration batches
// sequentially.
class CalibrationObserver {
 public:
  static constexpr int kHistogramBins = 512;

  // Phase 1: folds `value`'s min/max into the running range of node `id`. Phase 2
  // (after BeginHistogramPhase): bins |value| into node `id`'s histogram instead.
  // fp32 tensors only; non-f32 values are ignored.
  void Observe(int id, const Tensor& value);

  void BeginHistogramPhase() { histogram_phase_ = true; }

  // Reduces the observations under `policy` and returns (moves out) the table:
  //   * kMinMax      — the phase-1 ranges verbatim;
  //   * kPercentile  — clips each range to the threshold retaining 99.9% of the
  //                    observed |x| mass (outlier spikes stop dictating the scale);
  //   * kEntropy     — scans clip candidates and keeps the one whose 256-level
  //                    quantization of the clipped distribution loses the least
  //                    information (smallest KL divergence), TVM-style.
  // Nodes without a histogram (policy kMinMax, or all-zero activations) keep their
  // min/max range.
  CalibrationTable Finalize(CalibrationPolicy policy);

  const CalibrationTable& table() const { return table_; }

 private:
  CalibrationTable table_;
  bool histogram_phase_ = false;
  std::map<int, std::vector<std::uint64_t>> hist_;  // |x| histogram over [0, absmax]
};

class Executor {
 public:
  // `graph` and `engine` are borrowed and must outlive the executor. A null engine runs
  // serially. `plan` (shared) must have been computed for exactly `graph`; null selects
  // PlanHeapOnly(*graph).
  explicit Executor(const Graph* graph, ThreadEngine* engine = nullptr,
                    std::shared_ptr<const ExecutionPlan> plan = nullptr);

  // `inputs` are bound to the graph's kInput nodes in node-id order. Returns the tensors
  // of the graph's output nodes. Run is stateless and const: one executor instance can
  // serve concurrent Run calls from many threads (the serving executor pool relies on
  // this to reuse a single executor per compiled model across the whole pool); each
  // Run of a plan with an arena leases its own.
  std::vector<Tensor> Run(const std::vector<Tensor>& inputs) const;

  // As above, but runs on `engine` instead of the engine bound at construction. A null
  // engine runs serially. A non-null `arena` backs the plan's arena instead of the
  // global pool (it is grown to the plan's footprint and must not be used by another
  // Run concurrently).
  std::vector<Tensor> Run(const std::vector<Tensor>& inputs, ThreadEngine* engine) const;
  std::vector<Tensor> Run(const std::vector<Tensor>& inputs, ThreadEngine* engine,
                          Arena* arena) const;

  // Convenience for single-input single-output graphs.
  Tensor Run(const Tensor& input) const;
  Tensor Run(const Tensor& input, ThreadEngine* engine) const;
  Tensor Run(const Tensor& input, ThreadEngine* engine, Arena* arena) const;

  // The plan every Run executes; never null.
  const ExecutionPlan& plan() const { return *plan_; }

  // Attaches a calibration observer: every subsequent Run reports each input and
  // materialized node output to it. Calibration runs are offline (compile time), so
  // the observer is not synchronized — do not share an observed executor across
  // threads.
  void SetObserver(CalibrationObserver* observer) { observer_ = observer; }

  // Observability hooks (src/obs). Both are atomics so they can be attached to an
  // executor that concurrent Run calls are already flowing through (the serving
  // registry enables profiling on live variants); the caller keeps ownership and must
  // outlive the executor. Detached (the default) the hot path pays one relaxed load
  // per Run and no clock reads.
  //   * profiler: every sample_rate-th Run is timed per node (obs/node_profiler).
  //     The profiler must have RegisterGraph()-ed this executor's graph.
  //   * tracer: every Run emits one chrome-trace span per node (obs/trace) — heavier;
  //     meant for bounded capture windows, not steady state.
  void SetProfiler(NodeProfiler* profiler) {
    profiler_.store(profiler, std::memory_order_release);
  }
  void SetTracer(TraceRecorder* tracer) {
    tracer_.store(tracer, std::memory_order_release);
  }
  bool profiling_enabled() const {
    return profiler_.load(std::memory_order_acquire) != nullptr;
  }

 private:
  const Graph* graph_;
  ThreadEngine* engine_;
  std::shared_ptr<const ExecutionPlan> plan_;
  CalibrationObserver* observer_ = nullptr;
  std::atomic<NodeProfiler*> profiler_{nullptr};
  std::atomic<TraceRecorder*> tracer_{nullptr};
  std::vector<int> input_nodes_;
  std::vector<int> use_counts_;  // consumer count + output multiplicity per node
};

}  // namespace neocpu

#endif  // NEOCPU_SRC_CORE_EXECUTOR_H_
