#include "src/core/executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>

#include "src/base/cycle_clock.h"
#include "src/base/logging.h"
#include "src/base/string_util.h"
#include "src/core/op_dispatch.h"
#include "src/obs/node_profiler.h"
#include "src/obs/trace.h"

namespace neocpu {

namespace {

// Clip threshold keeping 99.9% of the |x| mass: the smallest histogram prefix whose
// cumulative count reaches that fraction. Activation outliers (a handful of extreme
// values in millions) otherwise dictate the u8 scale and waste most of the 256 codes.
float PercentileThreshold(const std::vector<std::uint64_t>& hist, float absmax) {
  std::uint64_t total = 0;
  for (std::uint64_t c : hist) {
    total += c;
  }
  if (total == 0) {
    return absmax;
  }
  const double keep = 0.999 * static_cast<double>(total);
  std::uint64_t cum = 0;
  const int bins = static_cast<int>(hist.size());
  for (int b = 0; b < bins; ++b) {
    cum += hist[b];
    if (static_cast<double>(cum) >= keep) {
      return absmax * static_cast<float>(b + 1) / static_cast<float>(bins);
    }
  }
  return absmax;
}

// Simplified KL-divergence scan (the TVM/TensorRT calibration recipe): for each clip
// candidate i, the reference P is the clipped histogram (outlier mass folded into the
// last kept bin) and Q is P squeezed through 256 quantization levels and expanded
// back; the candidate minimizing KL(P||Q) wastes the least information. We distribute
// each level's mass uniformly over its source bins (skipping TVM's nonzero-bin
// refinement) — calibration picks a scale, not exact entropy.
float EntropyThreshold(const std::vector<std::uint64_t>& hist, float absmax) {
  const int bins = static_cast<int>(hist.size());
  const int levels = 256;
  if (bins <= levels) {
    return absmax;
  }
  double best_kl = std::numeric_limits<double>::infinity();
  int best_i = bins;
  for (int i = levels; i <= bins; i += 8) {
    std::vector<double> p(hist.begin(), hist.begin() + i);
    for (int j = i; j < bins; ++j) {
      p[static_cast<std::size_t>(i - 1)] += static_cast<double>(hist[j]);
    }
    double p_total = 0.0;
    for (double v : p) {
      p_total += v;
    }
    if (p_total <= 0.0) {
      continue;
    }
    std::vector<double> q(static_cast<std::size_t>(i), 0.0);
    const double step = static_cast<double>(i) / levels;
    for (int l = 0; l < levels; ++l) {
      const int lo = static_cast<int>(l * step);
      int hi = static_cast<int>((l + 1) * step);
      hi = hi > i ? i : (hi <= lo ? lo + 1 : hi);
      double mass = 0.0;
      for (int j = lo; j < hi; ++j) {
        mass += p[static_cast<std::size_t>(j)];
      }
      const double share = mass / static_cast<double>(hi - lo);
      for (int j = lo; j < hi; ++j) {
        q[static_cast<std::size_t>(j)] = share;
      }
    }
    double kl = 0.0;
    for (int j = 0; j < i; ++j) {
      const double pj = p[static_cast<std::size_t>(j)] / p_total;
      const double qj = q[static_cast<std::size_t>(j)] / p_total;
      if (pj > 0.0 && qj > 0.0) {
        kl += pj * std::log(pj / qj);
      }
    }
    if (kl < best_kl) {
      best_kl = kl;
      best_i = i;
    }
  }
  return absmax * static_cast<float>(best_i) / static_cast<float>(bins);
}

}  // namespace

void CalibrationObserver::Observe(int id, const Tensor& value) {
  if (value.dtype() != DType::kF32 || value.NumElements() == 0) {
    return;
  }
  const float* p = value.data();
  const std::int64_t n = value.NumElements();
  if (histogram_phase_) {
    const auto rit = table_.find(id);
    if (rit == table_.end()) {
      return;
    }
    const float absmax = std::max(std::fabs(rit->second.min), std::fabs(rit->second.max));
    if (absmax <= 0.0f) {
      return;
    }
    std::vector<std::uint64_t>& h = hist_[id];
    if (h.empty()) {
      h.assign(kHistogramBins, 0);
    }
    const float inv = static_cast<float>(kHistogramBins) / absmax;
    for (std::int64_t i = 0; i < n; ++i) {
      int b = static_cast<int>(std::fabs(p[i]) * inv);
      b = b >= kHistogramBins ? kHistogramBins - 1 : b;
      ++h[static_cast<std::size_t>(b)];
    }
    return;
  }
  float lo = p[0];
  float hi = p[0];
  for (std::int64_t i = 1; i < n; ++i) {
    lo = p[i] < lo ? p[i] : lo;
    hi = p[i] > hi ? p[i] : hi;
  }
  auto [it, inserted] = table_.emplace(id, TensorRange{lo, hi});
  if (!inserted) {
    it->second.Merge(TensorRange{lo, hi});
  }
}

CalibrationTable CalibrationObserver::Finalize(CalibrationPolicy policy) {
  if (policy != CalibrationPolicy::kMinMax) {
    for (auto& [id, range] : table_) {
      const auto hit = hist_.find(id);
      if (hit == hist_.end()) {
        continue;  // no histogram (all-zero activations): keep the min/max range
      }
      const float absmax = std::max(std::fabs(range.min), std::fabs(range.max));
      const float t = policy == CalibrationPolicy::kPercentile
                          ? PercentileThreshold(hit->second, absmax)
                          : EntropyThreshold(hit->second, absmax);
      if (t > 0.0f) {
        range.min = std::max(range.min, -t);
        range.max = std::min(range.max, t);
      }
    }
  }
  hist_.clear();
  histogram_phase_ = false;
  return std::move(table_);
}

Executor::Executor(const Graph* graph, ThreadEngine* engine,
                   std::shared_ptr<const ExecutionPlan> plan)
    : graph_(graph),
      engine_(engine),
      plan_(plan != nullptr ? std::move(plan)
                            : std::make_shared<const ExecutionPlan>(PlanHeapOnly(*graph))) {
  use_counts_.assign(static_cast<std::size_t>(graph->num_nodes()), 0);
  for (int id = 0; id < graph->num_nodes(); ++id) {
    const Node& node = graph->node(id);
    if (node.type == OpType::kInput) {
      input_nodes_.push_back(id);
    }
    for (int input : node.inputs) {
      ++use_counts_[static_cast<std::size_t>(input)];
    }
  }
  for (int out : graph->outputs()) {
    ++use_counts_[static_cast<std::size_t>(out)];
  }
  NEOCPU_CHECK_EQ(static_cast<int>(plan_->nodes.size()), graph->num_nodes())
      << "execution plan does not match the graph";
}

std::vector<Tensor> Executor::Run(const std::vector<Tensor>& inputs) const {
  return Run(inputs, engine_, nullptr);
}

std::vector<Tensor> Executor::Run(const std::vector<Tensor>& inputs,
                                  ThreadEngine* engine) const {
  return Run(inputs, engine, nullptr);
}

std::vector<Tensor> Executor::Run(const std::vector<Tensor>& inputs, ThreadEngine* engine,
                                  Arena* arena) const {
  NEOCPU_CHECK_EQ(inputs.size(), input_nodes_.size())
      << "graph expects " << input_nodes_.size() << " inputs";
  std::vector<Tensor> values(static_cast<std::size_t>(graph_->num_nodes()));
  std::vector<int> remaining = use_counts_;

  for (std::size_t i = 0; i < input_nodes_.size(); ++i) {
    const Node& node = graph_->node(input_nodes_[i]);
    // Full per-axis shape validation: an element-count check alone would accept a
    // transposed input of equal size and silently produce wrong numbers.
    NEOCPU_CHECK_EQ(inputs[i].ndim(), static_cast<int>(node.out_dims.size()))
        << "input rank mismatch for " << node.name << ": got " << inputs[i].DebugString()
        << ", graph expects " << node.out_dims.size() << " dims";
    for (int axis = 0; axis < inputs[i].ndim(); ++axis) {
      NEOCPU_CHECK_EQ(inputs[i].dim(axis), node.out_dims[static_cast<std::size_t>(axis)])
          << "input shape mismatch for " << node.name << " at axis " << axis << ": got "
          << inputs[i].DebugString();
    }
    values[static_cast<std::size_t>(input_nodes_[i])] = inputs[i];
    if (observer_ != nullptr) {
      observer_->Observe(input_nodes_[i], inputs[i]);
    }
  }

  // One lease per Run: a warm per-partition arena when the caller owns one (serving
  // pool), else the process-wide pool. Stack-held (the lease handle itself must not
  // malloc on the path whose point is zero allocations) and lazy, so heap-only plans
  // never touch the pool.
  std::optional<ArenaLease> lease;
  float* arena_base = nullptr;
  if (plan_->arena_bytes > 0) {
    lease.emplace(arena, &ArenaPool::Global(), plan_->arena_bytes);
    arena_base = lease->data();
  }

  // Observability: with neither hook attached this whole feature costs two relaxed
  // loads per Run and one always-false branch per node — no clocks, no stores.
  NodeProfiler* profiler = profiler_.load(std::memory_order_acquire);
  const bool sampled = profiler != nullptr && profiler->BeginRun();
  TraceRecorder* tracer = tracer_.load(std::memory_order_acquire);
  const bool timed = sampled || tracer != nullptr;
  // Profiler-only sampling reads the serialized TSC where it is invariant: cheaper
  // than the vDSO clock and cycle-exact. Tracing keeps steady_clock — chrome-trace
  // spans need wall-clock-comparable timestamps.
  const bool use_tsc = sampled && tracer == nullptr && CycleClock::Supported();

  std::vector<Tensor> node_inputs;
  for (int id = 0; id < graph_->num_nodes(); ++id) {
    const Node& node = graph_->node(id);
    if (node.type == OpType::kInput) {
      continue;
    }
    if (node.type == OpType::kConstant) {
      values[static_cast<std::size_t>(id)] = node.payload;  // shallow: shares the buffer
      continue;
    }
    node_inputs.clear();
    for (int input : node.inputs) {
      NEOCPU_CHECK(values[static_cast<std::size_t>(input)].defined())
          << node.name << ": input " << input << " not materialized";
      node_inputs.push_back(values[static_cast<std::size_t>(input)]);
    }
    std::chrono::steady_clock::time_point node_begin;
    std::uint64_t cycle_begin = 0;
    if (timed) {
      if (use_tsc) {
        cycle_begin = CycleClock::Now();
      } else {
        node_begin = std::chrono::steady_clock::now();
      }
    }
    const NodePlan& np = plan_->nodes[static_cast<std::size_t>(id)];
    Tensor& out = values[static_cast<std::size_t>(id)];
    if (np.placement == BufferPlacement::kAlias) {
      out = AliasView(node, node_inputs);
    } else {
      // Arena views sit at the planned offsets (SIMD-aligned, so the float-granular
      // pointer arithmetic is exact for every element size).
      out = np.placement == BufferPlacement::kArena
                ? Tensor::FromExternal(arena_base + np.offset / sizeof(float), np.dims,
                                       np.layout, np.dtype)
                : Tensor::Empty(*np.dims, np.layout, np.dtype);
      Tensor heap_workspace;
      float* workspace = nullptr;
      if (np.workspace_bytes > 0 && arena_base != nullptr) {
        workspace = arena_base + np.workspace_offset / sizeof(float);
      } else if (np.workspace_bytes > 0) {
        heap_workspace = Tensor::Empty(
            {static_cast<std::int64_t>(np.workspace_bytes / sizeof(float))});
        workspace = heap_workspace.data();
      }
      ExecuteNodeInto(node, node_inputs, &out, workspace, np.workspace_bytes, engine);
    }
    if (use_tsc) {
      profiler->RecordNode(node,
                           CycleClock::CyclesToNanos(CycleClock::Now() - cycle_begin));
    } else if (timed) {
      const auto node_end = std::chrono::steady_clock::now();
      if (sampled) {
        profiler->RecordNode(
            node, static_cast<std::uint64_t>(
                      std::chrono::duration_cast<std::chrono::nanoseconds>(node_end -
                                                                           node_begin)
                          .count()));
      }
      if (tracer != nullptr) {
        tracer->RecordSpan("node", node.name.empty() ? StrFormat("node%d", id) : node.name,
                           node_begin, node_end);
      }
    }
    if (observer_ != nullptr) {
      observer_->Observe(id, values[static_cast<std::size_t>(id)]);
    }
    // Liveness: release inputs whose last consumer just ran.
    for (int input : node.inputs) {
      if (--remaining[static_cast<std::size_t>(input)] == 0) {
        values[static_cast<std::size_t>(input)] = Tensor();
      }
    }
  }

  if (sampled) {
    profiler->EndSampledRun();
  }

  std::vector<Tensor> outputs;
  outputs.reserve(graph_->outputs().size());
  for (int out : graph_->outputs()) {
    // Escaping buffers are heap-placed, so outputs own their storage and stay valid
    // after the arena lease is returned.
    outputs.push_back(values[static_cast<std::size_t>(out)]);
  }
  return outputs;
}

Tensor Executor::Run(const Tensor& input) const { return Run(input, engine_, nullptr); }

Tensor Executor::Run(const Tensor& input, ThreadEngine* engine) const {
  return Run(input, engine, nullptr);
}

Tensor Executor::Run(const Tensor& input, ThreadEngine* engine, Arena* arena) const {
  std::vector<Tensor> outputs = Run(std::vector<Tensor>{input}, engine, arena);
  NEOCPU_CHECK_EQ(outputs.size(), 1u);
  return outputs[0];
}

}  // namespace neocpu
