#include "src/core/compiler.h"

#include <algorithm>
#include <limits>
#include <unordered_set>
#include <utility>

#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/base/timer.h"
#include "src/core/memory_plan.h"
#include "src/graph/passes/passes.h"
#include "src/graph/shape_infer.h"
#include "src/tensor/layout_transform.h"
#include "src/tuning/global_search.h"
#include "src/tuning/schedule_space.h"

namespace neocpu {

const char* LayoutModeName(LayoutMode mode) {
  switch (mode) {
    case LayoutMode::kNCHW:
      return "nchw";
    case LayoutMode::kNCHWcPerOp:
      return "nchwc-per-op";
    case LayoutMode::kNCHWcFixed:
      return "nchwc-fixed";
    case LayoutMode::kNCHWcGlobal:
      return "nchwc-global";
  }
  return "?";
}

namespace {

// The "fixed x" of §3.2, restricted to blocks the local search actually enumerated:
// the largest candidate not exceeding the target's preferred block, falling back to the
// smallest candidate (covers channel counts like 28 or the 3-channel image input, whose
// factors skip the preferred block entirely).
std::int64_t PickFixedBlock(const LocalSearchResult& result, bool input_side,
                            std::int64_t prefer) {
  std::int64_t best_leq = 0;
  std::int64_t smallest = std::numeric_limits<std::int64_t>::max();
  for (const ScheduleCost& sc : result.ranked) {
    if (!sc.schedule.IsDirect()) {
      continue;  // algorithm candidates carry no blocking; the fixed-x modes are
                 // layout ablations and only pick among blocked schedules
    }
    const std::int64_t block = input_side ? sc.schedule.ic_bn : sc.schedule.oc_bn;
    smallest = std::min(smallest, block);
    if (block <= prefer) {
      best_leq = std::max(best_leq, block);
    }
  }
  return best_leq > 0 ? best_leq : smallest;
}

// Leading dim of the graph's (first) input: the batch size its conv workloads carry.
std::int64_t GraphBatch(const Graph& g) {
  for (int id = 0; id < g.num_nodes(); ++id) {
    if (g.node(id).type == OpType::kInput && !g.node(id).out_dims.empty()) {
      return g.node(id).out_dims[0];
    }
  }
  return 0;
}

// Reblocks, in `source` itself, the weight of every f32 direct conv that is the only
// reader of a weight in `owned`, to the conv's (ic_bn, oc_bn): AlterConvLayout then
// finds the blocks it needs and shares the buffer, so the weight is stored once.
void StoreDirectWeightsOnce(const std::map<int, ConvSchedule>& schedules,
                            const std::unordered_set<int>& owned, Graph* source) {
  const std::vector<std::vector<int>> consumers = source->BuildConsumerIndex();
  for (const auto& [id, sched] : schedules) {
    const int w = source->node(id).inputs[1];
    if (sched.IsDirect() && !sched.IsQuantized() && owned.count(w) > 0 &&
        consumers[static_cast<std::size_t>(w)].size() == 1) {
      Node& weight = source->node(w);
      ReblockWeightInPlace(&weight.payload, sched.ic_bn, sched.oc_bn);
      weight.out_dims = weight.payload.dims();
      weight.out_layout = weight.payload.layout();
    }
  }
}

// Schedule selection + layout lowering for an already simplified+fused graph. Every
// per-conv decision is keyed by the conv's WorkloadKey (its params carry the graph's
// batch), memoized through opts.tuning_cache. `calibration` (null = no quantization)
// gates the int8 side: quantize-legal convs get the u8 space ranked into their
// candidate list and the selection decides fp32-vs-int8 per conv. `owned` (may be
// null) names the weight constants no one outside this lowering reads; those a direct
// conv alone reads are reblocked in place in `source`. Fills the tuning/search fields
// of *stats.
Graph LowerFusedGraph(Graph& source, const CompileOptions& opts,
                      const CalibrationTable* calibration,
                      const std::unordered_set<int>* owned, CompileStats* stats) {
  TuningCache* cache = opts.tuning_cache.get();
  NEOCPU_CHECK(cache != nullptr);
  NEOCPU_CHECK(!opts.force_algo || opts.forced_algo != ConvAlgo::kWinograd)
      << "the Winograd algorithm is retired";

  // int8 only plays where it can beat f32 — on a VNNI target — unless forced, and only
  // under the searched mode: the fixed-block modes are fp32 paper ablations.
  const bool searched = opts.layout_mode == LayoutMode::kNCHWcGlobal;
  const bool quantizing = opts.quantize && calibration != nullptr &&
                          (opts.target.vnni_dot || opts.force_quantize) && searched;

  // Local search per convolution workload, memoized through the shared cache. Hit/miss
  // attribution is counted per call (not via cache-counter deltas): concurrent compiles
  // and re-tunes share one cache, so global deltas would mix their traffic. Under
  // quantization, int8-legal convs additionally search the u8 space (its own cache key)
  // and the two ranked lists merge into one candidate list. kNCHW searches nothing.
  Timer tuning_timer;
  LocalSearchMap locals;
  for (int id = 0; id < source.num_nodes(); ++id) {
    const Node& node = source.node(id);
    if (!node.IsConv() || opts.layout_mode == LayoutMode::kNCHW) {
      continue;
    }
    bool cache_hit = false;
    std::shared_ptr<const LocalSearchResult> result =
        LocalSearchConvShared(node.attrs.conv, opts.target, opts.cost_mode,
                              opts.quick_space, opts.engine, cache, &cache_hit);
    ++(cache_hit ? stats->tuning_cache_hits : stats->tuning_cache_misses);
    // An int8 space exists only for the kernel's templated oc blocks (ic blocks split
    // the quad-padded input channels, so the 3-channel stem has one); pre-check so the
    // search never CHECK-fails on an empty candidate list. A conv with no int8 blocking
    // (a 126-channel SSD class head) keeps its f32 schedules.
    if (quantizing && QuantizeLegal(source, id, *calibration) &&
        !EnumerateS8Schedules(node.attrs.conv, opts.target, opts.quick_space).empty()) {
      bool hit = false;
      std::shared_ptr<const LocalSearchResult> q =
          LocalSearchConvShared(node.attrs.conv, opts.target, opts.cost_mode,
                                opts.quick_space, opts.engine, cache, &hit, DType::kU8);
      ++(hit ? stats->tuning_cache_hits : stats->tuning_cache_misses);
      LocalSearchResult merged = *result;
      merged.ranked.insert(merged.ranked.end(), q->ranked.begin(), q->ranked.end());
      std::stable_sort(
          merged.ranked.begin(), merged.ranked.end(),
          [](const ScheduleCost& a, const ScheduleCost& b) { return a.ms < b.ms; });
      result = std::make_shared<const LocalSearchResult>(std::move(merged));
    }
    locals[id] = std::move(result);
  }

  // Every dense with a constant 2-D f32 weight runs the packed GEMM. The searched mode
  // ranks its blocking through the same local-search + cache machinery as the convs;
  // the fixed-layout baselines take GemmSchedule{}, the fixed "library" blocking their
  // im2col convs run. Dense nodes carry no layout edges (their inputs/outputs are
  // flat), so in the global formulation each is an isolated variable: its per-layer
  // f32-vs-u8 choice decomposes out of the DP objective exactly, and comparing best-f32
  // against best-u8 plus the Q/DQ boundary cost IS the global optimum for that variable.
  std::map<int, GemmSchedule> dense_schedules;
  for (int id = 0; id < source.num_nodes(); ++id) {
    const Node& node = source.node(id);
    if (node.type != OpType::kDense || node.inputs.size() < 2) {
      continue;
    }
    const Node& weight = source.node(node.inputs[1]);
    if (!weight.payload.defined() || weight.payload.dtype() != DType::kF32 ||
        weight.payload.dims().size() != 2) {
      continue;
    }
    // The fixed blocking, kept unless the search ranks this dense's own.
    GemmSchedule chosen;
    if (searched) {
      // Shape inference holds every dense input 2-D.
      const DenseParams p{source.node(node.inputs[0]).out_dims[0], weight.payload.dim(0),
                          weight.payload.dim(1)};
      bool hit = false;
      std::shared_ptr<const LocalSearchResult> f32 =
          LocalSearchDenseShared(p, opts.target, opts.cost_mode, opts.quick_space,
                                 opts.engine, cache, &hit);
      ++(hit ? stats->tuning_cache_hits : stats->tuning_cache_misses);
      const DenseScheduleCost* best_f32 = f32->BestDense(DType::kF32);
      if (best_f32 != nullptr) {
        chosen = best_f32->schedule;
      }
      if (best_f32 != nullptr && quantizing && opts.quantize_dense &&
          calibration->count(node.inputs[0]) > 0) {
        bool qhit = false;
        std::shared_ptr<const LocalSearchResult> u8 =
            LocalSearchDenseShared(p, opts.target, opts.cost_mode, opts.quick_space,
                                   opts.engine, cache, &qhit, DType::kU8);
        ++(qhit ? stats->tuning_cache_hits : stats->tuning_cache_misses);
        const DenseScheduleCost* best_u8 = u8->BestDense(DType::kU8);
        if (best_u8 != nullptr) {
          // Boundary cost: worst case both the input quantize and the output
          // dequantize materialize (chained integer denses amortize them away).
          const double boundary_ms =
              QdqMs((p.m * p.k + p.m * p.n) *
                    static_cast<std::int64_t>(sizeof(float)));
          if (opts.force_quantize || best_u8->ms + boundary_ms < best_f32->ms) {
            chosen = best_u8->schedule;
          }
        }
      }
    }
    dense_schedules[id] = chosen;
    ++stats->num_dense;
    if (chosen.IsQuantized()) {
      ++stats->num_quantized_dense;
    }
  }
  stats->tuning_seconds = tuning_timer.Seconds();
  stats->num_convs = source.CountNodes(OpType::kConv2d);

  std::map<int, ConvSchedule> schedules;
  switch (opts.layout_mode) {
    case LayoutMode::kNCHW: {
      // The default-layout baselines: every conv runs the reference loop unless
      // `force_algo` names another NCHW algorithm below.
      for (int id = 0; id < source.num_nodes(); ++id) {
        if (source.node(id).IsConv()) {
          schedules[id] = AlgoSchedule(ConvAlgo::kReference);
        }
      }
      break;
    }
    case LayoutMode::kNCHWcPerOp:
    case LayoutMode::kNCHWcFixed: {
      // One global split factor (§3.2): the target's vector width, degraded per conv to
      // the largest factor of its channel counts.
      const std::int64_t x = opts.target.PreferredBlock();
      for (auto& [id, result] : locals) {
        if (result->BestForAlgo(ConvAlgo::kDirectNCHWc) == nullptr) {
          // No templated block divides this conv's channels: it runs im2col, behind
          // transforms like any NCHW conv.
          schedules[id] = result->best().schedule;
          continue;
        }
        const std::int64_t ic_bn = PickFixedBlock(*result, /*input_side=*/true, x);
        const std::int64_t oc_bn = PickFixedBlock(*result, /*input_side=*/false, x);
        const ScheduleCost* best = result->BestForPair(ic_bn, oc_bn);
        NEOCPU_CHECK(best != nullptr)
            << "pair (" << ic_bn << "," << oc_bn << ") missing for "
            << source.node(id).attrs.conv.ToString();
        schedules[id] = best->schedule;
      }
      break;
    }
    case LayoutMode::kNCHWcGlobal: {
      Timer search_timer;
      GlobalProblem problem = ExtractGlobalProblem(source, locals);
      GlobalSolution solution = SolveGlobal(problem, opts.max_dp_table_entries);
      stats->search_seconds = search_timer.Seconds();
      stats->used_global_search = true;
      stats->used_exact_dp = solution.exact;
      stats->predicted_cost_ms = solution.cost_ms;
      schedules = std::move(solution.assignment);
      break;
    }
  }

  if (opts.force_algo) {
    // Override the selected schedule (CompileConfig::force_algo).
    for (auto& [id, sched] : schedules) {
      if (opts.forced_algo == ConvAlgo::kDirectNCHWc) {
        // A conv with no templated block keeps its searched algorithm, and kNCHW,
        // which searches no blocking, keeps its NCHW one.
        const auto local = locals.find(id);
        const ScheduleCost* best =
            local == locals.end() ? nullptr
                                  : local->second->BestForAlgo(ConvAlgo::kDirectNCHWc);
        if (best != nullptr) {
          sched = best->schedule;
        }
      } else {
        sched = AlgoSchedule(opts.forced_algo);
      }
    }
  }
  if (quantizing && opts.force_quantize) {
    // Accuracy/CI mode: every int8-legal conv takes its best int8 schedule regardless of
    // the cost comparison (applied last, so it also overrides force_algo).
    for (auto& [id, sched] : schedules) {
      const ScheduleCost* best = locals.at(id)->BestQuantized();
      if (best != nullptr) {
        sched = best->schedule;
      }
    }
  }

  if (quantizing) {
    for (const auto& [id, sched] : schedules) {
      if (sched.IsQuantized()) {
        ++stats->num_quantized_convs;
      }
    }
  }

  if (owned != nullptr) {
    StoreDirectWeightsOnce(schedules, *owned, &source);
  }

  const LayoutPlacement placement = opts.layout_mode == LayoutMode::kNCHWcPerOp
                                        ? LayoutPlacement::kPerOp
                                        : LayoutPlacement::kPropagate;
  Graph lowered_source = source;
  if (quantizing &&
      (stats->num_quantized_convs > 0 || stats->num_quantized_dense > 0)) {
    lowered_source = QuantizeGraph(source, *calibration, &schedules, &dense_schedules);
  }
  Graph g = AlterConvLayout(lowered_source, schedules, placement, dense_schedules);
  stats->num_layout_transforms = g.CountNodes(OpType::kLayoutTransform);
  return g;
}

// Runs the fp32 source graph over the calibration inputs (or one deterministic
// synthetic batch) with a range observer attached — the "sample inputs recorded by a
// CalibrationObserver on the executor" side of post-training quantization. The
// clipping policies (percentile, entropy) replay the identical samples a second time
// to fill the observer's histograms before Finalize reduces them (the synthetic batch
// re-seeds its Rng, so both passes see the same data).
CalibrationTable CalibrateGraph(const Graph& source, const CompileOptions& opts) {
  CalibrationObserver observer;
  Executor executor(&source, opts.engine);
  executor.SetObserver(&observer);
  auto run_samples = [&]() {
    if (!opts.calibration_inputs.empty()) {
      // Each entry is one sample batch for the graph's (single) input; ranges across
      // batches merge in the observer.
      for (const Tensor& sample : opts.calibration_inputs) {
        executor.Run(std::vector<Tensor>{sample});
      }
    } else {
      Rng rng(0xC0DE);
      std::vector<Tensor> inputs;
      for (int id = 0; id < source.num_nodes(); ++id) {
        if (source.node(id).type == OpType::kInput) {
          inputs.push_back(
              Tensor::Random(source.node(id).out_dims, rng, -1.0f, 1.0f, Layout::NCHW()));
        }
      }
      executor.Run(inputs);
    }
  };
  run_samples();
  if (opts.calibration_policy != CalibrationPolicy::kMinMax) {
    observer.BeginHistogramPhase();
    run_samples();
  }
  return observer.Finalize(opts.calibration_policy);
}

// Lowers `source` (already at the batch to tune for) and wraps the executable graph
// with the tuning state it was derived from: the one lowering behind Compile,
// RetuneForBatch and LowerModel. `timer` started when the caller's work did, so
// stats().compile_seconds covers it. `owned` as in LowerFusedGraph: only Compile
// passes it, because only its source holds weights no caller or live model can read.
CompiledModel LowerAtBatch(Graph source, const CompileConfig& config,
                           std::shared_ptr<TuningCache> tuning,
                           CalibrationTable calibration, ThreadEngine* engine, bool retuned,
                           const Timer& timer, const std::unordered_set<int>* owned = nullptr) {
  CompileOptions opts;
  static_cast<CompileConfig&>(opts) = config;
  opts.tuning_cache = std::move(tuning);
  opts.engine = engine;
  CompileStats stats;
  stats.tuned_batch = GraphBatch(source);
  stats.retuned = retuned;
  // Re-tunes reuse the compile-time calibration: per-tensor activation ranges are a
  // property of the data distribution, not the batch size, and the source graph's node
  // ids (the table's keys) survive batch rebinding unchanged.
  const bool quantize = config.quantize && !calibration.empty();
  Graph g =
      LowerFusedGraph(source, opts, quantize ? &calibration : nullptr, owned, &stats);
  stats.compile_seconds = timer.Seconds();
  CompiledModel out(std::move(g), stats, std::move(source), config,
                    std::move(opts.tuning_cache));
  out.SetCalibration(std::move(calibration));
  return out;
}

}  // namespace

CompiledModel Compile(const Graph& model, const CompileOptions& options) {
  Timer total_timer;
  CompileOptions opts = options;
  if (opts.tuning_cache == nullptr) {
    opts.tuning_cache = std::make_shared<TuningCache>();
  }

  Graph source = FuseOps(SimplifyInference(model));
  CalibrationTable calibration;
  if (opts.quantize) {
    calibration = CalibrateGraph(source, opts);
  }
  // The constants SimplifyInference created (BatchNorm-folded weights) belong to this
  // compile; every other constant shares a buffer with the caller's graph.
  std::unordered_set<const float*> caller_buffers;
  for (int id = 0; id < model.num_nodes(); ++id) {
    caller_buffers.insert(model.node(id).payload.data());
  }
  std::unordered_set<int> owned;
  for (int id = 0; id < source.num_nodes(); ++id) {
    const Node& node = source.node(id);
    if (node.type == OpType::kConstant && caller_buffers.count(node.payload.data()) == 0) {
      owned.insert(id);
    }
  }
  return LowerAtBatch(std::move(source), opts, opts.tuning_cache, std::move(calibration),
                      opts.engine, /*retuned=*/false, total_timer, &owned);
}

bool RebindBatch(const CompiledModel& model, std::int64_t batch, CompiledModel* out) {
  // Node headers copy; constant payloads share their buffers.
  Graph g = model.graph();
  Graph source = model.source_graph();
  if (!RebindBatchDim(&g, batch) || !RebindBatchDim(&source, batch)) {
    return false;
  }
  // Every batch variant gets its own plan from the CompiledModel constructor: shapes
  // changed, so offsets and the arena footprint change with them.
  *out = CompiledModel(std::move(g), model.stats(), std::move(source), model.config(),
                       model.tuning());
  out->SetCalibration(model.calibration());
  return true;
}

bool RetuneForBatch(const CompiledModel& model, std::int64_t batch, ThreadEngine* engine,
                    CompiledModel* out) {
  NEOCPU_CHECK(out != nullptr);
  Graph source = model.source_graph();
  if (!RebindBatchDim(&source, batch)) {
    return false;
  }
  Timer total_timer;
  *out = LowerAtBatch(std::move(source), model.config(), model.tuning(), model.calibration(),
                      engine, /*retuned=*/true, total_timer);
  return true;
}

bool LowerModel(Graph source, const CompileConfig& config,
                std::shared_ptr<TuningCache> tuning, CalibrationTable calibration,
                std::int64_t tuned_batch, CompiledModel* out) {
  Timer total_timer;
  const std::int64_t batch = GraphBatch(source);
  if (tuned_batch != batch && !RebindBatchDim(&source, tuned_batch)) {
    return false;
  }
  CompiledModel lowered =
      LowerAtBatch(std::move(source), config, std::move(tuning), std::move(calibration),
                   /*engine=*/nullptr, /*retuned=*/false, total_timer);
  if (tuned_batch == batch) {
    *out = std::move(lowered);
    return true;
  }
  return RebindBatch(lowered, batch, out);
}

}  // namespace neocpu
