// cnn_f32_b1 and cnn_u8_b1: the paper's Table 2 protocol. One caller runs a closed loop
// of batch-1 CompiledModel::Run on a NeoThreadPool spanning every core, cycling through
// a seeded pool of distinct images. The u8 workload compiles the same graph with forced
// u8 quantization, so one change to the f32 conv path and one to the int8 path each
// show on exactly one of the two.
#include <optional>

#include "perfbench/common.h"

namespace perfbench {
namespace {

using neocpu::CompiledModel;
using neocpu::NeoThreadPool;
using neocpu::Tensor;

constexpr const char* kModel = "resnet18";
constexpr int kImages = 4;
// Output tolerances against the reference-conv f32 compile. The u8 bound is the one
// the repository's quantization tests hold the zoo to.
constexpr double kF32Tolerance = 1e-4;
constexpr double kU8Tolerance = 0.05;
// Set-ups per run; setup_s is their median. The u8 compile calibrates and costs ~2 s.
constexpr int kF32SetUps = 7;
constexpr int kU8SetUps = 5;

bool IsU8(const Args& args) { return args.workload == "cnn_u8_b1"; }

neocpu::CompileOptions CnnOptions(bool u8) {
  neocpu::CompileOptions options = neocpu::NeoCpuOptions(neocpu::Target::Host());
  if (u8) {
    options.quantize = true;
    options.force_quantize = true;
    options.force_quant_dtype = neocpu::DType::kU8;
  }
  options.tuning_cache = std::make_shared<neocpu::TuningCache>();  // cold
  return options;
}

struct CnnSystem {
  CompiledModel model;
  std::unique_ptr<NeoThreadPool> pool;
};

// What a user pays before the first useful inference: build the graph, compile it
// against a cold tuning cache (u8: including calibration), start the thread pool, and
// run once so the arena is faulted in.
CnnSystem SetUp(bool u8, const Tensor& warm_input, SpanRecorder* spans) {
  const Clock::time_point start = Clock::now();
  const std::uint64_t setup_id = spans->NewId();
  neocpu::Graph graph = neocpu::BuildModel(kModel);
  const Clock::time_point compile_start = Clock::now();
  CnnSystem system;
  system.model = neocpu::Compile(graph, CnnOptions(u8));
  spans->Record("Compile", compile_start, Clock::now(), setup_id);
  system.pool = std::make_unique<NeoThreadPool>();
  system.model.Run(warm_input, system.pool.get());
  spans->Record("setup", start, Clock::now(), 0, -1, setup_id);
  return system;
}

struct LoopResult {
  std::vector<double> latencies_ms;
  // Every output in run order; run i used image i % images.size(). They are checked
  // after the measurement, once the reference has been computed.
  std::vector<Tensor> outputs;
  std::uint64_t heap_allocs = 0;
};

// Closed loop for `seconds`: Run, stop the clock, keep the output.
LoopResult RunLoop(const CnnSystem& system, const std::vector<Tensor>& images, double seconds,
                   SpanRecorder* spans, const char* phase) {
  LoopResult result;
  const std::uint64_t phase_id = spans->NewId();
  const Clock::time_point phase_start = Clock::now();
  const Clock::time_point deadline =
      phase_start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
  const std::uint64_t allocs_before = neocpu::TensorHeapAllocCount();
  for (std::int64_t i = 0; Clock::now() < deadline; ++i) {
    const std::size_t k = static_cast<std::size_t>(i) % images.size();
    const Clock::time_point start = Clock::now();
    Tensor out = system.model.Run(images[k], system.pool.get());
    const Clock::time_point end = Clock::now();
    result.latencies_ms.push_back(MillisBetween(start, end));
    spans->Record("CompiledModel::Run", start, end, phase_id, i);
    result.outputs.push_back(std::move(out));
  }
  result.heap_allocs = neocpu::TensorHeapAllocCount() - allocs_before;
  spans->Record(phase, phase_start, Clock::now(), 0, -1, phase_id);
  return result;
}

// Compiles the same graph with every conv forced to the reference algorithm and
// returns its output for each image. Called after the measurement, so it is outside
// both the timed loop and setup_s.
std::vector<Tensor> ReferenceOutputs(const std::vector<Tensor>& images, NeoThreadPool* pool) {
  neocpu::CompileOptions options = neocpu::NeoCpuOptions(neocpu::Target::Host());
  options.force_algo = true;
  options.forced_algo = neocpu::ConvAlgo::kReference;
  const CompiledModel reference = neocpu::Compile(neocpu::BuildModel(kModel), options);
  std::vector<Tensor> outputs;
  for (const Tensor& image : images) {
    outputs.push_back(reference.Run(image, pool));
  }
  return outputs;
}

// Counts the outputs of `loop` that differ from the reference by more than `tolerance`.
std::uint64_t CountWrong(const LoopResult& loop, const std::vector<Tensor>& expected,
                         double tolerance, double* worst_diff) {
  std::uint64_t wrong = 0;
  for (std::size_t i = 0; i < loop.outputs.size(); ++i) {
    const double diff = MaxAbsDiff(loop.outputs[i], expected[i % expected.size()]);
    *worst_diff = std::max(*worst_diff, diff);
    wrong += !(diff <= tolerance);
  }
  return wrong;
}

// Per-layer figures from the traced half: the profiler's per-node self times joined
// with the compiled graph and the analytic cost model.
void AddLayerMetrics(const CnnSystem& system, const neocpu::NodeProfileSnapshot& profile,
                     const LoopResult& traced, Outcome* out) {
  const neocpu::Graph& graph = system.model.graph();
  const double runs = static_cast<double>(std::max<std::uint64_t>(1, profile.runs_sampled));
  std::map<std::string, double> family_ms;
  double f32_flops = 0.0, f32_ms = 0.0, int_ops = 0.0, int_ms = 0.0;
  std::vector<double> predicted, measured;
  for (const neocpu::NodeProfile& p : profile.nodes) {
    const neocpu::Node& node = graph.node(p.node_id);
    const double ms = p.total_ms / runs;
    family_ms[KernelFamily(node)] += ms;
    if (!node.IsConv()) {
      continue;
    }
    const double ops = 2.0 * node.attrs.conv.Macs();
    if (node.attrs.schedule.IsQuantized()) {
      int_ops += ops;
      int_ms += ms;
    } else {
      f32_flops += ops;
      f32_ms += ms;
    }
    predicted.push_back(neocpu::AnalyticConvMs(node.attrs.conv, node.attrs.schedule,
                                               system.model.config().target));
    measured.push_back(ms);
  }
  for (const std::string& family : KernelFamilies()) {
    out->Set("kernels." + family + ".ms_per_inf", family_ms[family]);
  }
  // Rates use operation counts computed from Conv2dParams (2 x MACs), not counters.
  out->Set("kernels.conv_f32.gflops", f32_ms > 0 ? f32_flops / (f32_ms * 1e6) : 0.0,
           "computed from Conv2dParams");
  out->Set("kernels.conv_u8.gops", int_ms > 0 ? int_ops / (int_ms * 1e6) : 0.0,
           "computed from Conv2dParams; u8 and s8 convs");
  out->Set("tuning.rank_corr", Spearman(predicted, measured),
           "over " + std::to_string(predicted.size()) + " convs");
  out->Set("tuning.rank_convs", static_cast<double>(predicted.size()));
  double wall_ms = 0.0;
  for (double ms : traced.latencies_ms) {
    wall_ms += ms;
  }
  wall_ms /= static_cast<double>(std::max<std::size_t>(1, traced.latencies_ms.size()));
  out->Set("core.dispatch_ms", wall_ms - profile.PerRunMs(),
           "mean Run wall minus summed node times");
}

}  // namespace

Outcome RunCnn(const Args& args) {
  Outcome out;
  const bool u8 = IsU8(args);
  const double tolerance = u8 ? kU8Tolerance : kF32Tolerance;
  const std::vector<Tensor> images = SeededInputs(kModel, args.seed, kImages);
  SpanRecorder spans(args.trace);

  // Repeated set-ups: the previous system is released before the next is built, so
  // peak RSS reflects one system.
  std::vector<double> setup_s;
  std::optional<CnnSystem> system;
  const int setups = args.trace ? 1 : (u8 ? kU8SetUps : kF32SetUps);
  for (int i = 0; i < setups; ++i) {
    system.reset();
    const Clock::time_point start = Clock::now();
    system.emplace(SetUp(u8, images[0], &spans));
    setup_s.push_back(MillisBetween(start, Clock::now()) / 1e3);
  }

  if (!args.trace) {
    const LoopResult loop = RunLoop(*system, images, args.seconds, &spans, "closed_loop");
    // Peak RSS is read before the reference compile, so it holds only the system
    // under test (ru_maxrss only grows).
    out.Set("peak_rss_mb", PeakRssMb());
    double worst_diff = 0.0;
    out.attempted = loop.latencies_ms.size();
    out.wrong = CountWrong(loop, ReferenceOutputs(images, system->pool.get()), tolerance,
                           &worst_diff);
    out.failed = out.wrong;
    const std::string n = LatencyNote(loop.latencies_ms.size());
    out.Set("setup_s", Median(setup_s), "median of " + std::to_string(setups) + " set-ups");
    out.Set("latency_p50_ms", BlockedPercentile(loop.latencies_ms, 50), n);
    out.Set("latency_p90_ms", BlockedPercentile(loop.latencies_ms, 90), n);
    std::printf("max |out - reference| = %.3g (tolerance %.3g)\n", worst_diff, tolerance);
    return out;
  }

  // Traced run: an untraced half, then a half with per-node profiling and spans. The
  // end-to-end figures come only from untraced runs; the two halves give the overhead.
  const neocpu::CompileStats& stats = system->model.stats();
  const neocpu::Graph& graph = system->model.graph();
  out.Set("graph.nodes", ExecutedNodes(graph), "executed nodes");
  out.Set("graph.layout_transforms", graph.CountNodes(neocpu::OpType::kLayoutTransform));
  out.Set("graph.qdq_nodes", QdqNodes(graph));
  out.Set("tuning.local_s", stats.tuning_seconds);
  out.Set("tuning.global_s", stats.search_seconds);
  out.Set("tuning.cache_hits", static_cast<double>(stats.tuning_cache_hits));
  out.Set("tuning.cache_misses", static_cast<double>(stats.tuning_cache_misses));
  out.Set("core.compile_s", stats.compile_seconds);
  out.Set("core.arena_mb", static_cast<double>(stats.arena_bytes) / (1 << 20));
  out.Set("runtime.fork_join_us", ForkJoinMicros(*system->pool),
          std::to_string(system->pool->NumWorkers()) + " workers");

  SpanRecorder off(false);
  const LoopResult plain = RunLoop(*system, images, args.seconds / 2, &off, "untraced");
  system->model.EnableProfiling(1);
  const LoopResult traced = RunLoop(*system, images, args.seconds / 2, &spans, "traced");
  const neocpu::NodeProfileSnapshot profile = system->model.ProfileSnapshot();
  system->model.DisableProfiling();
  const std::vector<Tensor> expected = ReferenceOutputs(images, system->pool.get());
  double worst_diff = 0.0;
  out.attempted = plain.latencies_ms.size() + traced.latencies_ms.size();
  out.wrong = CountWrong(plain, expected, tolerance, &worst_diff) +
              CountWrong(traced, expected, tolerance, &worst_diff);
  out.failed = out.wrong;

  const double plain_p50 = BlockedPercentile(plain.latencies_ms, 50);
  out.Set("core.heap_allocs_per_run",
          static_cast<double>(plain.heap_allocs) /
              static_cast<double>(std::max<std::size_t>(1, plain.latencies_ms.size())));
  AddLayerMetrics(*system, profile, traced, &out);
  out.Set("obs.trace_overhead_frac", BlockedPercentile(traced.latencies_ms, 50) / plain_p50 - 1.0,
          "p50, " + LatencyNote(traced.latencies_ms.size()) + " traced vs " +
              LatencyNote(plain.latencies_ms.size()));

  // Scaling last: a one-worker pool pins the calling thread to core 0.
  std::vector<double> single;
  {
    NeoThreadPool one(1);
    for (int i = 0; i < 3; ++i) {
      const Clock::time_point start = Clock::now();
      system->model.Run(images[static_cast<std::size_t>(i) % images.size()], &one);
      single.push_back(MillisBetween(start, Clock::now()));
    }
  }
  const int workers = system->pool->NumWorkers();
  out.Set("runtime.scaling", Median(single) / (workers * plain_p50),
          "1-worker " + std::to_string(Median(single)) + " ms vs " +
              std::to_string(workers) + " workers");

  const std::string trace_path = args.trace_dir + "/" + args.workload + "-seed" +
                                 std::to_string(args.seed) + ".trace.json";
  std::string other = "{\"workload\": \"" + args.workload + "\", \"host\": " +
                      HostStampJson() + ", \"layers\": [";
  bool first = true;
  for (const neocpu::NodeProfile& p : profile.nodes) {
    const neocpu::Node& node = graph.node(p.node_id);
    if (!node.IsConv()) {
      continue;
    }
    char row[512];
    std::snprintf(row, sizeof(row),
                  "%s{\"node\": \"%s\", \"family\": \"%s\", \"schedule\": \"%s\", "
                  "\"measured_ms\": %.5f, \"predicted_ms\": %.5f}",
                  first ? "" : ", ", node.name.c_str(), KernelFamily(node),
                  node.attrs.schedule.ToString().c_str(),
                  p.total_ms / static_cast<double>(std::max<std::uint64_t>(1, p.runs)),
                  neocpu::AnalyticConvMs(node.attrs.conv, node.attrs.schedule,
                                         system->model.config().target));
    other += row;
    first = false;
  }
  other += "]}";
  if (spans.WriteChromeTrace(trace_path, other)) {
    std::printf("wrote %s (%zu spans)\n", trace_path.c_str(), spans.size());
  }
  return out;
}

}  // namespace perfbench
