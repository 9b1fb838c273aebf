// Tests for the observability layer (src/obs): per-node profiler accounting and
// sampling, annotated DOT export structure, metrics registry semantics and thread
// safety, chrome-trace JSON shape, and the serving-tier integration (per-model stats,
// queue depth, profiler attach on live variants).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/base/timer.h"
#include "src/core/compiler.h"
#include "src/core/executor.h"
#include "src/core/presets.h"
#include "src/models/model_zoo.h"
#include "src/obs/graph_dot.h"
#include "src/obs/metrics.h"
#include "src/obs/node_profiler.h"
#include "src/obs/trace.h"
#include "src/serve/inference_server.h"

namespace neocpu {
namespace {

CompiledModel CompileTiny() { return Compile(BuildTinyCnn()); }

Tensor TinyInput(std::uint64_t seed = 11) {
  Rng rng(seed);
  return Tensor::Random({1, 3, 32, 32}, rng, 0.0f, 1.0f, Layout::NCHW());
}

// The servers here are sized for their load, so a shed or a rejection is a test failure.
std::future<Tensor> SubmitOk(InferenceServer& server, Tensor input) {
  SubmitTicket ticket = server.TrySubmit("tiny", std::move(input));
  EXPECT_TRUE(ticket.ok()) << SubmitStatusName(ticket.status);
  return std::move(ticket.result);
}

// ---------------------------------------------------------------- NodeProfiler

TEST(NodeProfiler, TotalsApproximateWallTime) {
  CompiledModel model = CompileTiny();
  model.EnableProfiling(/*sample_rate=*/1);
  const Tensor input = TinyInput();
  model.Run(input);  // warm-up: fault weights/arena outside the timed window

  constexpr int kRuns = 20;
  Timer timer;
  for (int r = 0; r < kRuns; ++r) {
    model.Run(input);
  }
  const double wall_ms = timer.Seconds() * 1e3;
  const NodeProfileSnapshot snap = model.ProfileSnapshot();

  ASSERT_FALSE(snap.empty());
  EXPECT_EQ(snap.runs_total, static_cast<std::uint64_t>(kRuns) + 1);
  EXPECT_EQ(snap.runs_sampled, static_cast<std::uint64_t>(kRuns) + 1);
  // Sum of per-node time can't exceed wall time, and per-node clocks cover the bulk of
  // each Run (everything but scheduling glue). Generous bounds: CI machines are noisy.
  const double warm_ms = snap.total_ms * kRuns / (kRuns + 1.0);  // exclude warm-up's share
  EXPECT_LT(warm_ms, wall_ms * 1.10);
  EXPECT_GT(snap.total_ms, 0.0);
  EXPECT_GT(warm_ms, wall_ms * 0.25);

  // Per-kind totals tie out with the grand total.
  double kind_ms = 0.0;
  for (const OpKindProfile& kind : snap.by_kind) {
    kind_ms += kind.total_ms;
  }
  EXPECT_NEAR(kind_ms, snap.total_ms, snap.total_ms * 1e-6 + 1e-9);
  // Convs dominate a CNN.
  ASSERT_FALSE(snap.by_kind.empty());
  EXPECT_TRUE(snap.by_kind[0].kind.rfind("conv2d", 0) == 0)
      << "hottest kind: " << snap.by_kind[0].kind;
}

// The NCHW baselines are profiled and drawn by the algorithm that runs: im2col for the
// framework default, the reference loop for Table 3's baseline row. Their dense runs
// the packed f32 GEMM at the fixed blocking.
TEST(NodeProfiler, BaselineConvsAreLabelledByTheirAlgorithm) {
  const std::pair<CompileOptions, std::string> cases[] = {
      {FrameworkDefaultOptions(Target::Host()), "im2col"},
      {AblationBaselineNchw(Target::Host()), "reference"}};
  for (const auto& [options, algo] : cases) {
    CompiledModel model = Compile(BuildTinyCnn(), options);
    model.EnableProfiling(/*sample_rate=*/1);
    model.Run(TinyInput());
    std::vector<std::string> conv_kinds, dense_kinds;
    for (const OpKindProfile& kind : model.ProfileSnapshot().by_kind) {
      if (kind.kind.rfind("conv2d", 0) == 0) {
        conv_kinds.push_back(kind.kind);
      } else if (kind.kind.rfind("dense", 0) == 0) {
        dense_kinds.push_back(kind.kind);
      }
    }
    EXPECT_EQ(conv_kinds, std::vector<std::string>{"conv2d/" + algo});
    EXPECT_EQ(dense_kinds, std::vector<std::string>{"dense/gemm-f32"}) << algo;
    const std::string dot = CompiledModelToDot(model);
    EXPECT_NE(dot.find("algo=" + algo), std::string::npos) << algo;
    EXPECT_EQ(dot.find("ic_bn="), std::string::npos) << algo;
    EXPECT_NE(dot.find("mc=64 nc=256 kc=256 mr=4 nr=16"), std::string::npos) << algo;
  }
}

TEST(NodeProfiler, SamplingTimesOneRunInN) {
  CompiledModel model = CompileTiny();
  model.EnableProfiling(/*sample_rate=*/4);
  const Tensor input = TinyInput();
  for (int r = 0; r < 8; ++r) {
    model.Run(input);
  }
  const NodeProfileSnapshot snap = model.ProfileSnapshot();
  EXPECT_EQ(snap.runs_total, 8u);
  EXPECT_EQ(snap.runs_sampled, 2u);  // runs 0 and 4
  for (const NodeProfile& node : snap.nodes) {
    EXPECT_EQ(node.runs, 2u) << node.name;
  }
}

TEST(NodeProfiler, DisabledProfilerCostsNothingAndRecordsNothing) {
  CompiledModel model = CompileTiny();
  EXPECT_EQ(model.profiler(), nullptr);
  const Tensor input = TinyInput();
  model.Run(input);
  EXPECT_TRUE(model.ProfileSnapshot().empty());

  Executor executor(&model.graph(), nullptr, model.plan());
  EXPECT_FALSE(executor.profiling_enabled());
}

TEST(NodeProfiler, MergeUnionsVariantSnapshots) {
  CompiledModel model = CompileTiny();
  NodeProfiler a(1), b(1);
  a.RegisterGraph(model.graph());
  b.RegisterGraph(model.graph());
  const Tensor input = TinyInput();

  Executor ea(&model.graph(), nullptr, model.plan());
  ea.SetProfiler(&a);
  ea.Run(input);
  Executor eb(&model.graph(), nullptr, model.plan());
  eb.SetProfiler(&b);
  eb.Run(input);
  eb.Run(input);

  const NodeProfileSnapshot merged = MergeProfileSnapshots({a.Snapshot(), b.Snapshot()});
  EXPECT_EQ(merged.runs_total, 3u);
  EXPECT_EQ(merged.runs_sampled, 3u);
  for (const NodeProfile& node : merged.nodes) {
    EXPECT_EQ(node.runs, 3u) << node.name;
  }
  EXPECT_NEAR(merged.total_ms, a.Snapshot().total_ms + b.Snapshot().total_ms, 1e-9);
}

// ---------------------------------------------------------------- DOT export

// Structural validation mirroring what CI does without graphviz: declared node/edge
// counts in the header comment, one "nI [" line per declared node, balanced braces.
void ValidateDotStructure(const std::string& dot, int* nodes_out = nullptr) {
  int declared_nodes = 0, declared_edges = 0;
  ASSERT_EQ(std::sscanf(dot.c_str(), "/* neocpu-dot nodes=%d edges=%d */",
                        &declared_nodes, &declared_edges),
            2)
      << "missing machine-readable header: " << dot.substr(0, 80);
  int braces = 0, node_lines = 0, edge_lines = 0;
  std::size_t pos = 0;
  while (pos < dot.size()) {
    std::size_t eol = dot.find('\n', pos);
    if (eol == std::string::npos) {
      eol = dot.size();
    }
    const std::string line = dot.substr(pos, eol - pos);
    for (char c : line) {
      braces += c == '{' ? 1 : (c == '}' ? -1 : 0);
    }
    if (line.find(" [label=") != std::string::npos && line.rfind("  n", 0) == 0) {
      ++node_lines;
    }
    if (line.find(" -> ") != std::string::npos) {
      ++edge_lines;
    }
    pos = eol + 1;
  }
  EXPECT_EQ(braces, 0) << "unbalanced braces";
  EXPECT_EQ(node_lines, declared_nodes);
  EXPECT_EQ(edge_lines, declared_edges);
  if (nodes_out != nullptr) {
    *nodes_out = declared_nodes;
  }
}

TEST(GraphDot, ExportsEveryCompiledNodeWithAnnotations) {
  CompiledModel model = CompileTiny();
  const std::string dot = CompiledModelToDot(model);

  int declared_nodes = 0;
  ValidateDotStructure(dot, &declared_nodes);
  int expected = 0;
  for (int id = 0; id < model.graph().num_nodes(); ++id) {
    expected += model.graph().node(id).type != OpType::kConstant ? 1 : 0;
  }
  EXPECT_EQ(declared_nodes, expected);

  // Decision annotations: conv algorithm + schedule blocking, dtype, arena placement.
  EXPECT_NE(dot.find("algo="), std::string::npos);
  EXPECT_NE(dot.find("ic_bn="), std::string::npos);
  EXPECT_NE(dot.find("dtype="), std::string::npos);
  EXPECT_NE(dot.find("arena +"), std::string::npos);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
}

TEST(GraphDot, ProfileOverlayAddsTimeShares) {
  CompiledModel model = CompileTiny();
  model.EnableProfiling(1);
  const Tensor input = TinyInput();
  model.Run(input);
  const NodeProfileSnapshot profile = model.ProfileSnapshot();
  const std::string dot = CompiledModelToDot(model, &profile);
  ValidateDotStructure(dot);
  EXPECT_NE(dot.find("us/run"), std::string::npos);
  EXPECT_NE(dot.find("profiled:"), std::string::npos);
}

TEST(GraphDot, IncludeConstantsExportsFullGraph) {
  CompiledModel model = CompileTiny();
  GraphDotOptions options;
  options.include_constants = true;
  options.plan = model.plan().get();
  const std::string dot = GraphToDot(model.graph(), options);
  int declared_nodes = 0;
  ValidateDotStructure(dot, &declared_nodes);
  EXPECT_EQ(declared_nodes, model.graph().num_nodes());
}

// ---------------------------------------------------------------- metrics registry

TEST(Metrics, CountersAreExactUnderConcurrency) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("test_concurrent_total", "concurrency test");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        counter->Increment();
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(counter->Value(), static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(Metrics, RegistrationIsIdempotentWithStablePointers) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("test_idem_total", "first");
  Counter* b = registry.GetCounter("test_idem_total", "second registration ignored");
  EXPECT_EQ(a, b);
  Gauge* g1 = registry.GetGauge("test_gauge", "g");
  Gauge* g2 = registry.GetGauge("test_gauge", "g");
  EXPECT_EQ(g1, g2);
}

TEST(Metrics, GaugeSetAndAdd) {
  MetricsRegistry registry;
  Gauge* gauge = registry.GetGauge("test_gauge_value", "g");
  gauge->Set(10.0);
  gauge->Add(5.0);
  gauge->Add(-3.0);
  EXPECT_DOUBLE_EQ(gauge->Value(), 12.0);
}

TEST(Metrics, HistogramBucketsAreCumulativeInExport) {
  MetricsRegistry registry;
  Histogram* hist =
      registry.GetHistogram("test_hist", {1.0, 2.0, 4.0}, "bucket test");
  for (double v : {0.5, 1.5, 1.5, 3.0, 100.0}) {
    hist->Observe(v);
  }
  const HistogramSnapshot snap = hist->Snapshot();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.sum, 106.5);
  // Per-bucket (non-cumulative) internal counts: <=1: 1, <=2: 2, <=4: 1, +Inf: 1.
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);

  const std::string prom = registry.Export(MetricsFormat::kPrometheus);
  EXPECT_NE(prom.find("test_hist_bucket{le=\"2\"} 3"), std::string::npos) << prom;
  EXPECT_NE(prom.find("test_hist_bucket{le=\"+Inf\"} 5"), std::string::npos) << prom;
  EXPECT_NE(prom.find("test_hist_count 5"), std::string::npos) << prom;
}

TEST(Metrics, JsonExportIsWellFormedAndComplete) {
  MetricsRegistry registry;
  registry.GetCounter("test_json_total", "c")->Increment();
  registry.GetGauge("test_json_gauge", "g")->Set(2.5);
  registry.GetHistogram("test_json_hist", {1.0}, "h")->Observe(0.5);
  const std::string json = registry.Export(MetricsFormat::kJson);
  // Structural sanity: balanced braces/brackets, all three metrics present.
  int braces = 0, brackets = 0;
  for (char c : json) {
    braces += c == '{' ? 1 : (c == '}' ? -1 : 0);
    brackets += c == '[' ? 1 : (c == ']' ? -1 : 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_NE(json.find("\"test_json_total\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test_json_gauge\": 2.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test_json_hist\""), std::string::npos) << json;
}

TEST(Metrics, GlobalRegistryServesTheProcess) {
  Counter* counter =
      MetricsRegistry::Global().GetCounter("neocpu_obs_test_total", "obs test counter");
  const std::uint64_t before = counter->Value();
  counter->Increment();
  EXPECT_EQ(counter->Value(), before + 1);
  EXPECT_NE(MetricsExport(MetricsFormat::kJson).find("neocpu_obs_test_total"),
            std::string::npos);
}

// ---------------------------------------------------------------- chrome trace

TEST(Trace, SpansNestAndJsonIsValid) {
  CompiledModel model = CompileTiny();
  TraceRecorder tracer;
  Executor executor(&model.graph(), nullptr, model.plan());
  executor.SetTracer(&tracer);
  const Tensor input = TinyInput();

  const auto run_begin = TraceRecorder::Clock::now();
  executor.Run(input);
  const auto run_end = TraceRecorder::Clock::now();
  tracer.RecordSpan("serve", "run", run_begin, run_end, "\"batch\":1");

  int executed = 0;
  for (int id = 0; id < model.graph().num_nodes(); ++id) {
    const OpType type = model.graph().node(id).type;
    executed += (type != OpType::kInput && type != OpType::kConstant) ? 1 : 0;
  }
  EXPECT_EQ(tracer.size(), static_cast<std::size_t>(executed) + 1);
  EXPECT_EQ(tracer.dropped(), 0u);

  const std::string json = tracer.ToJson();
  // Balanced structure + required chrome-trace fields.
  int braces = 0, brackets = 0;
  for (char c : json) {
    braces += c == '{' ? 1 : (c == '}' ? -1 : 0);
    brackets += c == '[' ? 1 : (c == ']' ? -1 : 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\": "), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"batch\":1}"), std::string::npos);

  // Nesting: every node span lies inside the enclosing run span's [ts, ts+dur].
  const double run_ts =
      std::chrono::duration<double, std::micro>(run_begin - tracer.epoch()).count();
  const double run_dur =
      std::chrono::duration<double, std::micro>(run_end - run_begin).count();
  for (const TraceRecorder::Event& event : tracer.events()) {
    if (event.category == std::string("node")) {
      EXPECT_GE(event.ts_us, run_ts - 1e-3) << event.name;
      EXPECT_LE(event.ts_us + event.dur_us, run_ts + run_dur + 1e-3) << event.name;
    }
  }
}

TEST(Trace, BoundedBufferCountsDrops) {
  TraceRecorder tracer(/*max_events=*/4);
  const auto now = TraceRecorder::Clock::now();
  for (int i = 0; i < 10; ++i) {
    tracer.RecordSpan("t", "e", now, now);
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  tracer.Clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

// ---------------------------------------------------------------- serving integration

TEST(ServingObservability, PerModelStatsAndQueueDepth) {
  ServerOptions options;
  options.num_executors = 1;
  options.bind_threads = false;
  options.profile_sample_rate = 1;
  InferenceServer server(options);
  server.RegisterModel("tiny", CompileTiny());

  std::vector<std::future<Tensor>> futures;
  for (int r = 0; r < 6; ++r) {
    futures.push_back(SubmitOk(server, TinyInput(static_cast<std::uint64_t>(r))));
  }
  for (std::future<Tensor>& f : futures) {
    f.wait();
  }
  server.WaitForRetunes();

  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.completed, 6u);
  EXPECT_EQ(stats.queue_depth_now, 0u);
  ASSERT_EQ(stats.per_model.size(), 1u);
  EXPECT_EQ(stats.per_model[0].name, "tiny");
  EXPECT_GT(stats.per_model[0].profiled_runs, 0u);
  EXPECT_GT(stats.per_model[0].profile_ms_per_run, 0.0);
  // The new fields render.
  const std::string text = stats.ToString();
  EXPECT_NE(text.find("queue_depth=0"), std::string::npos) << text;
  EXPECT_NE(text.find("model tiny:"), std::string::npos) << text;
  EXPECT_NE(text.find("profiled{"), std::string::npos) << text;

  // The profile covers the per-batch variants the batcher exercised.
  ModelEntry* entry = server.registry().Find("tiny");
  ASSERT_NE(entry, nullptr);
  const NodeProfileSnapshot profile = entry->ProfileSnapshot();
  EXPECT_FALSE(profile.empty());
  EXPECT_GE(profile.runs_sampled, 1u);
}

TEST(ServingObservability, ProfilingAttachesToLiveVariants) {
  ServerOptions options;
  options.num_executors = 1;
  options.bind_threads = false;  // profiling off at construction
  InferenceServer server(options);
  server.RegisterModel("tiny", CompileTiny());
  SubmitOk(server, TinyInput()).wait();
  EXPECT_EQ(server.Stats().per_model[0].profiled_runs, 0u);

  // Enable on a registry whose variants are already serving.
  server.registry().ConfigureProfiling(1);
  SubmitOk(server, TinyInput()).wait();
  server.WaitForRetunes();
  EXPECT_GT(server.Stats().per_model[0].profiled_runs, 0u);
}

}  // namespace
}  // namespace neocpu
