// dump_model: inspect a compiled NeoCPU model from the command line.
//
//   dump_model --zoo tiny-cnn --dot model.dot --profile-runs 8
//   dump_model --module resnet18.neoc --dot - --metrics prometheus
//
// Loads a serialized module (--module) or compiles a zoo model in-process (--zoo),
// prints a compile/plan summary, and optionally:
//   --dot PATH           write the annotated Graphviz export ("-" = stdout); includes
//                        the profile heat overlay when --profile-runs ran
//   --profile-runs N     run N inferences with per-node profiling and print the
//                        hottest ops/nodes
//   --trace PATH         write a chrome://tracing JSON of the profiled runs
//   --metrics FORMAT     dump the process metrics registry (json | prometheus)
//   --batch N            batch size for --zoo compilation, 1..4096 (default 1)
//   --quantize           force-quantize the --zoo model to u8 activations x s8 weights
//                        (int8 serving path)
//   --policy P           calibration policy for --quantize: minmax | percentile |
//                        entropy                                 (default minmax)
//   --quantize-dense     also quantize dense layers (u8 packed GEMM)
// --policy and --quantize-dense require --quantize. A --zoo name or batch the
// model zoo cannot build (ModelBuildError) is bad usage.
//
// Exit status: 0 on success, 1 on bad usage or I/O failure.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "src/base/cycle_clock.h"
#include "src/base/rng.h"
#include "src/core/compiler.h"
#include "src/kernels/conv_nchwc.h"
#include "src/kernels/conv_nchwc_int8.h"
#include "src/core/serialization.h"
#include "src/models/model_zoo.h"
#include "src/obs/graph_dot.h"
#include "src/obs/metrics.h"
#include "src/obs/node_profiler.h"
#include "src/obs/trace.h"
#include "src/tensor/tensor.h"

namespace neocpu {
namespace {

// The batch size feeds int64 size and cost arithmetic, which overflows for huge values;
// this bound is far above any serving batch.
constexpr long long kMaxBatch = 4096;

int Usage(const char* argv0) {
  std::string names;
  for (const std::string& name : BuildModelNames()) {
    names += (names.empty() ? "" : ", ") + name;
  }
  std::fprintf(stderr,
               "usage: %s (--module PATH | --zoo NAME) [--batch N]\n"
               "          [--quantize [--policy minmax|percentile|entropy]\n"
               "                      [--quantize-dense]]\n"
               "          [--dot PATH] [--profile-runs N] [--trace PATH]\n"
               "          [--metrics json|prometheus]\n"
               "zoo models: %s\n",
               argv0, names.c_str());
  return 1;
}

// The graph's single input, as a deterministic random tensor.
Tensor MakeInput(const Graph& graph) {
  for (int id = 0; id < graph.num_nodes(); ++id) {
    const Node& node = graph.node(id);
    if (node.type == OpType::kInput) {
      Rng rng(7);
      return Tensor::Random(node.out_dims, rng, 0.0f, 1.0f, node.out_layout);
    }
  }
  LOG(FATAL) << "graph has no input node";
  return Tensor();
}

// `loaded`: the model came from a module, so its stats describe the load-time lowering.
void PrintSummary(const CompiledModel& model, bool loaded) {
  const Graph& graph = model.graph();
  const CompileStats& stats = model.stats();
  int convs = 0, transforms = 0, constants = 0;
  for (int id = 0; id < graph.num_nodes(); ++id) {
    const Node& node = graph.node(id);
    convs += node.IsConv() ? 1 : 0;
    transforms += node.type == OpType::kLayoutTransform ? 1 : 0;
    constants += node.type == OpType::kConstant ? 1 : 0;
  }
  std::printf("model: %s\n", graph.name.empty() ? "(unnamed)" : graph.name.c_str());
  std::printf("  nodes: %d (%d convs, %d layout transforms, %d constants)\n",
              graph.num_nodes(), convs, transforms, constants);
  std::printf("  quantized convs: %d/%d\n", stats.num_quantized_convs, stats.num_convs);
  if (stats.num_dense > 0) {
    std::printf("  tuned dense: %d (%d int8)\n", stats.num_dense,
                stats.num_quantized_dense);
  }
  if (model.config().quantize) {
    std::printf("  calibration policy: %s\n",
                CalibrationPolicyName(model.config().calibration_policy));
  }
  std::printf("  f32 conv kernel tier: %s; int8 kernel tier: %s; cycle clock: %s\n",
              ConvNCHWcIsaName(), ConvNCHWcS8IsaName(),
              CycleClock::Supported() ? "tsc" : "steady_clock");
  std::printf("  tuned batch: %lld%s\n", static_cast<long long>(stats.tuned_batch),
              stats.retuned ? " (retuned)" : "");
  const ExecutionPlan& plan = *model.plan();
  std::printf("  memory plan: arena %zu B (naive %zu B), %d arena / %d alias / %d heap\n",
              plan.arena_bytes, plan.naive_bytes, plan.arena_nodes, plan.alias_nodes,
              plan.heap_nodes);
  if (loaded) {
    // A warm start re-lowers from the embedded tuning cache; 0 misses = no search ran.
    std::printf("  load-time lowering: %.1f ms, tuning cache %llu hits / %llu misses\n",
                stats.compile_seconds * 1e3,
                static_cast<unsigned long long>(stats.tuning_cache_hits),
                static_cast<unsigned long long>(stats.tuning_cache_misses));
  }
}

// Per-layer quantization detail: what each quantized layer reads and writes (u8, or
// f32 where the epilogue dequantizes), with the zero points the bias fold absorbed.
void PrintQuantLayers(const CompiledModel& model) {
  const Graph& graph = model.graph();
  bool any = false;
  for (int id = 0; id < graph.num_nodes(); ++id) {
    const Node& node = graph.node(id);
    if (!node.attrs.qconv.enabled) {
      continue;
    }
    if (!any) {
      std::printf("\nquantized layers (activation -> output):\n");
      any = true;
    }
    const ConvQuant& q = node.attrs.qconv;
    std::printf("  %-28s u8(zp=%d) -> %s(zp=%d)\n",
                node.name.empty() ? "(unnamed)" : node.name.c_str(), q.in_zero,
                q.requant ? "u8" : "f32", q.requant ? q.out_zero : 0);
  }
}

// Per-layer tuned-GEMM detail: the frozen M/N/K each dense was searched at and the
// winning (mc, nc, kc; mr x nr; dtype) schedule it executes.
void PrintDenseLayers(const CompiledModel& model) {
  const Graph& graph = model.graph();
  bool any = false;
  for (int id = 0; id < graph.num_nodes(); ++id) {
    const Node& node = graph.node(id);
    if (node.type != OpType::kDense || !node.attrs.has_gemm) {
      continue;
    }
    if (!any) {
      std::printf("\ntuned dense layers (M x N x K -> schedule):\n");
      any = true;
    }
    const DenseParams& d = node.attrs.dense;
    std::printf("  %-28s %lldx%lldx%lld -> %s\n",
                node.name.empty() ? "(unnamed)" : node.name.c_str(),
                static_cast<long long>(d.m), static_cast<long long>(d.n),
                static_cast<long long>(d.k), node.attrs.gemm.ToString().c_str());
  }
}

}  // namespace
}  // namespace neocpu

int main(int argc, char** argv) {
  using namespace neocpu;

  std::string module_path, zoo_name, dot_path, trace_path, metrics_format;
  long long batch = 1;
  int profile_runs = 0;
  bool quantize = false;
  bool quantize_dense = false;
  std::string policy;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", arg.c_str());
        std::exit(Usage(argv[0]));
      }
      return argv[++i];
    };
    if (arg == "--module") {
      module_path = next();
    } else if (arg == "--zoo") {
      zoo_name = next();
    } else if (arg == "--batch") {
      const char* value = next();
      char* end = nullptr;
      batch = std::strtoll(value, &end, 10);
      if (end == value || *end != '\0' || batch < 1 || batch > kMaxBatch) {
        std::fprintf(stderr, "--batch must be an integer in [1, %lld], got '%s'\n",
                     kMaxBatch, value);
        return Usage(argv[0]);
      }
    } else if (arg == "--quantize") {
      quantize = true;
    } else if (arg == "--policy") {
      policy = next();
    } else if (arg == "--quantize-dense") {
      quantize_dense = true;
    } else if (arg == "--dot") {
      dot_path = next();
    } else if (arg == "--profile-runs") {
      profile_runs = std::atoi(next());
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--metrics") {
      metrics_format = next();
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return Usage(argv[0]);
    }
  }
  if (module_path.empty() == zoo_name.empty()) {  // exactly one source required
    return Usage(argv[0]);
  }
  if (!quantize && (!policy.empty() || quantize_dense)) {
    std::fprintf(stderr, "--policy and --quantize-dense require --quantize\n");
    return Usage(argv[0]);
  }
  if (!zoo_name.empty()) {
    const std::string error = ModelBuildError(zoo_name, batch);
    if (!error.empty()) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return Usage(argv[0]);
    }
  }

  CompiledModel model;
  if (!module_path.empty()) {
    if (!LoadModule(module_path, &model)) {
      std::fprintf(stderr, "failed to load module '%s'\n", module_path.c_str());
      return 1;
    }
  } else {
    CompileOptions options;
    if (quantize) {
      options.quantize = true;
      options.force_quantize = true;
      options.quantize_dense = quantize_dense;
      if (policy == "percentile") {
        options.calibration_policy = CalibrationPolicy::kPercentile;
      } else if (policy == "entropy") {
        options.calibration_policy = CalibrationPolicy::kEntropy;
      } else if (!policy.empty() && policy != "minmax") {
        std::fprintf(stderr, "unknown calibration policy: %s\n", policy.c_str());
        return Usage(argv[0]);
      }
    }
    model = Compile(BuildModel(zoo_name, batch), options);
  }

  PrintSummary(model, /*loaded=*/!module_path.empty());
  PrintDenseLayers(model);
  PrintQuantLayers(model);

  NodeProfileSnapshot profile;
  TraceRecorder tracer;
  if (profile_runs > 0) {
    model.EnableProfiling(/*sample_rate=*/1);
    // A dedicated executor so the trace hook rides along with the profiler.
    Executor executor(&model.graph(), /*engine=*/nullptr, model.plan());
    executor.SetProfiler(model.profiler());
    if (!trace_path.empty()) {
      executor.SetTracer(&tracer);
    }
    const Tensor input = MakeInput(model.graph());
    for (int r = 0; r < profile_runs; ++r) {
      executor.Run(input);
    }
    profile = model.ProfileSnapshot();
    std::printf("\n%s", profile.ToString().c_str());
  }

  if (!dot_path.empty()) {
    const std::string dot =
        CompiledModelToDot(model, profile.empty() ? nullptr : &profile);
    if (dot_path == "-") {
      std::fputs(dot.c_str(), stdout);
    } else {
      std::ofstream out(dot_path);
      if (!out) {
        std::fprintf(stderr, "failed to open '%s'\n", dot_path.c_str());
        return 1;
      }
      out << dot;
      if (!out.flush()) {
        std::fprintf(stderr, "failed to write '%s'\n", dot_path.c_str());
        return 1;
      }
      std::printf("wrote %s\n", dot_path.c_str());
    }
  }

  if (!trace_path.empty()) {
    if (profile_runs <= 0) {
      std::fprintf(stderr, "--trace requires --profile-runs\n");
      return 1;
    }
    if (!tracer.WriteFile(trace_path)) {
      std::fprintf(stderr, "failed to write '%s'\n", trace_path.c_str());
      return 1;
    }
    std::printf("wrote %s (%zu events)\n", trace_path.c_str(), tracer.size());
  }

  if (!metrics_format.empty()) {
    const MetricsFormat format = metrics_format == "prometheus"
                                     ? MetricsFormat::kPrometheus
                                     : MetricsFormat::kJson;
    std::fputs(MetricsExport(format).c_str(), stdout);
  }
  return 0;
}
