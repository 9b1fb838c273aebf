// Serving quickstart: compile once, serve concurrent traffic, verify bit-exactness.
//
//   ./serving_demo [model] [clients] [requests_per_client]
//
// Four (or more) client threads submit single-image requests through
// InferenceServer::TrySubmit while the dynamic batcher merges compatible requests and
// an executor pool runs them on disjoint core partitions. Every served result is
// compared against a serial Executor::Run of the same input — the demo prints whether
// all results were bit-identical, then the serving stats (throughput, batching,
// p50/p99). A request the server does not admit is reported with its verdict and makes
// the demo exit non-zero.
//
// Observability (opt-in via environment):
//   NEOCPU_DEMO_PROFILE  per-node profile sample rate (0=off); prints the hottest ops
//   NEOCPU_DEMO_DOT      write the annotated DOT graph (heat overlay when profiling)
//   NEOCPU_DEMO_TRACE    write a chrome://tracing JSON of the run
//   NEOCPU_DEMO_METRICS  dump the metrics registry ("json" | "prometheus")
#include <cstdio>
#include <fstream>
#include <thread>

#include "src/neocpu.h"

int main(int argc, char** argv) {
  using namespace neocpu;
  const std::string model_name = argc > 1 ? argv[1] : "tiny-cnn";
  const int num_clients = argc > 2 ? std::atoi(argv[2]) : 4;
  const int per_client = argc > 3 ? std::atoi(argv[3]) : 8;
  const char* profile_env = std::getenv("NEOCPU_DEMO_PROFILE");
  const std::uint32_t profile_rate =
      profile_env != nullptr ? static_cast<std::uint32_t>(std::atoi(profile_env)) : 0;
  const char* trace_env = std::getenv("NEOCPU_DEMO_TRACE");
  TraceRecorder tracer;

  std::printf("Compiling %s...\n", model_name.c_str());
  CompiledModel compiled = Compile(BuildModel(model_name));

  // Pre-compute every request input and its serial reference output.
  std::vector<std::vector<Tensor>> inputs(static_cast<std::size_t>(num_clients));
  std::vector<std::vector<Tensor>> expected(static_cast<std::size_t>(num_clients));
  for (int c = 0; c < num_clients; ++c) {
    for (int r = 0; r < per_client; ++r) {
      Rng rng(static_cast<std::uint64_t>(1 + c * 1000 + r));
      Tensor input =
          Tensor::Random(ModelInputDims(model_name), rng, 0.0f, 1.0f, Layout::NCHW());
      expected[static_cast<std::size_t>(c)].push_back(compiled.Run(input));
      inputs[static_cast<std::size_t>(c)].push_back(std::move(input));
    }
  }

  ServerOptions options;
  options.batching.max_batch_size = 8;
  options.batching.max_delay_ms = 2.0;
  options.profile_sample_rate = profile_rate;
  options.tracer = trace_env != nullptr ? &tracer : nullptr;
  InferenceServer server(options);
  ModelEntry* entry = server.RegisterModel(model_name, std::move(compiled));
  std::printf("Serving with %d executor partition(s) on %d core(s); %d clients x %d "
              "requests...\n",
              server.num_executors(), HostCpuInfo().physical_cores, num_clients,
              per_client);

  std::vector<std::vector<SubmitTicket>> tickets(static_cast<std::size_t>(num_clients));
  std::vector<std::thread> clients;
  Timer timer;
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < per_client; ++r) {
        tickets[static_cast<std::size_t>(c)].push_back(server.TrySubmit(
            model_name, inputs[static_cast<std::size_t>(c)][static_cast<std::size_t>(r)]));
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }

  int mismatches = 0;
  int rejected = 0;
  for (int c = 0; c < num_clients; ++c) {
    for (int r = 0; r < per_client; ++r) {
      SubmitTicket& ticket =
          tickets[static_cast<std::size_t>(c)][static_cast<std::size_t>(r)];
      if (!ticket.ok()) {
        std::fprintf(stderr, "client %d request %d not admitted: %s\n", c, r,
                     SubmitStatusName(ticket.status));
        ++rejected;
        continue;
      }
      Tensor got = ticket.result.get();
      if (Tensor::MaxAbsDiff(
              got, expected[static_cast<std::size_t>(c)][static_cast<std::size_t>(r)]) !=
          0.0) {
        ++mismatches;
      }
    }
  }
  const double seconds = timer.Seconds();
  const int total = num_clients * per_client;

  const ServerStats stats = server.Stats();
  std::printf("\n%d requests in %.1f ms  (%.1f req/s)\n", total, seconds * 1e3,
              static_cast<double>(total) / seconds);
  std::printf("%s\n", stats.ToString().c_str());
  const bool ok = mismatches == 0 && rejected == 0;
  std::printf("bit-identical to serial Executor::Run: %s\n",
              ok ? "YES (all requests)" : "NO");

  if (profile_rate > 0) {
    const NodeProfileSnapshot profile = entry->ProfileSnapshot();
    std::printf("\nper-node profile (sample rate %u):\n%s", profile_rate,
                profile.ToString().c_str());
    const char* dot_env = std::getenv("NEOCPU_DEMO_DOT");
    if (dot_env != nullptr) {
      std::ofstream dot(dot_env);
      dot << CompiledModelToDot(*entry->VariantFor(1)->model, &profile);
      std::printf("wrote %s\n", dot_env);
    }
  }
  if (trace_env != nullptr && tracer.WriteFile(trace_env)) {
    std::printf("wrote %s (%zu trace events)\n", trace_env, tracer.size());
  }
  const char* metrics_env = std::getenv("NEOCPU_DEMO_METRICS");
  if (metrics_env != nullptr) {
    const MetricsFormat format = std::string(metrics_env) == "prometheus"
                                     ? MetricsFormat::kPrometheus
                                     : MetricsFormat::kJson;
    std::printf("\nmetrics registry:\n%s", MetricsExport(format).c_str());
  }
  return ok ? 0 : 1;
}
