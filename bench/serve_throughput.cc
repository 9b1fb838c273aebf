// Serving-performance baseline: throughput and latency percentiles versus dynamic-batch
// size and executor-pool width.
//
//   ./bench_serve_throughput
//
// The sweep crosses pool width {1, 2, 4 (when cores allow)} with max_batch {1, 4, 8} on
// batch-1 traffic, reproducing the Figure-4-style comparison at the serving layer: on a
// multi-core host, two executors on half the cores each should beat one executor
// spanning every core for small-input traffic, and batching should lift throughput
// further at some p99 cost. Knobs:
//   NEOCPU_SERVE_MODEL     model to serve                     (default tiny-cnn)
//   NEOCPU_SERVE_REQUESTS  requests per configuration         (default 64)
//   NEOCPU_SERVE_CLIENTS   client threads generating traffic  (default 8)
//   NEOCPU_BENCH_JSON      machine-readable output path       (default BENCH_serve.json)
//   NEOCPU_SERVE_PROFILE   per-node profile sample rate, 0=off (default 0); the last
//                          configuration's per-op breakdown is printed
//   NEOCPU_SERVE_DOT       with profiling on: write the annotated DOT (heat overlay
//                          from the last configuration's profile) to this path
//   NEOCPU_SERVE_TRACE     write a chrome://tracing JSON of the whole sweep here
//   NEOCPU_SERVE_METRICS   dump the metrics registry on exit ("json" | "prometheus")
//
// A second section exercises the wire front end (src/serve/frontend) end to end over
// loopback TCP: a closed-loop leg (fixed client concurrency, zero think time) that
// establishes the socket-path capacity, then open-loop legs with Poisson arrivals at
// 0.5x and 2.0x that capacity against a small admission queue — the overload leg is
// where shedding and the accepted-tail bound are measured (p50/p99/p999 + shed rate,
// gated by tools/check_bench_trend.py). Knobs:
//   NEOCPU_WIRE            "0" skips the wire section          (default on)
//   NEOCPU_WIRE_REQUESTS   requests per wire leg               (default 240)
//   NEOCPU_WIRE_CONNS      concurrent client connections       (default 6)
//   NEOCPU_WIRE_QUEUE      admission queue_limit for the legs  (default 8)
//
// Besides the human-readable table, every run writes the full sweep as JSON (one record
// per configuration: throughput, p50/p99/mean latency, batching counters, background
// re-tunes and the tuning-cache hit rate) so CI can track the perf trajectory across
// PRs.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <thread>

#include "bench/bench_util.h"
#include "src/serve/frontend/frontend_server.h"
#include "src/serve/frontend/wire_client.h"

namespace neocpu {
namespace {

struct ConfigResult {
  int pool_width = 0;
  std::int64_t max_batch = 0;
  const char* dtype = "f32";  // execution dtype of the served model ("f32" / "int8")
  double throughput_rps = 0.0;
  ServerStats stats;
  // Cache traffic attributable to THIS configuration: a before/after delta on the
  // registry-wide shared TuningCache (registration re-points every model at it, so
  // that cache — not the caller's compile-time one — sees all serving-side lookups).
  TuningCacheStats cache_delta;
  // Memory-planner observability: owning tensor-buffer heap allocations per inference
  // during the timed section (the planned path collapses this to ~1 — the escaping
  // output — plus batch staging), and the plan's arena footprint.
  double heap_allocs_per_request = 0.0;
  // Per-node profile of this configuration's serving (empty unless profiling is on).
  NodeProfileSnapshot profile;
};

// The in-process sweep never overloads admission on purpose: a shed or a rejection
// means the configuration is broken, so it aborts the run instead of skewing it.
std::future<Tensor> SubmitAccepted(InferenceServer& server, const std::string& model,
                                   const Tensor& input) {
  SubmitTicket ticket = server.TrySubmit(model, input);
  NEOCPU_CHECK(ticket.ok()) << model << ": request not admitted ("
                            << SubmitStatusName(ticket.status) << ")";
  return std::move(ticket.result);
}

ConfigResult RunConfig(const CompiledModel& model, const std::string& model_name,
                       int pool_width, std::int64_t max_batch, int num_clients,
                       int num_requests, std::uint32_t profile_rate,
                       TraceRecorder* tracer) {
  ServerOptions options;
  options.num_executors = pool_width;
  options.batching.max_batch_size = max_batch;
  options.batching.max_delay_ms = 2.0;
  options.profile_sample_rate = profile_rate;
  options.tracer = tracer;
  InferenceServer server(options);
  ModelEntry* entry = server.RegisterModel(model_name, model);
  const std::shared_ptr<TuningCache> cache = server.registry().shared_tuning_cache();
  const TuningCacheStats cache_before = cache != nullptr ? cache->Stats() : TuningCacheStats{};

  Rng rng(99);
  Tensor input = Tensor::Random(ModelInputDims(model_name), rng, 0.0f, 1.0f, Layout::NCHW());

  // Warm-up: fault in weights, materialize the dominant batch variant, and let its
  // background re-tune land, so the timed section measures the per-batch-tuned steady
  // state rather than racing a re-tune. (Partial batches below max_batch can still
  // materialize mid-run; they are stragglers, not the steady state.)
  SubmitAccepted(server, model_name, input).wait();
  if (entry->batchable() && max_batch > 1) {
    entry->VariantFor(max_batch);
  }
  server.WaitForRetunes();
  // Freeze re-tuning for the timed section: a straggler partial batch (1 < n <
  // max_batch) materializing mid-run would otherwise kick off a background re-tune
  // whose search allocations land inside the heap_allocs_per_request window and whose
  // compute competes with serving.
  RetuneOptions frozen;
  frozen.enabled = false;
  server.registry().ConfigureRetune(frozen);

  std::vector<std::thread> clients;
  std::vector<std::vector<std::future<Tensor>>> futures(
      static_cast<std::size_t>(num_clients));
  const std::uint64_t allocs_before = TensorHeapAllocCount();
  Timer timer;
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      const int share = num_requests / num_clients + (c < num_requests % num_clients);
      for (int r = 0; r < share; ++r) {
        futures[static_cast<std::size_t>(c)].push_back(
            SubmitAccepted(server, model_name, input));
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  for (auto& client_futures : futures) {
    for (std::future<Tensor>& f : client_futures) {
      f.wait();
    }
  }
  const double seconds = timer.Seconds();
  const std::uint64_t allocs_after = TensorHeapAllocCount();

  ConfigResult result;
  result.pool_width = pool_width;
  result.max_batch = max_batch;
  result.throughput_rps = static_cast<double>(num_requests) / seconds;
  result.stats = server.Stats();
  result.heap_allocs_per_request =
      static_cast<double>(allocs_after - allocs_before) / num_requests;
  if (profile_rate > 0) {
    result.profile = entry->ProfileSnapshot();
  }
  if (cache != nullptr) {
    const TuningCacheStats cache_after = cache->Stats();
    result.cache_delta.hits = cache_after.hits - cache_before.hits;
    result.cache_delta.misses = cache_after.misses - cache_before.misses;
  }
  return result;
}

// ---------------------------------------------------------------------------
// Wire front-end load generation (closed-loop and open-loop Poisson).
// ---------------------------------------------------------------------------

struct WireLegResult {
  const char* mode = "closed";  // "closed" | "open"
  double target_ratio = 0.0;    // open-loop offered rate as a multiple of capacity
  double offered_rps = 0.0;     // arrival rate actually generated
  double accepted_rps = 0.0;    // successful completions per second of wall time
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;  // transport or non-overload protocol errors
  double shed_rate = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
};

double WirePercentile(std::vector<double>* values, double pct) {
  if (values->empty()) {
    return 0.0;
  }
  std::sort(values->begin(), values->end());
  const double rank = pct / 100.0 * static_cast<double>(values->size() - 1);
  return (*values)[static_cast<std::size_t>(rank + 0.5)];
}

// Closed loop: `conns` clients, zero think time. Measures the socket path's capacity.
WireLegResult RunWireClosedLoop(int port, const std::string& model_name,
                                const Tensor& input, int conns, int total_requests) {
  std::atomic<std::uint64_t> accepted{0}, shed{0}, errors{0};
  std::mutex mutex;
  std::vector<double> latencies;
  Timer wall;
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      WireClient client;
      if (!client.Connect("127.0.0.1", port)) {
        errors.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      const int share = total_requests / conns + (c < total_requests % conns);
      for (int i = 0; i < share; ++i) {
        Timer timer;
        WireResponse response =
            client.Call({model_name, RequestLane::kLatency, input.Clone()});
        const double ms = timer.Millis();
        if (response.ok()) {
          accepted.fetch_add(1, std::memory_order_relaxed);
          std::lock_guard<std::mutex> lock(mutex);
          latencies.push_back(ms);
        } else if (response.error.code == WireErrorCode::kOverloaded) {
          shed.fetch_add(1, std::memory_order_relaxed);
        } else {
          errors.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const double seconds = wall.Seconds();
  WireLegResult result;
  result.mode = "closed";
  result.accepted = accepted.load();
  result.shed = shed.load();
  result.errors = errors.load();
  const std::uint64_t answered = result.accepted + result.shed;
  result.offered_rps = seconds > 0 ? static_cast<double>(answered) / seconds : 0.0;
  result.accepted_rps =
      seconds > 0 ? static_cast<double>(result.accepted) / seconds : 0.0;
  result.shed_rate =
      answered > 0 ? static_cast<double>(result.shed) / static_cast<double>(answered)
                   : 0.0;
  result.p50_ms = WirePercentile(&latencies, 50.0);
  result.p99_ms = WirePercentile(&latencies, 99.0);
  result.p999_ms = WirePercentile(&latencies, 99.9);
  return result;
}

// Open loop: Poisson arrivals at `rate_rps` spread across `conns` independent
// connections. Latency is measured from each request's INTENDED arrival instant, so a
// sender running late (its previous call still in flight) charges the delay to the
// request instead of silently thinning the offered load (coordination-omission
// correction); a closed-loop-style measurement under overload would hide exactly the
// tail this leg exists to expose.
WireLegResult RunWireOpenLoop(int port, const std::string& model_name,
                              const Tensor& input, int conns, int total_requests,
                              double rate_rps, double target_ratio) {
  std::atomic<std::uint64_t> accepted{0}, shed{0}, errors{0};
  std::mutex mutex;
  std::vector<double> latencies;
  const double per_conn_rate = rate_rps / conns;
  Timer wall;
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      WireClient client;
      if (!client.Connect("127.0.0.1", port)) {
        errors.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      Rng rng(0xC0FFEE + static_cast<std::uint64_t>(c));
      const int share = total_requests / conns + (c < total_requests % conns);
      double next_arrival_s = 0.0;
      for (int i = 0; i < share; ++i) {
        // Exponential inter-arrival: -ln(U)/rate with U in (0, 1].
        const double u =
            (static_cast<double>(rng.NextU64() >> 11) + 1.0) / 9007199254740993.0;
        next_arrival_s += -std::log(u) / per_conn_rate;
        const auto intended =
            start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(next_arrival_s));
        std::this_thread::sleep_until(intended);
        WireResponse response =
            client.Call({model_name, RequestLane::kLatency, input.Clone()});
        const double ms =
            std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                      intended)
                .count();
        if (response.ok()) {
          accepted.fetch_add(1, std::memory_order_relaxed);
          std::lock_guard<std::mutex> lock(mutex);
          latencies.push_back(ms);
        } else if (response.error.code == WireErrorCode::kOverloaded) {
          shed.fetch_add(1, std::memory_order_relaxed);
        } else {
          errors.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const double seconds = wall.Seconds();
  WireLegResult result;
  result.mode = "open";
  result.target_ratio = target_ratio;
  result.accepted = accepted.load();
  result.shed = shed.load();
  result.errors = errors.load();
  const std::uint64_t answered = result.accepted + result.shed;
  result.offered_rps = seconds > 0 ? static_cast<double>(answered) / seconds : 0.0;
  result.accepted_rps =
      seconds > 0 ? static_cast<double>(result.accepted) / seconds : 0.0;
  result.shed_rate =
      answered > 0 ? static_cast<double>(result.shed) / static_cast<double>(answered)
                   : 0.0;
  result.p50_ms = WirePercentile(&latencies, 50.0);
  result.p99_ms = WirePercentile(&latencies, 99.0);
  result.p999_ms = WirePercentile(&latencies, 99.9);
  return result;
}

}  // namespace
}  // namespace neocpu

int main() {
  using namespace neocpu;
  const char* model_env = std::getenv("NEOCPU_SERVE_MODEL");
  const std::string model_name = model_env != nullptr ? model_env : "tiny-cnn";
  const int num_requests = static_cast<int>(EnvSizeT("NEOCPU_SERVE_REQUESTS", 64));
  const int num_clients = static_cast<int>(EnvSizeT("NEOCPU_SERVE_CLIENTS", 8));
  const std::uint32_t profile_rate =
      static_cast<std::uint32_t>(EnvSizeT("NEOCPU_SERVE_PROFILE", 0));
  const char* trace_env = std::getenv("NEOCPU_SERVE_TRACE");
  TraceRecorder tracer;
  TraceRecorder* tracer_ptr = trace_env != nullptr ? &tracer : nullptr;

  bench::PrintHeader("Serving throughput: pool width x dynamic batch size");
  std::printf("model=%s requests=%d clients=%d\n\n", model_name.c_str(), num_requests,
              num_clients);

  CompileOptions copts;
  copts.cost_mode = bench::BenchCostMode();
  CompiledModel model = Compile(BuildModel(model_name), copts);
  const std::size_t arena_bytes = model.stats().arena_bytes;
  const std::size_t naive_arena_bytes = model.stats().naive_arena_bytes;
  std::printf("memory plan: arena %zu B (naive sum-of-intermediates %zu B, %.1f%% saved)\n",
              arena_bytes, naive_arena_bytes,
              naive_arena_bytes == 0
                  ? 0.0
                  : 100.0 * (1.0 - static_cast<double>(arena_bytes) /
                                       static_cast<double>(naive_arena_bytes)));

  // int8 leg: the same model force-quantized (every int8-legal conv takes its best s8
  // schedule), served side-by-side so the perf record tracks the quantized serving
  // path per (pool_width x max_batch x dtype) config. NEOCPU_SERVE_INT8=0 disables.
  const char* int8_env = std::getenv("NEOCPU_SERVE_INT8");
  const bool serve_int8 = int8_env == nullptr || std::string(int8_env) != "0";
  CompiledModel model_q;
  if (serve_int8) {
    CompileOptions qopts = copts;
    qopts.quantize = true;
    qopts.force_quantize = true;
    model_q = Compile(BuildModel(model_name), qopts);
    std::printf("int8 model: %d/%d convs quantized, arena %zu B\n",
                model_q.stats().num_quantized_convs, model_q.stats().num_convs,
                model_q.stats().arena_bytes);
  }

  std::vector<int> widths = {1, 2};
  if (HostCpuInfo().physical_cores >= 8) {
    widths.push_back(4);
  }
  const std::vector<std::int64_t> batches = {1, 4, 8};

  std::printf("%-6s %-10s %-5s %12s %10s %10s %10s %11s %11s\n", "pool", "max_batch",
              "dtype", "thruput r/s", "p50 ms", "p99 ms", "mean ms", "mean batch",
              "allocs/req");
  std::vector<ConfigResult> results;
  for (int width : widths) {
    for (std::int64_t max_batch : batches) {
      for (int leg = 0; leg < (serve_int8 ? 2 : 1); ++leg) {
        const bool int8_leg = leg == 1;
        ConfigResult r = RunConfig(int8_leg ? model_q : model, model_name, width,
                                   max_batch, num_clients, num_requests, profile_rate,
                                   tracer_ptr);
        r.dtype = int8_leg ? "int8" : "f32";
        std::printf("%-6d %-10lld %-5s %12.1f %10.3f %10.3f %10.3f %11.2f %11.2f\n",
                    r.pool_width, static_cast<long long>(r.max_batch), r.dtype,
                    r.throughput_rps, r.stats.latency.p50_ms, r.stats.latency.p99_ms,
                    r.stats.latency.mean_ms, r.stats.mean_batch_size,
                    r.heap_allocs_per_request);
        results.push_back(r);
      }
    }
  }

  // The Figure-4-at-the-serving-layer headline: pool of 2 vs 1 on unbatched traffic.
  const ConfigResult* one = nullptr;
  const ConfigResult* two = nullptr;
  for (const ConfigResult& r : results) {
    if (std::string(r.dtype) != "f32") {
      continue;
    }
    if (r.max_batch == 1 && r.pool_width == 1) {
      one = &r;
    }
    if (r.max_batch == 1 && r.pool_width == 2) {
      two = &r;
    }
  }
  if (one != nullptr && two != nullptr) {
    std::printf("\nbatch-1 traffic: pool=2 %.1f r/s vs pool=1 %.1f r/s (%+.1f%%)\n",
                two->throughput_rps, one->throughput_rps,
                100.0 * (two->throughput_rps / one->throughput_rps - 1.0));
  }

  // Wire front-end legs: closed-loop capacity, then open-loop Poisson at 0.5x and
  // 2.0x of it against a deliberately small admission queue. The 2x leg is the
  // overload acceptance measurement: it must shed (bounded queue) while the accepted
  // tail stays a small multiple of the closed-loop latency.
  const char* wire_env = std::getenv("NEOCPU_WIRE");
  const bool run_wire = wire_env == nullptr || std::string(wire_env) != "0";
  std::vector<WireLegResult> wire_legs;
  const std::size_t wire_queue_limit = EnvSizeT("NEOCPU_WIRE_QUEUE", 8);
  if (run_wire) {
    const int wire_requests = static_cast<int>(EnvSizeT("NEOCPU_WIRE_REQUESTS", 240));
    const int wire_conns = static_cast<int>(EnvSizeT("NEOCPU_WIRE_CONNS", 6));
    ServerOptions options;
    options.num_executors = 1;
    options.background_retune = false;
    options.batching.max_batch_size = 4;
    options.batching.max_delay_ms = 1.0;
    options.batching.queue_limit = wire_queue_limit;
    options.batching.shed_retry_after_ms = 5.0;
    InferenceServer server(options);
    server.RegisterModel(model_name, model);
    FrontendServer frontend(&server);
    if (!frontend.Start()) {
      std::fprintf(stderr, "wire front end failed to start: %s\n",
                   frontend.last_error().c_str());
      return 1;
    }
    Rng wire_rng(7);
    Tensor wire_input =
        Tensor::Random(ModelInputDims(model_name), wire_rng, 0.0f, 1.0f, Layout::NCHW());
    // Warm-up through the socket path.
    {
      WireClient warm;
      if (warm.Connect("127.0.0.1", frontend.port())) {
        warm.Call({model_name, RequestLane::kLatency, wire_input.Clone()});
      }
    }
    std::printf("\nwire front end (port %d, queue_limit %zu, %d conns):\n",
                frontend.port(), wire_queue_limit, wire_conns);
    std::printf("%-8s %-7s %12s %12s %9s %8s %8s %9s %9s\n", "mode", "ratio",
                "offered r/s", "accepted r/s", "shed", "p50 ms", "p99 ms", "p999 ms",
                "shed rate");
    WireLegResult closed = RunWireClosedLoop(frontend.port(), model_name, wire_input,
                                             wire_conns, wire_requests);
    auto print_leg = [](const WireLegResult& leg) {
      std::printf("%-8s %-7.2f %12.1f %12.1f %9llu %8.3f %8.3f %9.3f %9.4f\n", leg.mode,
                  leg.target_ratio, leg.offered_rps, leg.accepted_rps,
                  static_cast<unsigned long long>(leg.shed), leg.p50_ms, leg.p99_ms,
                  leg.p999_ms, leg.shed_rate);
    };
    print_leg(closed);
    wire_legs.push_back(closed);
    const double capacity_rps = closed.accepted_rps;
    // Open-loop legs need enough connections that the arrival process — not the
    // per-connection round trip — limits server-side concurrency; otherwise the
    // admission queue can never fill and the overload leg measures nothing.
    const int open_conns =
        std::max(wire_conns, static_cast<int>(2 * wire_queue_limit + 2));
    for (const double ratio : {0.5, 2.0}) {
      WireLegResult leg =
          RunWireOpenLoop(frontend.port(), model_name, wire_input, open_conns,
                          wire_requests, ratio * capacity_rps, ratio);
      print_leg(leg);
      wire_legs.push_back(leg);
    }
    frontend.Stop();
    const ServerStats wire_stats = server.Stats();
    std::printf("server view: shed %llu (queue %llu, arena %llu) of %llu submitted\n",
                static_cast<unsigned long long>(wire_stats.requests_shed),
                static_cast<unsigned long long>(wire_stats.requests_shed_queue_full),
                static_cast<unsigned long long>(wire_stats.requests_shed_arena),
                static_cast<unsigned long long>(wire_stats.submitted));
  }

  // Observability artifacts (opt-in; see the env knobs above).
  if (profile_rate > 0 && !results.empty() && !results.back().profile.empty()) {
    const NodeProfileSnapshot& profile = results.back().profile;
    std::printf("\nper-node profile (last config, sample rate %u):\n%s", profile_rate,
                profile.ToString().c_str());
    const char* dot_env = std::getenv("NEOCPU_SERVE_DOT");
    if (dot_env != nullptr) {
      std::ofstream dot(dot_env);
      dot << CompiledModelToDot(serve_int8 ? model_q : model, &profile);
      std::printf("wrote %s\n", dot_env);
    }
  }
  if (tracer_ptr != nullptr) {
    if (tracer.WriteFile(trace_env)) {
      std::printf("wrote %s (%zu trace events, %llu dropped)\n", trace_env, tracer.size(),
                  static_cast<unsigned long long>(tracer.dropped()));
    }
  }
  const char* metrics_env = std::getenv("NEOCPU_SERVE_METRICS");
  if (metrics_env != nullptr) {
    const MetricsFormat format = std::string(metrics_env) == "prometheus"
                                     ? MetricsFormat::kPrometheus
                                     : MetricsFormat::kJson;
    std::printf("\nmetrics registry:\n%s", MetricsExport(format).c_str());
  }

  // Machine-readable record for cross-PR perf tracking.
  const char* json_env = std::getenv("NEOCPU_BENCH_JSON");
  const std::string json_path = json_env != nullptr ? json_env : "BENCH_serve.json";
  std::ofstream json(json_path);
  if (!json) {
    std::fprintf(stderr, "failed to open %s for writing\n", json_path.c_str());
    return 1;
  }
  json << "{\n";
  json << "  \"bench\": \"serve_throughput\",\n";
  json << "  \"model\": \"" << model_name << "\",\n";
  json << "  \"requests\": " << num_requests << ",\n";
  json << "  \"clients\": " << num_clients << ",\n";
  json << "  \"physical_cores\": " << HostCpuInfo().physical_cores << ",\n";
  json << "  \"arena_bytes\": " << arena_bytes << ",\n";
  json << "  \"naive_arena_bytes\": " << naive_arena_bytes << ",\n";
  json << "  \"configs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    const ServerStats& s = r.stats;
    json << "    {\"pool_width\": " << r.pool_width << ", \"max_batch\": " << r.max_batch
         << ", \"dtype\": \"" << r.dtype << "\""
         << ", \"throughput_rps\": " << r.throughput_rps
         << ", \"p50_ms\": " << s.latency.p50_ms << ", \"p99_ms\": " << s.latency.p99_ms
         << ", \"mean_ms\": " << s.latency.mean_ms
         << ", \"mean_batch_size\": " << s.mean_batch_size
         << ", \"max_batch_size\": " << s.max_batch_size
         << ", \"batch_runs\": " << s.batch_runs
         << ", \"retunes_completed\": " << s.retunes_completed
         << ", \"tuning_cache_hits\": " << r.cache_delta.hits
         << ", \"tuning_cache_misses\": " << r.cache_delta.misses
         << ", \"tuning_cache_hit_rate\": " << r.cache_delta.HitRate()
         << ", \"heap_allocs_per_request\": " << r.heap_allocs_per_request << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]";
  if (!wire_legs.empty()) {
    json << ",\n  \"wire\": {\n";
    json << "    \"queue_limit\": " << wire_queue_limit << ",\n";
    json << "    \"legs\": [\n";
    for (std::size_t i = 0; i < wire_legs.size(); ++i) {
      const WireLegResult& leg = wire_legs[i];
      json << "      {\"mode\": \"" << leg.mode << "\""
           << ", \"target_ratio\": " << leg.target_ratio
           << ", \"offered_rps\": " << leg.offered_rps
           << ", \"accepted_rps\": " << leg.accepted_rps
           << ", \"accepted\": " << leg.accepted << ", \"shed\": " << leg.shed
           << ", \"errors\": " << leg.errors << ", \"shed_rate\": " << leg.shed_rate
           << ", \"p50_ms\": " << leg.p50_ms << ", \"p99_ms\": " << leg.p99_ms
           << ", \"p999_ms\": " << leg.p999_ms << "}"
           << (i + 1 < wire_legs.size() ? "," : "") << "\n";
    }
    json << "    ]\n";
    json << "  }";
  }
  json << "\n}\n";
  std::printf("wrote %s (%zu configs, %zu wire legs)\n", json_path.c_str(),
              results.size(), wire_legs.size());
  return 0;
}
