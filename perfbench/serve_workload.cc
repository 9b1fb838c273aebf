// serve_wire: open-loop Poisson arrivals over loopback TCP through FrontendServer into
// InferenceServer (dynamic batching up to 8), serving a seeded 50/50 mix of tiny-cnn
// and transformer-encoder. Each model runs in a fraction of a millisecond, so the time
// goes to the front end, batching and admission, and the executor partitions rather
// than to conv kernels; it is also the only workload with dense layers and batches.
//
// A run has three phases: a closed-loop capacity phase, then open-loop phases at the
// fixed `nominal` and `peak` rates below. Latency is timed from each request's
// scheduled send time. The generator uses nproc/2 connections; the executor pool gets
// the remaining cores. perfbench/README.md explains the rates and server settings.
#include <cmath>
#include <functional>
#include <optional>
#include <thread>

#include "perfbench/common.h"
#include "src/serve/frontend/frontend_server.h"
#include "src/serve/frontend/wire_client.h"

namespace perfbench {
namespace {

using neocpu::CompiledModel;
using neocpu::Tensor;

const std::vector<std::string>& Models() {
  static const std::vector<std::string> models = {"tiny-cnn", "transformer-encoder"};
  return models;
}
constexpr int kInputsPerModel = 16;
// Frozen absolute rates, set once from capacity_rps on the 4-core host the benchmark
// was defined on (2800-3400 req/s there): about 15% and 30% of it. Host contention on
// that shared virtual machine can halve capacity for a whole run, and a peak phase
// pushed into overload measures the queue, not the server. Fixed rates make a faster
// server show as lower latency at the same load.
constexpr double kNominalRps = 500.0;
constexpr double kPeakRps = 1000.0;
// A run whose generator sent later than this (p99, beyond any wait for the previous
// reply on its connection) did not offer the intended load and reports nothing.
constexpr double kMaxLagMs = 10.0;
// Replies are compared with a direct batch-1 Run; batched variants may reorder sums.
constexpr double kTolerance = 1e-4;
constexpr int kSetUps = 15;
// Requests due in a phase may still be sent this long after it ends; later ones count
// as failed.
constexpr double kGraceSeconds = 0.5;
constexpr std::int64_t kMaxBatch = 8;
// A request never waits for batch-mates; requests that queue while both executors are
// busy batch together. A held partial batch costs a timer wake-up per request, and on a
// shared virtual machine those wake-ups come late often enough to halve capacity.
constexpr double kMaxDelayMs = 0.0;

int Connections() { return std::max(1, Nproc() / 2); }

int ExecutorCores() { return std::max(1, Nproc() - Connections()); }

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

std::uint64_t Stream(std::uint64_t seed, std::uint64_t phase, std::uint64_t conn) {
  return (seed * 0x9e3779b97f4a7c15ull) ^ (phase << 40) ^ (conn << 20) ^ 0x5eedull;
}

// Sleeps until shortly before `due`, then spins: on a virtualized host a sleeping
// thread can wake milliseconds late, which would be charged to the server.
void WaitUntil(Clock::time_point due) {
  std::this_thread::sleep_until(due - std::chrono::microseconds(1000));
  while (Clock::now() < due) {
  }
}

struct Request {
  double due_s = 0.0;  // offset from the phase start
  int model = 0;
  int input = 0;
  std::int64_t id = 0;
};

// One Poisson arrival stream per connection at rate/conns, with seeded model and input
// picks.
std::vector<std::vector<Request>> PoissonSchedule(std::uint64_t seed, std::uint64_t phase,
                                                  double rate, double seconds, int conns) {
  std::vector<std::vector<Request>> schedule(static_cast<std::size_t>(conns));
  std::int64_t next_id = static_cast<std::int64_t>(phase) * 10000000;
  for (int c = 0; c < conns; ++c) {
    neocpu::Rng rng(Stream(seed, phase, static_cast<std::uint64_t>(c)));
    double t = 0.0;
    for (;;) {
      const double u = (static_cast<double>(rng.NextU64() >> 11) + 1.0) / 9007199254740993.0;
      t += -std::log(u) / (rate / conns);
      if (t >= seconds) {
        break;
      }
      Request r;
      r.due_s = t;
      r.model = static_cast<int>(rng.NextBounded(Models().size()));
      r.input = static_cast<int>(rng.NextBounded(kInputsPerModel));
      r.id = next_id++;
      schedule[static_cast<std::size_t>(c)].push_back(r);
    }
  }
  return schedule;
}

struct Pools {
  std::vector<std::vector<Tensor>> inputs;    // [model][input]
  std::vector<std::vector<Tensor>> expected;  // [model][input]
};

struct Reply {
  enum Kind { kOk, kShed, kError } kind = kError;
  Tensor output;
};
using CallFn = std::function<Reply(const Request&)>;
// Opens connection `conn` and returns its call function (empty on failure).
using ConnectFn = std::function<CallFn(int conn)>;

struct PhaseResult {
  // (send offset in the phase, latency) of each good reply; latency counts from the
  // scheduled send time.
  std::vector<std::pair<double, double>> timed_ms;
  std::vector<double> lags_ms;  // how late the generator sent
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  std::uint64_t wrong = 0;
  std::uint64_t unsent = 0;
  double seconds = 0.0;

  std::uint64_t failed() const { return shed + errors + wrong + unsent; }
  // Good-reply latencies in send order.
  std::vector<double> Latencies() const {
    std::vector<std::pair<double, double>> sorted = timed_ms;
    std::sort(sorted.begin(), sorted.end());
    std::vector<double> out;
    for (const auto& [at, ms] : sorted) {
      out.push_back(ms);
    }
    return out;
  }
  void Merge(const PhaseResult& o) {
    timed_ms.insert(timed_ms.end(), o.timed_ms.begin(), o.timed_ms.end());
    lags_ms.insert(lags_ms.end(), o.lags_ms.begin(), o.lags_ms.end());
    attempted += o.attempted;
    ok += o.ok;
    shed += o.shed;
    errors += o.errors;
    wrong += o.wrong;
    unsent += o.unsent;
  }
};

void Classify(const Reply& reply, const Request& r, const Pools& pools, double sent_at_ms,
              double latency_ms, PhaseResult* out) {
  if (reply.kind == Reply::kShed) {
    ++out->shed;
  } else if (reply.kind == Reply::kError) {
    ++out->errors;
  } else if (!(MaxAbsDiff(reply.output, pools.expected[static_cast<std::size_t>(r.model)]
                                                      [static_cast<std::size_t>(r.input)]) <=
               kTolerance)) {
    ++out->wrong;
  } else {
    ++out->ok;
    out->timed_ms.emplace_back(sent_at_ms, latency_ms);
  }
}

// Open loop: every connection sends its scheduled requests in order, each as soon as it
// is due and the connection's previous call has returned.
PhaseResult RunOpenLoop(const std::vector<std::vector<Request>>& schedule, double seconds,
                        const Pools& pools, const ConnectFn& connect, SpanRecorder* spans,
                        const char* call_span, const char* phase_span) {
  PhaseResult total;
  std::mutex mutex;
  const std::uint64_t phase_id = spans->NewId();
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point last_send = start + Seconds(seconds + kGraceSeconds);
  std::vector<std::thread> threads;
  for (int c = 0; c < static_cast<int>(schedule.size()); ++c) {
    threads.emplace_back([&, c] {
      const std::vector<Request>& requests = schedule[static_cast<std::size_t>(c)];
      PhaseResult mine;
      mine.attempted = requests.size();
      const CallFn call = connect(c);
      if (!call) {
        mine.errors = requests.size();
      } else {
        Clock::time_point prev_done = start;
        for (std::size_t i = 0; i < requests.size(); ++i) {
          const Request& r = requests[i];
          const Clock::time_point due = start + Seconds(r.due_s);
          WaitUntil(due);
          const Clock::time_point send = Clock::now();
          if (send > last_send) {
            mine.unsent = requests.size() - i;
            break;
          }
          mine.lags_ms.push_back(MillisBetween(std::max(due, prev_done), send));
          const Reply reply = call(r);
          const Clock::time_point done = Clock::now();
          spans->Record(call_span, send, done, phase_id, r.id);
          Classify(reply, r, pools, MillisBetween(start, due), MillisBetween(due, done),
                   &mine);
          prev_done = done;
        }
      }
      std::lock_guard<std::mutex> lock(mutex);
      total.Merge(mine);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  total.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  spans->Record(phase_span, start, Clock::now(), 0, -1, phase_id);
  return total;
}

// Closed loop: every connection sends its next request as soon as the previous
// returns; completed requests per second is the capacity.
PhaseResult RunClosedLoop(std::uint64_t seed, double seconds, const Pools& pools,
                          const ConnectFn& connect, SpanRecorder* spans) {
  PhaseResult total;
  std::mutex mutex;
  const std::uint64_t phase_id = spans->NewId();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = start + Seconds(seconds);
  std::vector<std::thread> threads;
  for (int c = 0; c < Connections(); ++c) {
    threads.emplace_back([&, c] {
      PhaseResult mine;
      const CallFn call = connect(c);
      neocpu::Rng rng(Stream(seed, 1, static_cast<std::uint64_t>(c)));
      for (std::int64_t i = 0; call && Clock::now() < deadline; ++i) {
        Request r;
        r.model = static_cast<int>(rng.NextBounded(Models().size()));
        r.input = static_cast<int>(rng.NextBounded(kInputsPerModel));
        r.id = 10000000 + c * 1000000 + i;
        const Clock::time_point send = Clock::now();
        const Reply reply = call(r);
        const Clock::time_point done = Clock::now();
        spans->Record("WireClient::Call", send, done, phase_id, r.id);
        ++mine.attempted;
        Classify(reply, r, pools, MillisBetween(start, send), MillisBetween(send, done),
                 &mine);
      }
      if (!call) {
        mine.attempted = mine.errors = 1;
      }
      std::lock_guard<std::mutex> lock(mutex);
      total.Merge(mine);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  total.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  spans->Record("capacity", start, Clock::now(), 0, -1, phase_id);
  return total;
}

struct ServeSystem {
  std::vector<CompiledModel> direct;  // the registered models, for direct Runs
  std::unique_ptr<neocpu::InferenceServer> server;
  std::unique_ptr<neocpu::FrontendServer> frontend;  // declared last: stops first
};

CompiledModel CompileModel(const std::string& name) {
  neocpu::CompileOptions options = neocpu::NeoCpuOptions(neocpu::Target::Host());
  options.tuning_cache = std::make_shared<neocpu::TuningCache>();  // cold
  return neocpu::Compile(neocpu::BuildModel(name), options);
}

// Graph build, cold-cache compile, server and front-end start, and warm-up until the
// background re-tunes of every batch size the batcher can form have landed.
std::optional<ServeSystem> SetUp(const Pools& pools, SpanRecorder* spans) {
  const Clock::time_point start = Clock::now();
  const std::uint64_t setup_id = spans->NewId();
  ServeSystem system;
  neocpu::ServerOptions options;
  options.total_workers = ExecutorCores();
  // Unpinned: on a shared virtual machine a thread pinned to a descheduled vCPU waits
  // for it, where a floating one runs on whichever vCPU is free.
  options.bind_threads = false;
  options.batching.max_batch_size = kMaxBatch;
  options.batching.max_delay_ms = kMaxDelayMs;
  system.server = std::make_unique<neocpu::InferenceServer>(options);
  for (const std::string& name : Models()) {
    const Clock::time_point compile_start = Clock::now();
    system.direct.push_back(CompileModel(name));
    spans->Record("Compile", compile_start, Clock::now(), setup_id);
    system.server->RegisterModel(name, system.direct.back());
  }
  for (const std::string& name : Models()) {
    neocpu::ModelEntry* entry = system.server->registry().Find(name);
    for (std::int64_t b = 1; b <= kMaxBatch && entry->batchable(); ++b) {
      entry->VariantFor(b);
    }
  }
  system.server->WaitForRetunes();
  // No search may run inside a measured phase.
  neocpu::RetuneOptions frozen;
  frozen.enabled = false;
  system.server->registry().ConfigureRetune(frozen);
  system.frontend = std::make_unique<neocpu::FrontendServer>(system.server.get());
  if (!system.frontend->Start()) {
    std::fprintf(stderr, "perfbench: front end failed to start: %s\n",
                 system.frontend->last_error().c_str());
    return std::nullopt;
  }
  neocpu::WireClient client;
  if (!client.Connect("127.0.0.1", system.frontend->port())) {
    return std::nullopt;
  }
  for (std::size_t m = 0; m < Models().size(); ++m) {
    if (!client.Call({Models()[m], neocpu::RequestLane::kLatency, pools.inputs[m][0]}).ok()) {
      return std::nullopt;
    }
  }
  spans->Record("setup", start, Clock::now(), 0, -1, setup_id);
  return system;
}

ConnectFn WireConnect(int port, const Pools& pools) {
  return [port, &pools](int) -> CallFn {
    auto client = std::make_shared<neocpu::WireClient>();
    if (!client->Connect("127.0.0.1", port)) {
      return {};
    }
    return [client, &pools](const Request& r) {
      const neocpu::WireResponse response = client->Call(
          {Models()[static_cast<std::size_t>(r.model)], neocpu::RequestLane::kLatency,
           pools.inputs[static_cast<std::size_t>(r.model)][static_cast<std::size_t>(r.input)]});
      Reply reply;
      if (response.ok()) {
        reply.kind = Reply::kOk;
        reply.output = response.result;
      } else {
        reply.kind = response.error.code == neocpu::WireErrorCode::kOverloaded ? Reply::kShed
                                                                               : Reply::kError;
      }
      return reply;
    };
  };
}

// The same requests without sockets: TrySubmit until the future is ready, one request
// at a time per connection exactly as the front end serves a connection.
ConnectFn InProcessConnect(neocpu::InferenceServer* server, const Pools& pools) {
  return [server, &pools](int) -> CallFn {
    return [server, &pools](const Request& r) {
      neocpu::SubmitTicket ticket = server->TrySubmit(
          Models()[static_cast<std::size_t>(r.model)],
          pools.inputs[static_cast<std::size_t>(r.model)][static_cast<std::size_t>(r.input)]);
      Reply reply;
      if (ticket.ok()) {
        reply.kind = Reply::kOk;
        reply.output = ticket.result.get();
      } else {
        reply.kind = ticket.status == neocpu::SubmitStatus::kShedQueueFull ||
                             ticket.status == neocpu::SubmitStatus::kShedArenaBytes
                         ? Reply::kShed
                         : Reply::kError;
      }
      return reply;
    };
  };
}

Pools MakePools(std::uint64_t seed) {
  Pools pools;
  for (const std::string& name : Models()) {
    pools.inputs.push_back(SeededInputs(name, seed, kInputsPerModel));
  }
  return pools;
}

std::string Count(const PhaseResult& p) { return LatencyNote(p.timed_ms.size()); }

double LagP99(const PhaseResult& nominal, const PhaseResult& peak) {
  std::vector<double> lags = nominal.lags_ms;
  lags.insert(lags.end(), peak.lags_ms.begin(), peak.lags_ms.end());
  return Percentile(lags, 99);
}

// A generator that sent too late did not offer the scheduled load: the run is marked
// invalid and reports nothing.
bool CheckLag(const PhaseResult& nominal, const PhaseResult& peak, Outcome* out) {
  const double lag = LagP99(nominal, peak);
  std::printf("loadgen lag p99 %.3f ms (bound %.1f ms); nominal %.0f req/s, peak %.0f req/s, "
              "%d connections, %d executor cores\n",
              lag, kMaxLagMs, kNominalRps, kPeakRps, Connections(), ExecutorCores());
  if (lag > kMaxLagMs) {
    out->valid = false;
    out->invalid_reason = "load generator lag p99 " + std::to_string(lag) + " ms";
  }
  return out->valid;
}

// Fork-join over a NeoThreadPool spanning every core, on a helper thread: the pool pins
// the thread that creates it, and threads the main thread starts later would inherit
// that pinning.
double AllCoreForkJoinMicros() {
  double result = 0.0;
  std::thread helper([&result] {
    neocpu::NeoThreadPool pool;
    result = ForkJoinMicros(pool);
  });
  helper.join();
  return result;
}

void AddStaticLayerMetrics(const ServeSystem& system, Outcome* out) {
  double nodes = 0, transforms = 0, qdq = 0, local_s = 0, global_s = 0, hits = 0,
         misses = 0, compile_s = 0, arena = 0;
  for (const CompiledModel& model : system.direct) {
    const neocpu::Graph& graph = model.graph();
    nodes += ExecutedNodes(graph);
    transforms += graph.CountNodes(neocpu::OpType::kLayoutTransform);
    qdq += QdqNodes(graph);
    const neocpu::CompileStats& stats = model.stats();
    local_s += stats.tuning_seconds;
    global_s += stats.search_seconds;
    hits += static_cast<double>(stats.tuning_cache_hits);
    misses += static_cast<double>(stats.tuning_cache_misses);
    compile_s += stats.compile_seconds;
    arena += static_cast<double>(stats.arena_bytes);
  }
  // Set-up re-tunes of the batch variants go through the server's shared cache.
  const neocpu::TuningCacheStats served = system.server->Stats().tuning_cache;
  const std::string both = "both models";
  out->Set("graph.nodes", nodes, both);
  out->Set("graph.layout_transforms", transforms, both);
  out->Set("graph.qdq_nodes", qdq, both);
  out->Set("tuning.local_s", local_s, both + ", compile only");
  out->Set("tuning.global_s", global_s, both + ", compile only");
  out->Set("tuning.cache_hits", hits + static_cast<double>(served.hits),
           "compile + set-up re-tunes");
  out->Set("tuning.cache_misses", misses + static_cast<double>(served.misses),
           "compile + set-up re-tunes");
  out->Set("core.compile_s", compile_s, both);
  out->Set("core.arena_mb", arena / (1 << 20), both + ", batch 1");
}

// Per-node self time from the server's profilers over the traced phase, per inference.
void AddKernelMetrics(const ServeSystem& system, std::uint64_t inferences, Outcome* out) {
  std::map<std::string, double> family_ms;
  for (std::size_t m = 0; m < Models().size(); ++m) {
    const neocpu::ModelEntry* entry = system.server->registry().Find(Models()[m]);
    const neocpu::Graph& graph = system.direct[m].graph();
    for (const neocpu::NodeProfile& p : entry->ProfileSnapshot().nodes) {
      // Batch variants share the batch-1 graph's structure; a node that does not line
      // up is classified by its op type alone.
      neocpu::Node node;
      node.type = p.type;
      if (p.node_id < graph.num_nodes() && graph.node(p.node_id).type == p.type) {
        node = graph.node(p.node_id);
      }
      family_ms[KernelFamily(node)] += p.total_ms;
    }
  }
  const double n = static_cast<double>(std::max<std::uint64_t>(1, inferences));
  for (const std::string& family : KernelFamilies()) {
    out->Set("kernels." + family + ".ms_per_inf", family_ms[family] / n);
  }
}

// p50 of direct serial batch-1 Runs over the same 50/50 mix (an executor partition is
// one core wide on the 4-core host).
double DirectRunP50(const ServeSystem& system, const Pools& pools) {
  std::vector<double> ms;
  for (int i = 0; i < 400; ++i) {
    const std::size_t m = static_cast<std::size_t>(i) % Models().size();
    const Tensor& input = pools.inputs[m][static_cast<std::size_t>(i / 2) % kInputsPerModel];
    const Clock::time_point start = Clock::now();
    system.direct[m].Run(input, nullptr);
    ms.push_back(MillisBetween(start, Clock::now()));
  }
  return Percentile(ms, 50);
}

}  // namespace

Outcome RunServe(const Args& args) {
  Outcome out;
  Pools pools = MakePools(args.seed);
  SpanRecorder spans(args.trace);
  SpanRecorder untraced(false);
  const int conns = Connections();
  const double fork_join_us = args.trace ? AllCoreForkJoinMicros() : 0.0;

  std::vector<double> setup_s;
  std::optional<ServeSystem> system;
  for (int i = 0; i < (args.trace ? 1 : kSetUps); ++i) {
    system.reset();
    const Clock::time_point start = Clock::now();
    system = SetUp(pools, &spans);
    if (!system) {
      out.valid = false;
      out.invalid_reason = "serving set-up failed";
      return out;
    }
    setup_s.push_back(MillisBetween(start, Clock::now()) / 1e3);
  }
  // Expected replies: a direct batch-1 Run of each input on the registered models,
  // computed after set-up and before any measured phase.
  for (std::size_t m = 0; m < Models().size(); ++m) {
    pools.expected.emplace_back();
    for (const Tensor& input : pools.inputs[m]) {
      pools.expected.back().push_back(system->direct[m].Run(input, nullptr));
    }
  }
  const int port = system->frontend->port();
  const ConnectFn wire = WireConnect(port, pools);
  const double s = args.seconds;

  if (!args.trace) {
    const PhaseResult capacity = RunClosedLoop(args.seed, 0.2 * s, pools, wire, &spans);
    const PhaseResult nominal =
        RunOpenLoop(PoissonSchedule(args.seed, 2, kNominalRps, 0.4 * s, conns), 0.4 * s,
                    pools, wire, &spans, "WireClient::Call", "nominal");
    const PhaseResult peak =
        RunOpenLoop(PoissonSchedule(args.seed, 3, kPeakRps, 0.4 * s, conns), 0.4 * s, pools,
                    wire, &spans, "WireClient::Call", "peak");
    for (const PhaseResult* p : {&capacity, &nominal, &peak}) {
      out.attempted += p->attempted;
      out.failed += p->failed();
      out.wrong += p->wrong;
    }
    if (!CheckLag(nominal, peak, &out)) {
      return out;
    }
    out.Set("setup_s", Median(setup_s), "median of " + std::to_string(kSetUps) + " set-ups");
    const std::vector<double> at_nominal = nominal.Latencies();
    const std::vector<double> at_peak = peak.Latencies();
    const std::string n = Count(nominal) + " nominal";
    out.Set("latency_p50_ms", BlockedPercentile(at_nominal, 50), n);
    out.Set("latency_p99_ms", BlockedPercentile(at_nominal, 99), n);
    out.Set("peak.latency_p50_ms", BlockedPercentile(at_peak, 50), Count(peak) + " peak");
    out.Set("peak.latency_p99_ms", BlockedPercentile(at_peak, 99), Count(peak) + " peak");
    out.Set("capacity_rps", static_cast<double>(capacity.ok) / capacity.seconds,
            std::to_string(capacity.ok) + " replies, closed loop, " + std::to_string(conns) +
                " connections");
    out.Set("peak_rss_mb", PeakRssMb());
    return out;
  }

  // Traced run: untraced wire phases at both rates, the nominal schedule again in
  // process, then the nominal schedule over the wire with spans and per-node profiling.
  AddStaticLayerMetrics(*system, &out);
  out.Set("runtime.fork_join_us", fork_join_us, "empty ParallelFor, all cores");
  const double q = 0.25 * s;
  const auto nominal_schedule = PoissonSchedule(args.seed, 2, kNominalRps, q, conns);
  const neocpu::ServerStats before = system->server->Stats();
  const PhaseResult wire_nominal =
      RunOpenLoop(nominal_schedule, q, pools, wire, &untraced, "WireClient::Call", "nominal");
  const PhaseResult wire_peak = RunOpenLoop(PoissonSchedule(args.seed, 3, kPeakRps, q, conns),
                                            q, pools, wire, &untraced, "WireClient::Call", "peak");
  if (!CheckLag(wire_nominal, wire_peak, &out)) {
    return out;
  }
  const neocpu::ServerStats after_wire = system->server->Stats();
  const std::uint64_t allocs_before = neocpu::TensorHeapAllocCount();
  const PhaseResult inproc =
      RunOpenLoop(nominal_schedule, q, pools, InProcessConnect(system->server.get(), pools),
                  &spans, "TrySubmit->ready", "inproc_nominal");
  const std::uint64_t allocs = neocpu::TensorHeapAllocCount() - allocs_before;
  const neocpu::ServerStats after_inproc = system->server->Stats();
  system->server->registry().ConfigureProfiling(1);
  const PhaseResult traced = RunOpenLoop(nominal_schedule, q, pools, wire, &spans,
                                         "WireClient::Call", "traced_nominal");
  const neocpu::ServerStats after_traced = system->server->Stats();
  AddKernelMetrics(*system, after_traced.completed - after_inproc.completed, &out);
  const double direct_p50 = DirectRunP50(*system, pools);

  for (const PhaseResult* p : {&wire_nominal, &wire_peak, &inproc, &traced}) {
    out.attempted += p->attempted;
    out.failed += p->failed();
    out.wrong += p->wrong;
  }
  const double wire_p50 = BlockedPercentile(wire_nominal.Latencies(), 50);
  const double inproc_p50 = BlockedPercentile(inproc.Latencies(), 50);
  const std::uint64_t runs = after_wire.batch_runs - before.batch_runs;
  const std::uint64_t served = after_wire.completed - before.completed;
  out.Set("serve.inproc_p50_ms", inproc_p50, Count(inproc) + " nominal, no sockets");
  out.Set("serve.queue_ms", inproc_p50 - direct_p50,
          "direct Run p50 " + std::to_string(direct_p50) + " ms");
  out.Set("serve.mean_batch",
          runs == 0 ? 0.0 : static_cast<double>(served) / static_cast<double>(runs),
          "untraced wire phases");
  out.Set("serve.batch_runs", static_cast<double>(runs), "untraced wire phases");
  out.Set("serve.shed", static_cast<double>(after_traced.requests_shed), "whole run");
  out.Set("serve.heap_allocs_per_req",
          static_cast<double>(allocs) /
              static_cast<double>(std::max<std::uint64_t>(1, inproc.ok)),
          "in-process phase");
  out.Set("frontend.overhead_ms", wire_p50 - inproc_p50,
          "wire p50 " + std::to_string(wire_p50) + " ms");
  out.Set("frontend.errors",
          static_cast<double>(wire_nominal.errors + wire_peak.errors + traced.errors),
          "non-shed error replies and transport failures");
  out.Set("loadgen.lag_ms", LagP99(wire_nominal, wire_peak), "p99, untraced wire phases");
  out.Set("obs.trace_overhead_frac", BlockedPercentile(traced.Latencies(), 50) / wire_p50 - 1.0,
          "p50, " + Count(traced) + " traced vs " + Count(wire_nominal));

  const std::string trace_path = args.trace_dir + "/" + args.workload + "-seed" +
                                 std::to_string(args.seed) + ".trace.json";
  const std::string other = "{\"workload\": \"" + args.workload +
                            "\", \"host\": " + HostStampJson() + "}";
  if (spans.WriteChromeTrace(trace_path, other)) {
    std::printf("wrote %s (%zu spans)\n", trace_path.c_str(), spans.size());
  }
  return out;
}

}  // namespace perfbench
