#include "perfbench/common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <thread>

namespace perfbench {

using neocpu::Tensor;

double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = value == "1";
      if (value != "0" && value != "1") {
        *error = "--trace takes 0 or 1";
        return false;
      }
    } else if (flag == "--trace-dir") {
      args->trace_dir = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (end != nullptr && *end != '\0') {
      *error = "bad number for " + flag + ": " + value;
      return false;
    }
  }
  if (!have_workload) {
    *error = "--workload is required";
    return false;
  }
  if (!(args->seconds > 0.0) || args->seconds > 600.0) {
    *error = "--seconds must be in (0, 600]";
    return false;
  }
  return true;
}

const std::vector<MetricSpec>& EndToEndSpecs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", ""},
      {"latency_p50_ms", "ms", ""},
      {"latency_p90_ms", "ms", ""},
      {"latency_p99_ms", "ms", ""},
      {"peak.latency_p50_ms", "ms", ""},
      {"peak.latency_p99_ms", "ms", ""},
      {"capacity_rps", "req/s", ""},
      {"peak_rss_mb", "MB", ""},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerSpecs() {
  static const std::vector<MetricSpec> specs = [] {
    const std::string cnn_p50 = "latency_p50_ms on the cnn workloads";
    std::vector<MetricSpec> s = {
        {"graph.nodes", "count", "latency_p50_ms on cnn_f32_b1"},
        {"graph.layout_transforms", "count", "latency_p50_ms on cnn_f32_b1"},
        {"graph.qdq_nodes", "count", "latency_p50_ms on cnn_u8_b1, not cnn_f32_b1"},
        {"tuning.local_s", "s", "setup_s on all workloads"},
        {"tuning.global_s", "s", "setup_s on all workloads"},
        {"tuning.cache_hits", "count", "setup_s on all workloads"},
        {"tuning.cache_misses", "count", "setup_s on all workloads"},
        {"tuning.rank_corr", "rho", cnn_p50},
        {"tuning.rank_convs", "count", "base of tuning.rank_corr"},
        {"core.compile_s", "s", "setup_s"},
        {"core.arena_mb", "MB", "peak_rss_mb"},
        {"core.dispatch_ms", "ms", cnn_p50},
        {"core.heap_allocs_per_run", "count", cnn_p50},
    };
    for (const std::string& family : KernelFamilies()) {
      s.push_back({"kernels." + family + ".ms_per_inf", "ms",
                   "latency_p50_ms of the workload that runs it"});
    }
    const std::vector<MetricSpec> rest = {
        {"kernels.conv_f32.gflops", "GFLOP/s", cnn_p50 + ", hardly serve_wire"},
        {"kernels.conv_u8.gops", "GOP/s", cnn_p50 + ", hardly serve_wire"},
        {"runtime.fork_join_us", "us", "latency_p50_ms on serve_wire more than cnn"},
        {"runtime.scaling", "ratio", cnn_p50},
        {"serve.inproc_p50_ms", "ms", "latency_p50_ms on serve_wire"},
        {"serve.queue_ms", "ms", "latency_p50_ms on serve_wire"},
        {"serve.mean_batch", "req/batch", "capacity_rps up, peak.latency_p50_ms up"},
        {"serve.batch_runs", "count", "capacity_rps, peak.latency_p50_ms"},
        {"serve.shed", "count", "failed_frac"},
        {"serve.heap_allocs_per_req", "count", "latency_p99_ms on serve_wire"},
        {"frontend.overhead_ms", "ms", "latency_p50_ms on serve_wire, not cnn"},
        {"frontend.errors", "count", "failed_frac"},
        {"loadgen.lag_ms", "ms", "validity check, not a result"},
        {"obs.trace_overhead_frac", "ratio", "traced p50 / untraced p50 - 1"},
    };
    s.insert(s.end(), rest.begin(), rest.end());
    return s;
  }();
  return specs;
}

void Outcome::Set(const std::string& name, double value, std::string note) {
  values[name] = value;
  if (!note.empty()) {
    notes[name] = std::move(note);
  }
}

namespace {

void PrintRow(const MetricSpec& spec, const Outcome& outcome) {
  const auto value_it = outcome.values.find(spec.name);
  const bool applies = value_it != outcome.values.end();
  const auto note_it = outcome.notes.find(spec.name);
  std::string note = applies ? (note_it != outcome.notes.end() ? note_it->second : "")
                             : "n/a on this workload";
  if (!spec.moves.empty()) {
    note += (note.empty() ? "-> " : "; -> ") + spec.moves;
  }
  char value[32] = "-";
  if (applies) {
    std::snprintf(value, sizeof(value), "%.6g", value_it->second);
  }
  std::printf("  %-34s %14s %-9s %s\n", spec.name.c_str(), value, spec.unit.c_str(),
              note.c_str());
}

}  // namespace

bool PrintOutcome(const Args& args, const Outcome& outcome) {
  const std::vector<MetricSpec>& specs = args.trace ? PerLayerSpecs() : EndToEndSpecs();
  for (const auto& [name, value] : outcome.values) {
    auto named = [&name](const MetricSpec& s) { return s.name == name; };
    if (std::none_of(specs.begin(), specs.end(), named)) {
      std::fprintf(stderr, "perfbench: metric %s is not in the %s specs\n", name.c_str(),
                   args.trace ? "per-layer" : "end-to-end");
      return false;
    }
  }
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("host: %s\n", HostStamp().c_str());
  std::string json = "{\"correct\": ";
  json += outcome.wrong == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    PrintRow(spec, outcome);
    // Metrics that do not apply to the workload (or came out non-finite) stay out of
    // the JSON line rather than reading as a measured 0.
    const auto it = outcome.values.find(spec.name);
    if (it == outcome.values.end() || !std::isfinite(it->second)) {
      continue;
    }
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", it->second);
    json += (first ? "\"" : ", \"") + spec.name + "\": {\"value\": " + number +
            ", \"unit\": \"" + spec.unit + "\"}";
    first = false;
  }
  json += "}}";
  const double failed_frac =
      outcome.attempted == 0
          ? 0.0
          : static_cast<double>(outcome.failed) / static_cast<double>(outcome.attempted);
  std::printf("  %-34s %14.6g %-9s %llu failed of %llu attempted, %llu wrong outputs\n",
              "failed_frac", failed_frac, "fraction",
              static_cast<unsigned long long>(outcome.failed),
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.wrong));
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return true;
}

// ---- host shape -------------------------------------------------------------------

namespace {

std::string CpuidFlags() {
  std::string flags;
#if defined(__x86_64__) || defined(__i386__)
  auto add = [&flags](bool present, const char* name) {
    if (present) {
      flags += flags.empty() ? "" : ",";
      flags += name;
    }
  };
  add(__builtin_cpu_supports("avx2"), "avx2");
  add(__builtin_cpu_supports("fma"), "fma");
  add(__builtin_cpu_supports("avx512f"), "avx512f");
  add(__builtin_cpu_supports("avx512cd"), "avx512cd");
  add(__builtin_cpu_supports("avx512bw"), "avx512bw");
  add(__builtin_cpu_supports("avx512dq"), "avx512dq");
  add(__builtin_cpu_supports("avx512vl"), "avx512vl");
  add(__builtin_cpu_supports("avx512vnni"), "avx512vnni");
#endif
  return flags.empty() ? "none" : flags;
}

}  // namespace

int Nproc() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::string HostStamp() {
  const neocpu::CpuInfo& cpu = neocpu::HostCpuInfo();
  return "nproc=" + std::to_string(Nproc()) + " isa=" + neocpu::SimdIsaName(cpu.isa) +
         " has_vnni=" + (cpu.has_vnni ? "1" : "0") + " cpuid=" + CpuidFlags() +
         " brand=\"" + cpu.brand + "\"";
}

std::string HostStampJson() {
  const neocpu::CpuInfo& cpu = neocpu::HostCpuInfo();
  std::string brand;
  for (char c : cpu.brand) {
    if (c != '"' && c != '\\') {
      brand += c;
    }
  }
  return "{\"nproc\": " + std::to_string(Nproc()) + ", \"isa\": \"" +
         neocpu::SimdIsaName(cpu.isa) + "\", \"has_vnni\": " +
         (cpu.has_vnni ? "true" : "false") + ", \"cpuid\": \"" + CpuidFlags() +
         "\", \"brand\": \"" + brand + "\"}";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---- inputs and output checks -------------------------------------------------------

std::vector<Tensor> SeededInputs(const std::string& model, std::uint64_t seed, int count) {
  const std::vector<std::int64_t> dims = neocpu::ModelInputDims(model);
  const neocpu::Layout layout =
      dims.size() == 4 ? neocpu::Layout::NCHW() : neocpu::Layout::Flat();
  // The model name is folded into the stream so two models drawn from one seed get
  // unrelated inputs.
  std::uint64_t stream = seed * 0x9e3779b97f4a7c15ull;
  for (char c : model) {
    stream = (stream ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  neocpu::Rng rng(stream);
  std::vector<Tensor> inputs;
  for (int i = 0; i < count; ++i) {
    inputs.push_back(Tensor::Random(dims, rng, dims.size() == 4 ? 0.0f : -1.0f, 1.0f,
                                    layout));
  }
  return inputs;
}

double MaxAbsDiff(const Tensor& a, const Tensor& b) {
  if (a.NumElements() != b.NumElements() || a.dtype() != neocpu::DType::kF32 ||
      b.dtype() != neocpu::DType::kF32) {
    return std::numeric_limits<double>::infinity();
  }
  double worst = 0.0;
  const float* pa = a.data();
  const float* pb = b.data();
  for (std::int64_t i = 0; i < a.NumElements(); ++i) {
    const double d = std::fabs(static_cast<double>(pa[i]) - static_cast<double>(pb[i]));
    if (std::isnan(d)) {
      return std::numeric_limits<double>::infinity();
    }
    worst = std::max(worst, d);
  }
  return worst;
}

// ---- statistics -------------------------------------------------------------------

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(values.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

int LatencyBlocks(std::size_t n) {
  return static_cast<int>(
      std::clamp<std::size_t>(n / kMinBlockSamples, 1, static_cast<std::size_t>(kLatencyBlocks)));
}

double BlockedPercentile(const std::vector<double>& time_ordered, double pct) {
  const std::size_t n = time_ordered.size();
  const std::size_t blocks = static_cast<std::size_t>(LatencyBlocks(n));
  std::vector<double> per_block;
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto begin = time_ordered.begin() + static_cast<std::ptrdiff_t>(n * b / blocks);
    const auto end = time_ordered.begin() + static_cast<std::ptrdiff_t>(n * (b + 1) / blocks);
    per_block.push_back(Percentile(std::vector<double>(begin, end), pct));
  }
  return Median(per_block);
}

std::string LatencyNote(std::size_t n) {
  const int blocks = LatencyBlocks(n);
  return "n=" + std::to_string(n) + " in " + std::to_string(blocks) + " block" +
         (blocks == 1 ? "" : "s") + " of " + std::to_string(n / static_cast<std::size_t>(blocks));
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

std::vector<double> Ranks(const std::vector<double>& v) {
  std::vector<std::size_t> order(v.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(),
            [&v](std::size_t a, std::size_t b) { return v[a] < v[b]; });
  std::vector<double> ranks(v.size());
  for (std::size_t i = 0; i < order.size();) {
    std::size_t j = i;
    while (j + 1 < order.size() && v[order[j + 1]] == v[order[i]]) {
      ++j;
    }
    const double average = 0.5 * static_cast<double>(i + j) + 1.0;
    for (std::size_t k = i; k <= j; ++k) {
      ranks[order[k]] = average;
    }
    i = j + 1;
  }
  return ranks;
}

}  // namespace

double Spearman(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 2) {
    return 0.0;
  }
  const std::vector<double> rx = Ranks(x);
  const std::vector<double> ry = Ranks(y);
  const double n = static_cast<double>(x.size());
  const double mean = (n + 1.0) / 2.0;
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < rx.size(); ++i) {
    sxy += (rx[i] - mean) * (ry[i] - mean);
    sxx += (rx[i] - mean) * (rx[i] - mean);
    syy += (ry[i] - mean) * (ry[i] - mean);
  }
  return sxx > 0.0 && syy > 0.0 ? sxy / std::sqrt(sxx * syy) : 0.0;
}

// ---- spans --------------------------------------------------------------------------

namespace {

int ThreadIndex() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

}  // namespace

SpanRecorder::SpanRecorder(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

std::uint64_t SpanRecorder::NewId() {
  return enabled_ ? next_id_.fetch_add(1, std::memory_order_relaxed) : 0;
}

std::uint64_t SpanRecorder::Record(const char* name, Clock::time_point start,
                                   Clock::time_point end, std::uint64_t parent,
                                   std::int64_t request, std::uint64_t id) {
  if (!enabled_) {
    return 0;
  }
  if (id == 0) {
    id = NewId();
  }
  const int tid = ThreadIndex();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, start, end, id, parent, request, tid});
  return id;
}

std::size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool SpanRecorder::WriteChromeTrace(const std::string& path,
                                    const std::string& other_data_json) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  out << "{\"displayTimeUnit\": \"ms\", \"otherData\": " << other_data_json
      << ", \"traceEvents\": [\n";
  char line[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts = std::chrono::duration<double, std::micro>(s.start - origin_).count();
    const double dur = std::chrono::duration<double, std::micro>(s.end - s.start).count();
    std::snprintf(line, sizeof(line),
                  "{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                  "\"parent\": %llu, \"request\": %lld}}%s\n",
                  s.name, s.tid, ts, dur, static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<long long>(s.request), i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// ---- per-layer breakdown ----------------------------------------------------------

const char* KernelFamily(const neocpu::Node& node) {
  using neocpu::OpType;
  switch (node.type) {
    case OpType::kConv2d:
      switch (node.attrs.schedule.algo) {
        case neocpu::ConvAlgo::kDirectNCHWc:
          if (node.attrs.schedule.dtype == neocpu::DType::kU8) {
            return "conv_direct_u8";
          }
          return node.attrs.schedule.dtype == neocpu::DType::kS8 ? "conv_direct_s8"
                                                                 : "conv_direct_f32";
        case neocpu::ConvAlgo::kIm2col:
          return "conv_im2col";
        case neocpu::ConvAlgo::kWinograd:
          return "conv_winograd";
        case neocpu::ConvAlgo::kReference:
          return "other";
      }
      return "other";
    case OpType::kDense:
      return "dense";
    case OpType::kMaxPool:
    case OpType::kAvgPool:
    case OpType::kGlobalAvgPool:
      return "pool";
    case OpType::kBatchNorm:
    case OpType::kScaleShift:
    case OpType::kRelu:
    case OpType::kElemAdd:
    case OpType::kSoftmax:
    case OpType::kLayerNorm:
      return "elementwise";
    case OpType::kLayoutTransform:
      return "layout_transform";
    case OpType::kQuantize:
      return "quantize";
    case OpType::kDequantize:
      return "dequantize";
    case OpType::kConcat:
      return "concat";
    case OpType::kMultiHeadAttention:
      return "attention";
    default:
      return "other";
  }
}

const std::vector<std::string>& KernelFamilies() {
  static const std::vector<std::string> families = {
      "conv_direct_f32", "conv_direct_s8", "conv_direct_u8", "conv_im2col",
      "conv_winograd",   "dense",          "pool",           "elementwise",
      "layout_transform", "quantize",      "dequantize",     "concat",
      "attention",       "other"};
  return families;
}

int ExecutedNodes(const neocpu::Graph& graph) {
  int executed = 0;
  for (int id = 0; id < graph.num_nodes(); ++id) {
    const neocpu::OpType type = graph.node(id).type;
    executed += type != neocpu::OpType::kInput && type != neocpu::OpType::kConstant;
  }
  return executed;
}

int QdqNodes(const neocpu::Graph& graph) {
  return graph.CountNodes(neocpu::OpType::kQuantize) +
         graph.CountNodes(neocpu::OpType::kDequantize);
}

double ForkJoinMicros(neocpu::NeoThreadPool& pool) {
  std::vector<double> us;
  for (int i = 0; i < 2000; ++i) {
    const Clock::time_point start = Clock::now();
    neocpu::ParallelFor(pool, pool.NumWorkers(), [](std::int64_t, std::int64_t) {});
    us.push_back(MillisBetween(start, Clock::now()) * 1e3);
  }
  return Median(us);
}

}  // namespace perfbench
