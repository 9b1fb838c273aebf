// Shared pieces of perfbench: command-line arguments, the metric report and
// its final JSON line, seeded inputs, output comparison, order statistics, the
// host-shape stamp and an in-memory span recorder that writes chrome://tracing JSON.
//
// Everything here sits outside the library under test: perfbench calls the public API
// of src/ and adds no instrumentation to it.
#ifndef NEOCPU_PERFBENCH_COMMON_H_
#define NEOCPU_PERFBENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/neocpu.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double MillisBetween(Clock::time_point a, Clock::time_point b);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Directory for the chrome-trace file of a traced run.
  std::string trace_dir = ".bench_build/traces";
};

// Parses `--workload W --seed N --seconds S --trace 0|1 [--trace-dir D]`. Returns false with a message on bad input.
bool ParseArgs(int argc, char** argv, Args* args, std::string* error);

// One reported metric. BENCHMARK.json lists the same names, units and directions.
struct MetricSpec {
  std::string name;
  std::string unit;
  // Per-layer metrics: the end-to-end metric (and workload) the layer should move.
  std::string moves;
};

// Untraced runs report these, traced runs the per-layer ones. A workload reports the
// metrics that apply to it; the others print as "n/a" in the table and are left out of
// the JSON line.
const std::vector<MetricSpec>& EndToEndSpecs();
const std::vector<MetricSpec>& PerLayerSpecs();

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // shed, errored, wrong or never sent
  std::uint64_t wrong = 0;   // outputs that disagree with the reference (subset of failed)
  // False when the load generator fell too far behind its schedule: the figures do not
  // describe the intended load, so the run reports nothing.
  bool valid = true;
  std::string invalid_reason;
  std::map<std::string, double> values;
  std::map<std::string, std::string> notes;  // sample counts and other context

  void Set(const std::string& name, double value, std::string note = {});
};

// Prints the metric table, then the single JSON result line (the last line of stdout).
// Returns false when the outcome names a metric outside the specs (a perfbench bug).
bool PrintOutcome(const Args& args, const Outcome& outcome);

// ---- host shape -------------------------------------------------------------------

// "nproc=4 isa=scalar has_vnni=1 cpuid=avx2,fma,avx512f,..." — the library's view of the
// host next to what cpuid reports, so records from different shapes are never compared.
std::string HostStamp();
std::string HostStampJson();

int Nproc();

double PeakRssMb();

// ---- inputs and output checks -------------------------------------------------------

// Seeded distinct inputs for `model` (dims from ModelInputDims, batch 1).
std::vector<neocpu::Tensor> SeededInputs(const std::string& model, std::uint64_t seed,
                                         int count);

// Largest |a - b| over the elements; +inf when the shapes differ or a value is NaN.
double MaxAbsDiff(const neocpu::Tensor& a, const neocpu::Tensor& b);

// ---- statistics -------------------------------------------------------------------

// Nearest-rank percentile (0 < pct <= 100) of an unsorted sample; 0 when empty.
double Percentile(std::vector<double> values, double pct);
// The reported latency percentiles: `time_ordered` is cut into LatencyBlocks(n)
// consecutive blocks of equal count, the nearest-rank percentile is taken within each
// block, and the median over blocks is returned. Host contention on a shared virtual
// machine comes in bursts; one burst inflates one block and barely moves the median,
// so two runs of the same code agree. Blocks hold at least kMinBlockSamples samples,
// so a block's p90 is not its maximum.
inline constexpr int kLatencyBlocks = 5;
inline constexpr std::size_t kMinBlockSamples = 40;
int LatencyBlocks(std::size_t n);
double BlockedPercentile(const std::vector<double>& time_ordered, double pct);
// "n=330 in 5 blocks of 66": the sample count and block size behind a percentile.
std::string LatencyNote(std::size_t n);
double Median(std::vector<double> values);
// Spearman rank correlation (average ranks for ties); 0 when fewer than two points.
double Spearman(const std::vector<double>& x, const std::vector<double>& y);

// ---- spans --------------------------------------------------------------------------

// In-memory span log (name, start, end, parent, request id) written out as chrome-trace
// JSON when the run ends. Disabled recorders ignore every call, so the untraced runs
// pay one branch per call site.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  // A fresh span id, so a parent can be named before its children finish. 0 = none.
  std::uint64_t NewId();
  // Records a finished span and returns its id (`id` 0 allocates one).
  std::uint64_t Record(const char* name, Clock::time_point start, Clock::time_point end,
                       std::uint64_t parent = 0, std::int64_t request = -1,
                       std::uint64_t id = 0);
  std::size_t size() const;
  bool WriteChromeTrace(const std::string& path, const std::string& other_data_json) const;

 private:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    std::uint64_t id;
    std::uint64_t parent;
    std::int64_t request;
    int tid;
  };

  const bool enabled_;
  const Clock::time_point origin_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

// ---- per-layer breakdown ----------------------------------------------------------

// Groups a compiled node into the kernel families the per-layer metrics report:
// conv by algorithm and dtype, dense, pool, elementwise, layout transform, quantize,
// dequantize, concat, attention; everything else is "other".
const char* KernelFamily(const neocpu::Node& node);
// Every family KernelFamily can return, in report order.
const std::vector<std::string>& KernelFamilies();
// Nodes that execute (inputs and constants excluded), and quantize + dequantize nodes.
int ExecutedNodes(const neocpu::Graph& graph);
int QdqNodes(const neocpu::Graph& graph);

// Median wall time, in microseconds, of an empty fork-join region over every worker.
double ForkJoinMicros(neocpu::NeoThreadPool& pool);

// Runs workloads; each returns its outcome. Defined in cnn_workload.cc and
// serve_workload.cc.
Outcome RunCnn(const Args& args);
Outcome RunServe(const Args& args);

}  // namespace perfbench

#endif  // NEOCPU_PERFBENCH_COMMON_H_
