// Shared helpers for the table/figure reproduction harnesses.
//
// Every harness honours the same environment knobs so the full paper protocol (1000
// timed runs) can be requested on capable hardware while CI-class machines default to a
// quick pass:
//   NEOCPU_BENCH_RUNS    timed runs per measurement            (default 2)
//   NEOCPU_BENCH_WARMUP  untimed warm-up runs                  (default 1)
//   NEOCPU_BENCH_MODELS  comma-separated subset of zoo models  (default: all)
//   NEOCPU_COST_MODE     "analytic" (default) or "measured" local search
#ifndef NEOCPU_BENCH_BENCH_UTIL_H_
#define NEOCPU_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/neocpu.h"

namespace neocpu {
namespace bench {

// Timed repetitions: NEOCPU_BENCH_RUNS, else `fallback`.
inline std::size_t Runs(std::size_t fallback = 2) {
  return EnvSizeT("NEOCPU_BENCH_RUNS", fallback);
}
inline std::size_t Warmup() { return EnvSizeT("NEOCPU_BENCH_WARMUP", 1); }

inline CostMode BenchCostMode() {
  const char* v = std::getenv("NEOCPU_COST_MODE");
  return (v != nullptr && std::strcmp(v, "measured") == 0) ? CostMode::kMeasured
                                                           : CostMode::kAnalytic;
}

inline std::vector<std::string> BenchModels() {
  const char* v = std::getenv("NEOCPU_BENCH_MODELS");
  if (v == nullptr) {
    return ModelZooNames();
  }
  std::vector<std::string> out;
  std::string s(v);
  std::size_t pos = 0;
  while (pos != std::string::npos) {
    const std::size_t comma = s.find(',', pos);
    out.push_back(s.substr(pos, comma == std::string::npos ? comma : comma - pos));
    pos = comma == std::string::npos ? comma : comma + 1;
  }
  return out;
}

inline Tensor ModelInput(const std::string& name) {
  Rng rng(2024);
  return Tensor::Random(ModelInputDims(name), rng, 0.0f, 1.0f, Layout::NCHW());
}

// Measures end-to-end inference latency (paper protocol: batch 1, one image at a time).
inline RunStats MeasureModel(const CompiledModel& model, const Tensor& input,
                             ThreadEngine* engine) {
  return MeasureMillis([&] { model.Run(input, engine); }, Runs(), Warmup());
}

// "mean, stderr" cell in the format of the paper's Table 2.
inline std::string Cell(const RunStats& stats) {
  return StrFormat("%9.2f, %.2f", stats.mean, stats.stderr_);
}

inline void PrintHeader(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("runs=%zu warmup=%zu cost_mode=%s host=%s (%d core(s), %s)\n", Runs(), Warmup(),
              CostModeName(BenchCostMode()), HostCpuInfo().brand.c_str(),
              HostCpuInfo().physical_cores, SimdIsaName(HostCpuInfo().isa));
  std::printf("================================================================\n");
}

}  // namespace bench
}  // namespace neocpu

#endif  // NEOCPU_BENCH_BENCH_UTIL_H_
