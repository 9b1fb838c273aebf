// Layout-transformation cost micro-benchmarks: the runtime price the graph-level
// optimization (§3.2/§3.3) eliminates or trades against better convolution schedules.
// Each feature-map transform writes into a preallocated destination, as the executor's
// planned buffers do, so the timings exclude allocation.
#include <benchmark/benchmark.h>

#include "src/base/rng.h"
#include "src/tensor/layout_transform.h"
#include "src/tuning/cost_model.h"

namespace neocpu {
namespace {

// NCHW -> NCHW16c for feature maps of growing size (the per-conv boundary transform the
// "Layout Opt." ablation row pays twice per convolution).
void BM_NCHWToNCHWc(benchmark::State& state) {
  const std::int64_t c = 64;
  const std::int64_t hw = state.range(0);
  Rng rng(1);
  Tensor src = Tensor::Random({1, c, hw, hw}, rng, -1, 1, Layout::NCHW());
  Tensor dst = Tensor::Empty({1, c / 16, hw, hw, 16}, Layout::NCHWc(16));
  for (auto _ : state) {
    NCHWToNCHWc(src, 16, &dst);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(src.SizeBytes()));
}
BENCHMARK(BM_NCHWToNCHWc)->Arg(14)->Arg(28)->Arg(56)->Arg(112)->Unit(benchmark::kMicrosecond);

void BM_NCHWcToNCHW(benchmark::State& state) {
  const std::int64_t hw = state.range(0);
  Rng rng(2);
  Tensor src = Tensor::Random({1, 4, hw, hw, 16}, rng, -1, 1, Layout::NCHWc(16));
  Tensor dst = Tensor::Empty({1, 64, hw, hw}, Layout::NCHW());
  for (auto _ : state) {
    NCHWcToNCHW(src, &dst);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(src.SizeBytes()));
}
BENCHMARK(BM_NCHWcToNCHW)->Arg(14)->Arg(28)->Arg(56)->Arg(112)->Unit(benchmark::kMicrosecond);

// Re-blocking between two blocked layouts: the mismatch cost the global search's edge
// matrices price (Figure 3's yellow boxes).
void BM_Reblock16To8(benchmark::State& state) {
  const std::int64_t hw = state.range(0);
  Rng rng(3);
  Tensor src = Tensor::Random({1, 4, hw, hw, 16}, rng, -1, 1, Layout::NCHWc(16));
  Tensor dst = Tensor::Empty({1, 8, hw, hw, 8}, Layout::NCHWc(8));
  for (auto _ : state) {
    NCHWcToNCHWc(src, 8, &dst);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(src.SizeBytes()));
}
BENCHMARK(BM_Reblock16To8)->Arg(14)->Arg(28)->Arg(56)->Unit(benchmark::kMicrosecond);

// Weight pre-transformation (compile-time in NeoCPU; per-inference cost in systems that
// cannot hoist it).
void BM_WeightOIHWio(benchmark::State& state) {
  Rng rng(4);
  Tensor w = Tensor::Random({256, 256, 3, 3}, rng, -1, 1, Layout::OIHW());
  for (auto _ : state) {
    benchmark::DoNotOptimize(OIHWToOIHWio(w, 16, 16));
  }
}
BENCHMARK(BM_WeightOIHWio)->Unit(benchmark::kMillisecond);

// The calibrated bandwidth model against the real transform (sanity for the cost model).
void BM_TransformModelAccuracy(benchmark::State& state) {
  Rng rng(5);
  Tensor src = Tensor::Random({1, 64, 56, 56}, rng, -1, 1, Layout::NCHW());
  Tensor dst = Tensor::Empty({1, 4, 56, 56, 16}, Layout::NCHWc(16));
  const double predicted_ms = TransformMs(static_cast<std::int64_t>(src.SizeBytes()));
  for (auto _ : state) {
    NCHWToNCHWc(src, 16, &dst);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.counters["model_ms"] = predicted_ms;
}
BENCHMARK(BM_TransformModelAccuracy)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace neocpu

BENCHMARK_MAIN();
