// Tuned GEMM micro-benchmark: the blocked, packed kernel family on transformer-shaped
// workloads, ablated three ways —
//   * tuned f32 vs the same kernel at the fixed blocking GemmSchedule{}, which the
//     framework presets run (the vendor-library stand-in);
//   * ISA tier (f32: baseline / avx2 / avx512; u8: baseline / avx512vnni) via the
//     dispatch override hooks, so the register-blocking win and the ISA win separate;
//   * dtype: tuned f32 vs the u8·s8→s32 integer pipeline with its fused epilogue.
//
//   ./bench_gemm_micro
//
// Shapes are the transformer-encoder zoo model's GEMMs at serving batch 8 (M = B*S)
// plus BERT-base-sized projections/FFNs. Schedules come from the same analytic local
// search the compiler runs for Target::Host(), so the bench measures what a compiled
// model would execute on this host.
// Knobs:
//   NEOCPU_BENCH_RUNS    timed repetitions per cell   (default 20; min is reported)
//   NEOCPU_BENCH_WARMUP  warm-up repetitions          (default 1)
//
// After the sweep the bench checks its own invariants and exits 1 if any fails:
//   * every shape has a fixed row and a tuned-f32 row;
//   * the best tuned f32 tier is >= kTunedFloor x fixed on at least one shape;
//   * where the VNNI tier ran, u8 beats the best tuned f32 on at least one shape.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/kernels/gemm_packed.h"
#include "src/kernels/gemm_packed_int8.h"
#include "src/tuning/local_search.h"

namespace neocpu {
namespace {

struct Shape {
  const char* name;
  std::int64_t m, n, k;
};

// Batch-8 transformer-encoder GEMMs (M = 8 * S = 64) and BERT-base at seq 128.
const Shape kShapes[] = {
    {"enc.qkv", 64, 64, 64},        {"enc.ffn1", 64, 256, 64},
    {"enc.ffn2", 64, 64, 256},      {"bert.proj", 128, 768, 768},
    {"bert.ffn1", 128, 3072, 768},  {"bert.ffn2", 128, 768, 3072},
};

// The tuned f32 kernel must beat its fixed blocking by this factor on at least one
// shape. Hosted CI runners are noisy shared vCPUs, so the floor is modest.
constexpr double kTunedFloor = 1.2;
// Cells take microseconds to milliseconds, so the min of many runs costs little and
// keeps a noisy neighbour from deciding the tuned-vs-fixed ratio.
constexpr std::size_t kRuns = 20;

struct Cell {
  const char* shape;
  std::string kernel;  // "fixed" | "tuned_f32" | "tuned_u8"
  std::string isa;     // the dispatch tier
  double ms = 0.0;
};

double BestMs(const std::vector<double>& samples) {
  double best = samples.front();
  for (double s : samples) {
    best = best < s ? best : s;
  }
  return best;
}

template <typename Fn>
double TimeMs(Fn&& fn) {
  for (std::size_t i = 0; i < bench::Warmup(); ++i) {
    fn();
  }
  std::vector<double> samples;
  for (std::size_t i = 0; i < bench::Runs(kRuns); ++i) {
    Timer t;
    fn();
    samples.push_back(t.Millis());
  }
  return BestMs(samples);
}

// The host's best schedule of `dtype`.
GemmSchedule TunedSchedule(const Shape& shape, DType dtype) {
  const DenseParams params{shape.m, shape.n, shape.k};
  auto result = LocalSearchDenseShared(params, Target::Host(), CostMode::kAnalytic,
                                       /*quick_space=*/true, nullptr, nullptr, nullptr,
                                       dtype);
  return result->BestDense(dtype)->schedule;
}

// Prints one line per shape and the verdict of each invariant; returns false if any
// invariant fails.
bool CheckInvariants(const std::vector<Cell>& cells) {
  bool ok = true;
  bool floor_met = false;
  bool vnni_ran = false;
  bool vnni_beats_f32 = false;
  for (const Shape& shape : kShapes) {
    double fixed_ms = 0.0, best_f32_ms = 0.0, vnni_ms = 0.0;
    for (const Cell& c : cells) {
      if (std::string(c.shape) != shape.name) {
        continue;
      }
      if (c.kernel == "fixed") {
        fixed_ms = c.ms;
      } else if (c.kernel == "tuned_f32") {
        best_f32_ms = best_f32_ms > 0.0 ? std::min(best_f32_ms, c.ms) : c.ms;
      } else if (c.isa == "avx512vnni") {
        vnni_ms = c.ms;
      }
    }
    if (fixed_ms <= 0.0 || best_f32_ms <= 0.0) {
      std::printf("FAIL: shape %s is missing its fixed or tuned_f32 row\n", shape.name);
      ok = false;
      continue;
    }
    const double speedup = fixed_ms / best_f32_ms;
    floor_met = floor_met || speedup >= kTunedFloor;
    std::printf("%s: tuned_f32 %.2fx over fixed", shape.name, speedup);
    if (vnni_ms > 0.0) {
      vnni_ran = true;
      const double ratio = best_f32_ms / vnni_ms;
      vnni_beats_f32 = vnni_beats_f32 || ratio > 1.0;
      std::printf(", vnni u8 %.2fx over tuned f32", ratio);
    }
    std::printf("\n");
  }
  if (!floor_met) {
    std::printf("FAIL: no shape reached the %.1fx tuned-vs-fixed floor\n", kTunedFloor);
    ok = false;
  }
  if (vnni_ran && !vnni_beats_f32) {
    std::printf("FAIL: the VNNI u8 tier never beat tuned f32\n");
    ok = false;
  }
  if (!vnni_ran) {
    std::printf("WARN: no avx512vnni rows (host lacks the tier); dtype check skipped\n");
  }
  if (ok) {
    std::printf("OK: gemm invariants hold (tuned f32 >= %.1fx fixed%s)\n", kTunedFloor,
                vnni_ran ? ", vnni u8 beats tuned f32" : "");
  }
  return ok;
}

}  // namespace
}  // namespace neocpu

int main() {
  using namespace neocpu;
  NeoThreadPool pool(HostCpuInfo().physical_cores, false);
  Rng rng(7);
  std::vector<Cell> cells;

  const char* f32_tiers[] = {"baseline", "avx2", "avx512"};
  const char* u8_tiers[] = {"baseline", "avx512vnni"};

  std::printf("%-10s %-10s %-11s %10s %10s\n", "shape", "kernel", "isa", "ms",
              "GFLOP/s");
  for (const Shape& shape : kShapes) {
    const double flops = 2.0 * static_cast<double>(shape.m) *
                         static_cast<double>(shape.n) * static_cast<double>(shape.k);
    auto record = [&](const char* kernel, const char* isa, double ms) {
      cells.push_back({shape.name, kernel, isa, ms});
      std::printf("%-10s %-10s %-11s %10.4f %10.1f\n", shape.name, kernel, isa, ms,
                  flops / (ms * 1e6));
    };

    // f32: B packed for schedule `s`, then the kernel timed on the active tier.
    Tensor a = Tensor::Random({shape.m, shape.k}, rng, -1.0f, 1.0f);
    Tensor w = Tensor::Random({shape.n, shape.k}, rng, -0.5f, 0.5f);
    Tensor c = Tensor::Empty({shape.m, shape.n});
    auto time_f32 = [&](const GemmSchedule& s) {
      Tensor packed_b = Tensor::Empty(
          {static_cast<std::int64_t>(PackedBF32Elems(shape.n, shape.k, s))});
      PackBF32FromTransposed(w.data(), shape.n, shape.k, s, packed_b.data());
      Tensor workspace = Tensor::Empty(
          {static_cast<std::int64_t>(PackedAF32Elems(shape.m, shape.k, s))});
      return TimeMs([&] {
        GemmPackedF32(shape.m, shape.n, shape.k, a.data(), packed_b.data(), nullptr,
                      false, c.data(), s, workspace.data(), &pool);
      });
    };
    // The fixed blocking on the widest tier, then the tuned one per ISA tier.
    record("fixed", GemmPackedIsaName(), time_f32(GemmSchedule{}));
    const GemmSchedule tuned = TunedSchedule(shape, DType::kF32);
    for (const char* tier : f32_tiers) {
      if (SetGemmPackedIsaOverride(tier)) {  // false: the host cannot execute this tier
        record("tuned_f32", tier, time_f32(tuned));
      }
    }
    SetGemmPackedIsaOverride(nullptr);

    // Tuned u8·s8, per ISA tier (f32 output epilogue, mult = 1).
    {
      const GemmSchedule s = TunedSchedule(shape, DType::kU8);
      Tensor a_u8 = Tensor::Empty({shape.m, shape.k}, Layout::Flat(), DType::kU8);
      Tensor w_s8 = Tensor::Empty({shape.n, shape.k}, Layout::Flat(), DType::kS8);
      for (std::int64_t i = 0; i < a_u8.NumElements(); ++i) {
        a_u8.data_as<std::uint8_t>()[i] = static_cast<std::uint8_t>(rng.NextU64() % 255);
      }
      for (std::int64_t i = 0; i < w_s8.NumElements(); ++i) {
        w_s8.data_as<std::int8_t>()[i] =
            static_cast<std::int8_t>(rng.NextU64() % 255) - 127;
      }
      std::vector<float> mult(static_cast<std::size_t>(shape.n), 1.0f);
      Tensor packed_b = Tensor::Empty(
          {static_cast<std::int64_t>(PackedBS8Bytes(shape.n, shape.k, s))},
          Layout::Flat(), DType::kS8);
      PackBS8FromTransposed(w_s8.data_as<std::int8_t>(), shape.n, shape.k, s,
                            packed_b.data_as<std::int8_t>());
      Tensor workspace = Tensor::Empty(
          {static_cast<std::int64_t>(PackedAU8Bytes(shape.m, shape.k, s))},
          Layout::Flat(), DType::kU8);
      for (const char* tier : u8_tiers) {
        if (!SetGemmPackedS8IsaOverride(tier)) {
          continue;
        }
        record("tuned_u8", tier, TimeMs([&] {
                 GemmPackedU8S8(shape.m, shape.n, shape.k, a_u8.data_as<std::uint8_t>(),
                                packed_b.data_as<std::int8_t>(), nullptr, mult.data(),
                                false, false, 0, c.data(), s,
                                workspace.data_as<std::uint8_t>(), &pool);
               }));
      }
      SetGemmPackedS8IsaOverride(nullptr);
    }
  }

  return CheckInvariants(cells) ? 0 : 1;
}
