// Figure 1 / §3.1 micro-benchmarks: the NCHW[x]c direct-convolution template against
// the NCHW baselines on real ResNet-50 workloads, plus schedule-parameter ablations
// (reg_n register blocking, oc_bn ISA blocking, unroll_ker) — the knobs DESIGN.md calls
// out as design-choice ablations.
#include <benchmark/benchmark.h>

#include "src/base/rng.h"
#include "src/kernels/conv_im2col.h"
#include "src/kernels/conv_nchwc.h"
#include "src/kernels/conv_nchwc_int8.h"
#include "src/kernels/conv_ref.h"
#include "src/kernels/conv_winograd.h"
#include "src/kernels/quantize.h"
#include "src/tensor/layout_transform.h"

namespace neocpu {
namespace {

// Representative ResNet-50 convolution workloads (batch 1, 224x224 input).
const Conv2dParams kWorkloads[] = {
    {1, 3, 224, 224, 64, 7, 7, 2, 2, 3, 3},     // stem
    {1, 64, 56, 56, 64, 1, 1, 1, 1, 0, 0},      // stage1 1x1
    {1, 64, 56, 56, 64, 3, 3, 1, 1, 1, 1},      // stage1 3x3
    {1, 256, 56, 56, 128, 1, 1, 2, 2, 0, 0},    // stage2 downsample
    {1, 512, 7, 7, 512, 3, 3, 1, 1, 1, 1},      // stage4 3x3
};

struct BlockedSetup {
  Conv2dParams p;
  ConvSchedule s;
  Tensor in, w, out;
};

BlockedSetup MakeBlocked(const Conv2dParams& p, const ConvSchedule& s) {
  Rng rng(1);
  BlockedSetup setup{p, s, {}, {}, {}};
  setup.in = Tensor::Random({p.batch, p.in_c / s.ic_bn, p.in_h, p.in_w, s.ic_bn}, rng, -1, 1,
                            Layout::NCHWc(s.ic_bn));
  setup.w = Tensor::Random(
      {p.out_c / s.oc_bn, p.in_c / s.ic_bn, p.kernel_h, p.kernel_w, s.ic_bn, s.oc_bn}, rng,
      -0.5f, 0.5f, Layout::OIHWio(s.ic_bn, s.oc_bn));
  setup.out = Tensor::Empty({p.batch, p.out_c / s.oc_bn, p.OutH(), p.OutW(), s.oc_bn},
                            Layout::NCHWc(s.oc_bn));
  return setup;
}

ConvSchedule DefaultSchedule(const Conv2dParams& p) {
  auto factor = [](std::int64_t c, std::int64_t want) {
    std::int64_t best = 1;
    for (std::int64_t f = 1; f <= want && f <= c; ++f) {
      if (c % f == 0) {
        best = f;
      }
    }
    return best;
  };
  return ConvSchedule{factor(p.in_c, 16), factor(p.out_c, 16), 8, true};
}

void BM_ConvNCHWc(benchmark::State& state) {
  const Conv2dParams& p = kWorkloads[state.range(0)];
  BlockedSetup setup = MakeBlocked(p, DefaultSchedule(p));
  for (auto _ : state) {
    ConvNCHWc(setup.p, setup.s, setup.in, setup.w, nullptr, nullptr, {}, &setup.out);
  }
  state.counters["GFLOPS"] =
      benchmark::Counter(2.0 * p.Macs(), benchmark::Counter::kIsIterationInvariantRate,
                         benchmark::Counter::kIs1000);
}
BENCHMARK(BM_ConvNCHWc)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

void BM_ConvDirectNCHW(benchmark::State& state) {
  const Conv2dParams& p = kWorkloads[state.range(0)];
  Rng rng(2);
  Tensor in = Tensor::Random({p.batch, p.in_c, p.in_h, p.in_w}, rng, -1, 1, Layout::NCHW());
  Tensor w = Tensor::Random({p.out_c, p.in_c, p.kernel_h, p.kernel_w}, rng, -0.5f, 0.5f,
                            Layout::OIHW());
  Tensor out = Tensor::Empty({p.batch, p.out_c, p.OutH(), p.OutW()}, Layout::NCHW());
  for (auto _ : state) {
    ConvRefNCHW(p, in, w, nullptr, nullptr, {}, &out);
  }
  state.counters["GFLOPS"] =
      benchmark::Counter(2.0 * p.Macs(), benchmark::Counter::kIsIterationInvariantRate,
                         benchmark::Counter::kIs1000);
}
BENCHMARK(BM_ConvDirectNCHW)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

void BM_ConvIm2col(benchmark::State& state) {
  const Conv2dParams& p = kWorkloads[state.range(0)];
  Rng rng(3);
  Tensor in = Tensor::Random({p.batch, p.in_c, p.in_h, p.in_w}, rng, -1, 1, Layout::NCHW());
  Tensor w = Tensor::Random({p.out_c, p.in_c, p.kernel_h, p.kernel_w}, rng, -0.5f, 0.5f,
                            Layout::OIHW());
  Tensor out = Tensor::Empty({p.batch, p.out_c, p.OutH(), p.OutW()}, Layout::NCHW());
  for (auto _ : state) {
    ConvIm2col(p, in, w, nullptr, nullptr, {}, &out);
  }
  state.counters["GFLOPS"] =
      benchmark::Counter(2.0 * p.Macs(), benchmark::Counter::kIsIterationInvariantRate,
                         benchmark::Counter::kIs1000);
}
BENCHMARK(BM_ConvIm2col)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

// Ablation: reg_n register blocking (Figure 1's claim that reusing one kernel vector
// across reg_n output positions is what buys the FMA throughput).
void BM_Ablation_RegN(benchmark::State& state) {
  Conv2dParams p{1, 64, 56, 56, 64, 3, 3, 1, 1, 1, 1};
  ConvSchedule s{16, 16, state.range(0), true};
  BlockedSetup setup = MakeBlocked(p, s);
  for (auto _ : state) {
    ConvNCHWc(setup.p, setup.s, setup.in, setup.w, nullptr, nullptr, {}, &setup.out);
  }
}
BENCHMARK(BM_Ablation_RegN)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

// Ablation: channel block = ISA vector width (4 = NEON, 8 = AVX2, 16/32 = AVX-512).
void BM_Ablation_Block(benchmark::State& state) {
  Conv2dParams p{1, 64, 56, 56, 64, 3, 3, 1, 1, 1, 1};
  const std::int64_t block = state.range(0);
  ConvSchedule s{block, block, 8, true};
  BlockedSetup setup = MakeBlocked(p, s);
  for (auto _ : state) {
    ConvNCHWc(setup.p, setup.s, setup.in, setup.w, nullptr, nullptr, {}, &setup.out);
  }
}
BENCHMARK(BM_Ablation_Block)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

// Ablation: unroll_ker on/off (the boolean in the paper's schedule tuple).
void BM_Ablation_UnrollKer(benchmark::State& state) {
  Conv2dParams p{1, 64, 56, 56, 64, 3, 3, 1, 1, 1, 1};
  ConvSchedule s{16, 16, 8, state.range(0) != 0};
  BlockedSetup setup = MakeBlocked(p, s);
  for (auto _ : state) {
    ConvNCHWc(setup.p, setup.s, setup.in, setup.w, nullptr, nullptr, {}, &setup.out);
  }
}
BENCHMARK(BM_Ablation_UnrollKer)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------- int8
// s8-vs-f32 sweep: the quantized direct template against the fp32 one on the same
// workloads and block sizes. Two uses: (a) the headline comparison — on a multi-lane
// profile with a full s8 vector block (oc_bn=64) the s8 kernel should clear ~2x over
// the fp32 template on a resnet-style 3x3 layer; (b) calibration data for the
// analytic s8 cost model (AnalyticDirectNchwcS8Ms models efficiency as the filled
// fraction of the s8 vector — the block sweep below measures exactly that curve).
// The reported "isa" counter-label shows which runtime-dispatched variant executed.

struct BlockedS8Setup {
  Conv2dParams p;
  ConvSchedule s;
  Tensor in, w, mult, out;
};

BlockedS8Setup MakeBlockedS8(const Conv2dParams& p, std::int64_t block, std::int64_t reg_n) {
  auto factor = [](std::int64_t c, std::int64_t want) {
    std::int64_t best = 1;
    for (std::int64_t f = 1; f <= want && f <= c; ++f) {
      if (c % f == 0) {
        best = f;
      }
    }
    return best;
  };
  BlockedS8Setup setup;
  setup.p = p;
  setup.s = ConvSchedule{factor(p.in_c, block), factor(p.out_c, block), reg_n, true};
  setup.s.dtype = DType::kS8;
  const ConvSchedule& s = setup.s;
  setup.in = Tensor::Empty({p.batch, p.in_c / s.ic_bn, p.in_h, p.in_w, s.ic_bn},
                           Layout::NCHWc(s.ic_bn), DType::kS8);
  setup.w = Tensor::Empty(
      {p.out_c / s.oc_bn, p.in_c / s.ic_bn, p.kernel_h, p.kernel_w, s.ic_bn, s.oc_bn},
      Layout::OIHWio(s.ic_bn, s.oc_bn), DType::kS8);
  std::int8_t* in = setup.in.data_as<std::int8_t>();
  for (std::int64_t i = 0; i < setup.in.NumElements(); ++i) {
    in[i] = static_cast<std::int8_t>(i % 251 - 125);
  }
  std::int8_t* w = setup.w.data_as<std::int8_t>();
  for (std::int64_t i = 0; i < setup.w.NumElements(); ++i) {
    w[i] = static_cast<std::int8_t>(i % 241 - 120);
  }
  setup.mult = Tensor::Full({p.out_c}, 1e-3f);
  setup.out = Tensor::Empty({p.batch, p.out_c / s.oc_bn, p.OutH(), p.OutW(), s.oc_bn},
                            Layout::NCHWc(s.oc_bn), DType::kS8);
  return setup;
}

void BM_ConvNCHWcS8(benchmark::State& state) {
  const Conv2dParams& p = kWorkloads[state.range(0)];
  // Full s8 vector block on the avx512 profile (Target::PreferredBlockS8() == 64).
  BlockedS8Setup setup = MakeBlockedS8(p, 64, 8);
  for (auto _ : state) {
    ConvNCHWcS8(setup.p, setup.s, setup.in, setup.w, nullptr, setup.mult, {}, true,
                &setup.out);
  }
  state.SetLabel(ConvNCHWcS8IsaName());
  state.counters["GMACS"] =
      benchmark::Counter(p.Macs(), benchmark::Counter::kIsIterationInvariantRate,
                         benchmark::Counter::kIs1000);
}
BENCHMARK(BM_ConvNCHWcS8)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

// Block sweep on the resnet-style 3x3 layer: the vector-fill efficiency curve the s8
// analytic cost model is calibrated against (compare with BM_Ablation_Block's fp32
// numbers at the same blocks).
void BM_Ablation_S8Block(benchmark::State& state) {
  Conv2dParams p{1, 128, 28, 28, 128, 3, 3, 1, 1, 1, 1};
  BlockedS8Setup setup = MakeBlockedS8(p, state.range(0), 8);
  for (auto _ : state) {
    ConvNCHWcS8(setup.p, setup.s, setup.in, setup.w, nullptr, setup.mult, {}, true,
                &setup.out);
  }
  state.SetLabel(ConvNCHWcS8IsaName());
}
BENCHMARK(BM_Ablation_S8Block)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);

// The acceptance comparison, in one benchmark pair: fp32 direct NCHWc vs s8 direct
// NCHWc on the same resnet-style 3x3 layer (batch 1, 128c, 28x28), each at its
// profile-preferred block (fp32: one fp32 vector = 16; s8: one s8 vector = 64).
void BM_S8VsF32_Resnet3x3_F32(benchmark::State& state) {
  Conv2dParams p{1, 128, 28, 28, 128, 3, 3, 1, 1, 1, 1};
  BlockedSetup setup = MakeBlocked(p, ConvSchedule{16, 16, 8, true});
  for (auto _ : state) {
    ConvNCHWc(setup.p, setup.s, setup.in, setup.w, nullptr, nullptr, {}, &setup.out);
  }
  state.counters["GMACS"] =
      benchmark::Counter(p.Macs(), benchmark::Counter::kIsIterationInvariantRate,
                         benchmark::Counter::kIs1000);
}
BENCHMARK(BM_S8VsF32_Resnet3x3_F32)->Unit(benchmark::kMillisecond);

void BM_S8VsF32_Resnet3x3_S8(benchmark::State& state) {
  Conv2dParams p{1, 128, 28, 28, 128, 3, 3, 1, 1, 1, 1};
  BlockedS8Setup setup = MakeBlockedS8(p, 64, 8);
  for (auto _ : state) {
    ConvNCHWcS8(setup.p, setup.s, setup.in, setup.w, nullptr, setup.mult, {}, true,
                &setup.out);
  }
  state.SetLabel(ConvNCHWcS8IsaName());
  state.counters["GMACS"] =
      benchmark::Counter(p.Macs(), benchmark::Counter::kIsIterationInvariantRate,
                         benchmark::Counter::kIs1000);
}
BENCHMARK(BM_S8VsF32_Resnet3x3_S8)->Unit(benchmark::kMillisecond);

// u8-activation variant of the blocked setup: u8 input with a 128 zero point,
// VNNI-packed s8 weights (the u8 kernels read the [ic_bn/4][oc_bn][4] inner tile),
// u8 requantized output. Requires ic_bn % 4 == 0, which every block the sweeps use
// satisfies (8/16/32/64).
BlockedS8Setup MakeBlockedU8(const Conv2dParams& p, std::int64_t block,
                             std::int64_t reg_n) {
  BlockedS8Setup setup = MakeBlockedS8(p, block, reg_n);
  setup.s.dtype = DType::kU8;
  setup.in = Tensor::Empty(setup.in.dims(), setup.in.layout(), DType::kU8);
  std::uint8_t* in = setup.in.data_as<std::uint8_t>();
  for (std::int64_t i = 0; i < setup.in.NumElements(); ++i) {
    in[i] = static_cast<std::uint8_t>(i % 251);
  }
  setup.w = PackWeightsVnni(setup.w);
  setup.out = Tensor::Empty(setup.out.dims(), setup.out.layout(), DType::kU8);
  return setup;
}

// u8 counterpart of the BM_ConvNCHWcS8 workload sweep: same shapes, same block, the
// u8 row drivers (vpdpbusd on the VNNI tier, s32 quad loop below it), swept over
// reg_n 2, 4 and 8 (second argument). The stem (workload 0, ic=3) has no
// quad-divisible ic_bn, so it keeps its f32 schedule in real compiles — skip it here
// rather than bench an illegal packing.
//
// The VNNI micro-kernel keeps reg_n * oc_bn/16 zmm accumulators live plus oc_bn/16
// weight vectors, so at oc_bn=64 reg_n=8 fills the 32-register file. That does not
// make it slow: on a 4-core AVX-512 VNNI Xeon (one thread), reg_n 4 and 8 ran within
// 4% of each other on all four workloads, and reg_n 2 was the slowest on the 3x3
// layers (stage4 3x3: 1.47 ms at reg_n 2, 0.94 ms at 4, 0.96 ms at 8). The edge and
// tail blocks run the guarded form of the same register-blocked kernel, so a larger
// reg_n costs only the positions the last block computes past the row end.
void BM_ConvNCHWcU8(benchmark::State& state) {
  const Conv2dParams& p = kWorkloads[state.range(0)];
  BlockedS8Setup setup = MakeBlockedU8(p, 64, state.range(1));
  for (auto _ : state) {
    ConvNCHWcS8(setup.p, setup.s, setup.in, setup.w, nullptr, setup.mult, {}, true,
                &setup.out, nullptr, /*out_zero=*/128, /*in_zero=*/128);
  }
  state.SetLabel(ConvNCHWcS8IsaName());
  state.counters["GMACS"] =
      benchmark::Counter(p.Macs(), benchmark::Counter::kIsIterationInvariantRate,
                         benchmark::Counter::kIs1000);
}
BENCHMARK(BM_ConvNCHWcU8)
    ->ArgsProduct({{1, 2, 3, 4}, {2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

// Third leg of the acceptance comparison: u8 activations on the same resnet-style
// 3x3 layer as BM_S8VsF32_Resnet3x3_{F32,S8}, each dtype at its preferred schedule
// (s8: reg_n=8 for the autovectorized pairwise path; u8: reg_n=4, where the
// BM_ConvNCHWcU8 sweep puts the VNNI kernel's best). On a VNNI host vpdpbusd does
// 4 MACs/byte-lane in one op vs the s8 path's widen+pairwise sequence, so u8 should
// match or beat s8.
void BM_S8VsF32_Resnet3x3_U8(benchmark::State& state) {
  Conv2dParams p{1, 128, 28, 28, 128, 3, 3, 1, 1, 1, 1};
  BlockedS8Setup setup = MakeBlockedU8(p, 64, 4);
  for (auto _ : state) {
    ConvNCHWcS8(setup.p, setup.s, setup.in, setup.w, nullptr, setup.mult, {}, true,
                &setup.out, nullptr, /*out_zero=*/128, /*in_zero=*/128);
  }
  state.SetLabel(ConvNCHWcS8IsaName());
  state.counters["GMACS"] =
      benchmark::Counter(p.Macs(), benchmark::Counter::kIsIterationInvariantRate,
                         benchmark::Counter::kIs1000);
}
BENCHMARK(BM_S8VsF32_Resnet3x3_U8)->Unit(benchmark::kMillisecond);

// VNNI-vs-pairwise ablation: the same u8 workload pinned to each compiled ISA tier
// via SetConvNCHWcS8IsaOverride. Arg indexes kIsaTiers; tiers the binary/CPU lacks
// are skipped (the override refuses them). On VNNI hardware the avx512vnni row is
// the vpdpbusd driver and avx512 is the s16-pairwise fallback — the delta between
// those two rows is the headline "VNNI beats pairwise" number.
const char* const kIsaTiers[] = {"baseline", "avx2", "avx512", "avx512vnni"};

void BM_Ablation_U8Isa(benchmark::State& state) {
  const char* tier = kIsaTiers[state.range(0)];
  if (!SetConvNCHWcS8IsaOverride(tier)) {
    state.SkipWithError("isa tier not available on this host");
    return;
  }
  Conv2dParams p{1, 128, 28, 28, 128, 3, 3, 1, 1, 1, 1};
  BlockedS8Setup setup = MakeBlockedU8(p, 64, 4);
  for (auto _ : state) {
    ConvNCHWcS8(setup.p, setup.s, setup.in, setup.w, nullptr, setup.mult, {}, true,
                &setup.out, nullptr, /*out_zero=*/128, /*in_zero=*/128);
  }
  state.SetLabel(tier);
  state.counters["GMACS"] =
      benchmark::Counter(p.Macs(), benchmark::Counter::kIsIterationInvariantRate,
                         benchmark::Counter::kIs1000);
  SetConvNCHWcS8IsaOverride(nullptr);
}
BENCHMARK(BM_Ablation_U8Isa)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

// Same ablation for s8 activations (no VNNI benefit expected — vpdpbusd wants u8·s8,
// so the s8 path stays on the pairwise driver at every tier; this row pair documents
// that u8 is where the VNNI win lives).
void BM_Ablation_S8Isa(benchmark::State& state) {
  const char* tier = kIsaTiers[state.range(0)];
  if (!SetConvNCHWcS8IsaOverride(tier)) {
    state.SkipWithError("isa tier not available on this host");
    return;
  }
  Conv2dParams p{1, 128, 28, 28, 128, 3, 3, 1, 1, 1, 1};
  BlockedS8Setup setup = MakeBlockedS8(p, 64, 8);
  for (auto _ : state) {
    ConvNCHWcS8(setup.p, setup.s, setup.in, setup.w, nullptr, setup.mult, {}, true,
                &setup.out);
  }
  state.SetLabel(tier);
  state.counters["GMACS"] =
      benchmark::Counter(p.Macs(), benchmark::Counter::kIsIterationInvariantRate,
                         benchmark::Counter::kIs1000);
  SetConvNCHWcS8IsaOverride(nullptr);
}
BENCHMARK(BM_Ablation_S8Isa)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

// The fp32 template pinned to each compiled ISA tier via SetConvNCHWcIsaOverride, on
// the same resnet 3x3 layer and schedule as BM_S8VsF32_Resnet3x3_F32. Arg indexes
// kIsaTiers (the fp32 conv has no avx512vnni tier); tiers the binary/CPU lacks are
// skipped. The baseline row is the portable build; its delta to the widest row is
// what the runtime dispatch of the §3.1 template buys.
void BM_Ablation_F32Isa(benchmark::State& state) {
  const char* tier = kIsaTiers[state.range(0)];
  if (!SetConvNCHWcIsaOverride(tier)) {
    state.SkipWithError("isa tier not available on this host");
    return;
  }
  Conv2dParams p{1, 128, 28, 28, 128, 3, 3, 1, 1, 1, 1};
  BlockedSetup setup = MakeBlocked(p, ConvSchedule{16, 16, 8, true});
  for (auto _ : state) {
    ConvNCHWc(setup.p, setup.s, setup.in, setup.w, nullptr, nullptr, {}, &setup.out);
    benchmark::DoNotOptimize(setup.out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(tier);
  state.counters["GFLOPS"] =
      benchmark::Counter(2.0 * p.Macs(), benchmark::Counter::kIsIterationInvariantRate,
                         benchmark::Counter::kIs1000);
  SetConvNCHWcIsaOverride(nullptr);
}
BENCHMARK(BM_Ablation_F32Isa)->DenseRange(0, 2)->Unit(benchmark::kMillisecond);

// Winograd F(2x2,3x3) vs the direct template on the same workload (the paper's named
// future-work algorithm; arithmetic drops 2.25x, transforms eat part of it back).
void BM_ConvWinograd(benchmark::State& state) {
  const Conv2dParams& p = kWorkloads[state.range(0)];
  if (!WinogradApplicable(p)) {
    state.SkipWithError("not a 3x3/s1 workload");
    return;
  }
  Rng rng(5);
  Tensor in = Tensor::Random({p.batch, p.in_c, p.in_h, p.in_w}, rng, -1, 1, Layout::NCHW());
  Tensor w = Tensor::Random({p.out_c, p.in_c, 3, 3}, rng, -0.5f, 0.5f, Layout::OIHW());
  Tensor u = WinogradTransformWeights(w);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ConvWinograd(p, in, u, nullptr, {}));
  }
  state.counters["GFLOPS(direct-equiv)"] =
      benchmark::Counter(2.0 * p.Macs(), benchmark::Counter::kIsIterationInvariantRate,
                         benchmark::Counter::kIs1000);
}
BENCHMARK(BM_ConvWinograd)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

// Fused epilogue vs separate passes (the fusion half of the joint optimization).
void BM_FusedEpilogue(benchmark::State& state) {
  Conv2dParams p{1, 64, 56, 56, 64, 3, 3, 1, 1, 1, 1};
  ConvSchedule s{16, 16, 8, true};
  BlockedSetup setup = MakeBlocked(p, s);
  Rng rng(4);
  Tensor bias = Tensor::Random({p.out_c}, rng, -0.1f, 0.1f);
  Tensor residual = Tensor::Random(setup.out.dims(), rng, -1, 1, setup.out.layout());
  ConvEpilogue epi{true, true, true};
  for (auto _ : state) {
    ConvNCHWc(setup.p, setup.s, setup.in, setup.w, &bias, &residual, epi, &setup.out);
  }
}
BENCHMARK(BM_FusedEpilogue)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace neocpu

BENCHMARK_MAIN();
