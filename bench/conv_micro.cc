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
// u8-vs-f32 sweep: the quantized direct template (u8 activations with a 128 zero
// point, VNNI-packed s8 weights, u8 requantized output) against the fp32 one on the
// same workloads. Two uses: the headline comparison, and calibration data for the
// analytic int8 cost model (AnalyticDirectNchwcS8Ms models efficiency as the filled
// fraction of the 8-bit vector — the block sweep below measures exactly that curve).
// The label shows which runtime-dispatched tier executed: avx512vnni (vpdpbusd) on
// VNNI hosts, the portable s32 quad loop elsewhere.

struct BlockedU8Setup {
  Conv2dParams p;
  ConvSchedule s;
  Tensor in, w, mult, out;
};

// Runs `p` on its quad-padded input channels (Conv2dParams::QuadPadded), as compiles
// do, so every ic_bn is a multiple of 4: the stem's 3 channels run as one quad.
BlockedU8Setup MakeBlockedU8(const Conv2dParams& unpadded, std::int64_t block,
                             std::int64_t reg_n) {
  const Conv2dParams p = unpadded.QuadPadded();
  auto factor = [](std::int64_t c, std::int64_t want) {
    std::int64_t best = 1;
    for (std::int64_t f = 1; f <= want && f <= c; ++f) {
      if (c % f == 0) {
        best = f;
      }
    }
    return best;
  };
  BlockedU8Setup setup;
  setup.p = p;
  setup.s = ConvSchedule{factor(p.in_c, block), factor(p.out_c, block), reg_n, true};
  setup.s.dtype = DType::kU8;
  const ConvSchedule& s = setup.s;
  setup.in = Tensor::Empty({p.batch, p.in_c / s.ic_bn, p.in_h, p.in_w, s.ic_bn},
                           Layout::NCHWc(s.ic_bn), DType::kU8);
  std::uint8_t* in = setup.in.data_as<std::uint8_t>();
  for (std::int64_t i = 0; i < setup.in.NumElements(); ++i) {
    in[i] = static_cast<std::uint8_t>(i % 251);
  }
  Tensor w = Tensor::Empty(
      {p.out_c / s.oc_bn, p.in_c / s.ic_bn, p.kernel_h, p.kernel_w, s.ic_bn, s.oc_bn},
      Layout::OIHWio(s.ic_bn, s.oc_bn), DType::kS8);
  std::int8_t* wp = w.data_as<std::int8_t>();
  for (std::int64_t i = 0; i < w.NumElements(); ++i) {
    wp[i] = static_cast<std::int8_t>(i % 241 - 120);
  }
  setup.w = PackWeightsVnni(w);
  setup.mult = Tensor::Full({p.out_c}, 1e-3f);
  setup.out = Tensor::Empty({p.batch, p.out_c / s.oc_bn, p.OutH(), p.OutW(), s.oc_bn},
                            Layout::NCHWc(s.oc_bn), DType::kU8);
  return setup;
}

void RunU8(BlockedU8Setup& setup) {
  ConvNCHWcS8(setup.p, setup.s, setup.in, setup.w, nullptr, setup.mult, {}, true,
              &setup.out, nullptr, /*out_zero=*/128, /*in_zero=*/128);
  benchmark::DoNotOptimize(setup.out.data());
  benchmark::ClobberMemory();
}

// The workload sweep at the full 8-bit vector block (Target::PreferredBlockS8() == 64
// on the avx512 profile), swept over reg_n 2, 4 and 8 (second argument). The stem
// (workload 0) runs on its 3 channels padded to 4, ic_bn 4; GMACS counts the real
// channels' MACs, so its rate compares with BM_ConvNCHWc's f32 stem.
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
  BlockedU8Setup setup = MakeBlockedU8(p, 64, state.range(1));
  for (auto _ : state) {
    RunU8(setup);
  }
  state.SetLabel(ConvNCHWcS8IsaName());
  state.counters["GMACS"] =
      benchmark::Counter(p.Macs(), benchmark::Counter::kIsIterationInvariantRate,
                         benchmark::Counter::kIs1000);
}
BENCHMARK(BM_ConvNCHWcU8)
    ->ArgsProduct({{0, 1, 2, 3, 4}, {2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

// Block sweep on the resnet-style 3x3 layer: the vector-fill efficiency curve the int8
// analytic cost model is calibrated against (compare with BM_Ablation_Block's fp32
// numbers at the same blocks).
void BM_Ablation_U8Block(benchmark::State& state) {
  Conv2dParams p{1, 128, 28, 28, 128, 3, 3, 1, 1, 1, 1};
  BlockedU8Setup setup = MakeBlockedU8(p, state.range(0), 4);
  for (auto _ : state) {
    RunU8(setup);
  }
  state.SetLabel(ConvNCHWcS8IsaName());
}
BENCHMARK(BM_Ablation_U8Block)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);

// The acceptance comparison, in one benchmark pair: fp32 direct NCHWc vs u8 direct
// NCHWc on the same resnet-style 3x3 layer (batch 1, 128c, 28x28), each at its
// preferred schedule (fp32: one fp32 vector = 16, reg_n 8; u8: one 8-bit vector = 64,
// reg_n 4, where the BM_ConvNCHWcU8 sweep puts the VNNI kernel's best).
void BM_U8VsF32_Resnet3x3_F32(benchmark::State& state) {
  Conv2dParams p{1, 128, 28, 28, 128, 3, 3, 1, 1, 1, 1};
  BlockedSetup setup = MakeBlocked(p, ConvSchedule{16, 16, 8, true});
  for (auto _ : state) {
    ConvNCHWc(setup.p, setup.s, setup.in, setup.w, nullptr, nullptr, {}, &setup.out);
  }
  state.counters["GMACS"] =
      benchmark::Counter(p.Macs(), benchmark::Counter::kIsIterationInvariantRate,
                         benchmark::Counter::kIs1000);
}
BENCHMARK(BM_U8VsF32_Resnet3x3_F32)->Unit(benchmark::kMillisecond);

void BM_U8VsF32_Resnet3x3_U8(benchmark::State& state) {
  Conv2dParams p{1, 128, 28, 28, 128, 3, 3, 1, 1, 1, 1};
  BlockedU8Setup setup = MakeBlockedU8(p, 64, 4);
  for (auto _ : state) {
    RunU8(setup);
  }
  state.SetLabel(ConvNCHWcS8IsaName());
  state.counters["GMACS"] =
      benchmark::Counter(p.Macs(), benchmark::Counter::kIsIterationInvariantRate,
                         benchmark::Counter::kIs1000);
}
BENCHMARK(BM_U8VsF32_Resnet3x3_U8)->Unit(benchmark::kMillisecond);

// The same u8 workload pinned to each int8 tier via SetConvNCHWcS8IsaOverride; tiers
// the binary/CPU lacks are skipped (the override refuses them). On VNNI hardware the
// delta between the two rows is what vpdpbusd buys over the portable reference.
const char* const kInt8Tiers[] = {"baseline", "avx512vnni"};

void BM_Ablation_U8Isa(benchmark::State& state) {
  const char* tier = kInt8Tiers[state.range(0)];
  if (!SetConvNCHWcS8IsaOverride(tier)) {
    state.SkipWithError("isa tier not available on this host");
    return;
  }
  Conv2dParams p{1, 128, 28, 28, 128, 3, 3, 1, 1, 1, 1};
  BlockedU8Setup setup = MakeBlockedU8(p, 64, 4);
  for (auto _ : state) {
    RunU8(setup);
  }
  state.SetLabel(tier);
  state.counters["GMACS"] =
      benchmark::Counter(p.Macs(), benchmark::Counter::kIsIterationInvariantRate,
                         benchmark::Counter::kIs1000);
  SetConvNCHWcS8IsaOverride(nullptr);
}
BENCHMARK(BM_Ablation_U8Isa)->DenseRange(0, 1)->Unit(benchmark::kMillisecond);

// The fp32 template pinned to each compiled ISA tier via SetConvNCHWcIsaOverride, on
// the same resnet 3x3 layer and schedule as BM_U8VsF32_Resnet3x3_F32; tiers the
// binary/CPU lacks are skipped. The baseline row is the portable build; its delta to
// the widest row is what the runtime dispatch of the §3.1 template buys.
const char* const kF32Tiers[] = {"baseline", "avx2", "avx512"};

void BM_Ablation_F32Isa(benchmark::State& state) {
  const char* tier = kF32Tiers[state.range(0)];
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
  Tensor out = Tensor::Empty({p.batch, p.out_c, p.OutH(), p.OutW()}, Layout::NCHW());
  for (auto _ : state) {
    ConvWinograd(p, in, u, nullptr, {}, &out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
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
