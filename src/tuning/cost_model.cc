#include "src/tuning/cost_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>
#include <vector>

#include "src/base/align.h"
#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/base/timer.h"
#include "src/kernels/conv_im2col.h"
#include "src/kernels/conv_nchwc.h"
#include "src/kernels/conv_nchwc_int8.h"
#include "src/kernels/conv_ref.h"
#include "src/kernels/gemm_packed.h"
#include "src/kernels/gemm_packed_int8.h"
#include "src/tensor/tensor.h"

namespace neocpu {

const char* CostModeName(CostMode mode) {
  return mode == CostMode::kAnalytic ? "analytic" : "measured";
}

double BlockRoundingFactor(std::int64_t out_w, std::int64_t reg_n) {
  const std::int64_t blocks = (out_w + reg_n - 1) / reg_n;
  return static_cast<double>(blocks * reg_n) / static_cast<double>(out_w);
}

namespace {

// The §3.3.1 direct NCHW[x]c template (Algorithm 1): the original analytic model.
double AnalyticDirectNchwcMs(const Conv2dParams& p, const ConvSchedule& s, const Target& t) {
  const double macs = p.Macs();
  const double lanes = static_cast<double>(t.vector_lanes);
  const double peak_macs_per_ns = t.freq_ghz * lanes * static_cast<double>(t.fma_per_cycle);
  double ms = macs / (peak_macs_per_ns * 1e6);

  // Vector-lane utilization: an oc block that is not a lane multiple wastes lanes.
  const double oc_vectors = std::ceil(static_cast<double>(s.oc_bn) / lanes);
  ms *= (oc_vectors * lanes) / static_cast<double>(s.oc_bn);

  // The register tile (Figure 1): each input channel step issues A = reg_n * oc_vectors
  // FMAs, one per accumulator, against oc_vectors weight loads and reg_n broadcasts.
  // Fewer than ~10 independent accumulators cannot hide the FMA latency; the loads add
  // time in proportion to their count per FMA; and a tile whose accumulators, weight
  // vectors and broadcast overflow the register file spills progressively.
  const double accumulators = static_cast<double>(s.reg_n) * oc_vectors;
  ms *= std::max(accumulators, 10.0) / accumulators;
  ms *= 1.0 + 0.25 * (oc_vectors + static_cast<double>(s.reg_n)) / accumulators;
  const double regs_used = accumulators + oc_vectors + 1.0;
  const double regs_avail = static_cast<double>(t.num_vector_registers);
  if (regs_used > regs_avail) {
    ms *= 1.0 + 0.6 * (regs_used - regs_avail) / regs_avail;
  }
  // Inner ici loop overhead for tiny input blocks.
  ms *= 1.0 + 0.8 / static_cast<double>(s.ic_bn);

  // Block rounding: every row runs in whole reg_n blocks (edges on the guarded
  // instantiation of the same template), so the last block's unstored positions are
  // computed too.
  ms *= BlockRoundingFactor(p.OutW(), s.reg_n);

  // Cache footprint: weights streamed per output row block; if the whole reduction's
  // weights for one oc block overflow L2, they re-stream from L3/DRAM.
  const double weight_block_bytes =
      static_cast<double>(p.in_c * p.kernel_h * p.kernel_w * s.oc_bn) * 4.0;
  if (weight_block_bytes > static_cast<double>(t.l2_bytes)) {
    ms *= 1.15;
  }
  // Input row segment reused across kernel taps should stay in L1.
  const double input_rows_bytes =
      static_cast<double>((s.reg_n * p.stride_w + p.kernel_w) * p.kernel_h * s.ic_bn) * 4.0;
  if (input_rows_bytes > static_cast<double>(t.l1d_bytes)) {
    ms *= 1.1;
  }

  // unroll_ker: helps small kernel-entry counts, hurts instruction cache on big ones.
  const std::int64_t entries = p.kernel_h * p.kernel_w;
  if (s.unroll_ker) {
    ms *= entries <= 9 ? 0.97 : (entries > 25 ? 1.04 : 1.0);
  } else {
    ms *= entries <= 9 ? 1.02 : 1.0;
  }
  return ms;
}

// im2col + fixed GEMM: the matrix multiply runs at a library-typical fraction of peak,
// and the column-buffer materialization pays one write + one re-read of the unfolded
// input at the host's streaming bandwidth (the traffic the direct template avoids).
double AnalyticIm2colMs(const Conv2dParams& p, const Target& t) {
  const double peak_macs_per_ms = t.freq_ghz * static_cast<double>(t.vector_lanes) *
                                  static_cast<double>(t.fma_per_cycle) * 1e6;
  double ms = p.Macs() / (peak_macs_per_ms * 0.55);
  const double col_bytes = static_cast<double>(p.batch) *
                           static_cast<double>(p.in_c * p.kernel_h * p.kernel_w) *
                           static_cast<double>(p.OutH() * p.OutW()) * 4.0;
  ms += 2.0 * col_bytes / CalibratedCopyBytesPerMs();
  return ms;
}

// Naive scalar loop nest: no register blocking, no reliable vectorization. Present so a
// forced-reference compile can still be costed; never competitive.
double AnalyticReferenceMs(const Conv2dParams& p, const Target& t) {
  const double scalar_macs_per_ms =
      t.freq_ghz * static_cast<double>(t.fma_per_cycle) * 1e6;
  return 2.0 * p.Macs() / scalar_macs_per_ms;
}

// The u8·s8->s32 NCHWc template (conv_nchwc_int8). The base rate is ~2x the fp32 FMA
// MAC rate *when the oc block fills a whole 8-bit vector* (4x the fp32 lanes);
// narrower blocks waste lanes in every multiply, so efficiency scales with the filled
// fraction — the curve bench/conv_micro's int8 block sweep measures. Secondary terms
// mirror the fp32 model where the loop structure is shared.
double AnalyticDirectNchwcS8Ms(const Conv2dParams& p, const ConvSchedule& s,
                               const Target& t) {
  const double macs = p.Macs();
  const double lanes_f32 = static_cast<double>(t.vector_lanes);
  const double s8_block = static_cast<double>(t.PreferredBlockS8());
  const double peak_macs_per_ns =
      2.0 * t.freq_ghz * lanes_f32 * static_cast<double>(t.fma_per_cycle);
  double ms = macs / (peak_macs_per_ns * 1e6);

  // Vector-fill efficiency: the 8-bit multiply only pays off on wide oc blocks.
  const double fill = std::min(1.0, static_cast<double>(s.oc_bn) / s8_block);
  ms /= std::max(fill, 0.05);

  // Kernel tier. A VNNI target runs vpdpbusd — one instruction per 4-channel group,
  // roughly doubling the base rate. Without VNNI the portable tier accumulates each
  // quad straight into s32 (the s16-overflow guard) and falls well below it.
  ms *= t.vnni_dot ? 0.5 : 1.4;

  // Accumulator pressure: reg_n x (oc_bn / s32 lanes per vector) s32 registers.
  const double oc_vectors = std::ceil(static_cast<double>(s.oc_bn) / lanes_f32);
  const double regs_used = static_cast<double>(s.reg_n) * oc_vectors + 2.0;
  const double regs_avail = static_cast<double>(t.num_vector_registers);
  if (regs_used > regs_avail) {
    ms *= 1.0 + 0.25 * (regs_used - regs_avail) / regs_avail;
  }

  // Weight-vector reuse across reg_n, ici-pair loop overhead for tiny input blocks.
  ms *= 1.0 + 1.0 / static_cast<double>(std::max<std::int64_t>(s.reg_n, 1));
  ms *= 1.0 + 1.6 / static_cast<double>(std::max<std::int64_t>(s.ic_bn, 1));

  // Block rounding: every row runs in whole reg_n blocks (edges on the guarded
  // instantiation of the same template), so the last block's unstored positions
  // are computed too.
  ms *= BlockRoundingFactor(p.OutW(), s.reg_n);

  // Quantization epilogue: one scale-and-store pass over the output.
  const double out_elems = static_cast<double>(p.batch * p.out_c) *
                           static_cast<double>(p.OutH() * p.OutW());
  const double scalar_per_ms = t.freq_ghz * 1e6;
  ms += out_elems / (scalar_per_ms * 4.0);

  // Cache: s8 weights are 4x smaller than fp32, so the L2 overflow penalty arms later.
  const double weight_block_bytes =
      static_cast<double>(p.in_c * p.kernel_h * p.kernel_w * s.oc_bn) * 1.0;
  if (weight_block_bytes > static_cast<double>(t.l2_bytes)) {
    ms *= 1.15;
  }
  return ms;
}

}  // namespace

double AnalyticConvMs(const Conv2dParams& p, const ConvSchedule& s, const Target& t) {
  if (s.IsQuantized()) {
    NEOCPU_CHECK(s.IsDirect()) << "int8 schedules are direct-NCHWc only";
    return AnalyticDirectNchwcS8Ms(p.QuadPadded(), s, t);
  }
  switch (s.algo) {
    case ConvAlgo::kDirectNCHWc:
      return AnalyticDirectNchwcMs(p, s, t);
    case ConvAlgo::kIm2col:
      return AnalyticIm2colMs(p, t);
    case ConvAlgo::kReference:
      return AnalyticReferenceMs(p, t);
    default:
      break;
  }
  LOG(FATAL) << "no cost model for algorithm " << static_cast<int>(s.algo);
  return 0.0;
}

namespace {

double MeasureDirectNchwcMs(const Conv2dParams& p, const ConvSchedule& s,
                            ThreadEngine* engine, int runs) {
  Rng rng(42);
  Tensor input = Tensor::Random({p.batch, p.in_c / s.ic_bn, p.in_h, p.in_w, s.ic_bn}, rng,
                                -1.0f, 1.0f, Layout::NCHWc(s.ic_bn));
  Tensor weight = Tensor::Random(
      {p.out_c / s.oc_bn, p.in_c / s.ic_bn, p.kernel_h, p.kernel_w, s.ic_bn, s.oc_bn}, rng,
      -0.5f, 0.5f, Layout::OIHWio(s.ic_bn, s.oc_bn));
  Tensor out = Tensor::Empty({p.batch, p.out_c / s.oc_bn, p.OutH(), p.OutW(), s.oc_bn},
                             Layout::NCHWc(s.oc_bn));
  ConvEpilogue epilogue;  // bare conv: the schedule choice is epilogue-independent
  double best = 1e30;
  for (int i = 0; i < runs + 1; ++i) {
    Timer timer;
    ConvNCHWc(p, s, input, weight, nullptr, nullptr, epilogue, &out, engine);
    const double ms = timer.Millis();
    if (i > 0 || runs == 1) {  // first run warms caches unless only one is requested
      best = std::min(best, ms);
    }
  }
  return best;
}

// Times one of the NCHW-layout algorithms on deterministic synthetic tensors.
double MeasureNchwAlgoMs(const Conv2dParams& p, ConvAlgo algo, ThreadEngine* engine,
                         int runs) {
  Rng rng(42);
  Tensor input = Tensor::Random({p.batch, p.in_c, p.in_h, p.in_w}, rng, -1.0f, 1.0f,
                                Layout::NCHW());
  Tensor weight = Tensor::Random({p.out_c, p.in_c, p.kernel_h, p.kernel_w}, rng, -0.5f,
                                 0.5f, Layout::OIHW());
  Tensor out = Tensor::Empty({p.batch, p.out_c, p.OutH(), p.OutW()}, Layout::NCHW());
  ConvEpilogue epilogue;  // bare conv: the schedule choice is epilogue-independent
  double best = 1e30;
  for (int i = 0; i < runs + 1; ++i) {
    Timer timer;
    switch (algo) {
      case ConvAlgo::kIm2col:
        ConvIm2col(p, input, weight, nullptr, nullptr, epilogue, &out, engine);
        break;
      case ConvAlgo::kReference:
        ConvRefNCHW(p, input, weight, nullptr, nullptr, epilogue, &out, engine);
        break;
      default:
        LOG(FATAL) << ConvAlgoName(algo) << " is not an NCHW algorithm";
    }
    const double ms = timer.Millis();
    if (i > 0 || runs == 1) {
      best = std::min(best, ms);
    }
  }
  return best;
}

}  // namespace

namespace {

// Times the quantized direct template on deterministic synthetic tensors: u8 input
// with a zero point (the weight bytes stand in for the VNNI-packed constant — packing
// permutes bytes, not the workload).
double MeasureDirectNchwcS8Ms(const Conv2dParams& p, const ConvSchedule& s,
                              ThreadEngine* engine, int runs) {
  Tensor input = Tensor::Empty({p.batch, p.in_c / s.ic_bn, p.in_h, p.in_w, s.ic_bn},
                               Layout::NCHWc(s.ic_bn), DType::kU8);
  Tensor weight = Tensor::Empty(
      {p.out_c / s.oc_bn, p.in_c / s.ic_bn, p.kernel_h, p.kernel_w, s.ic_bn, s.oc_bn},
      Layout::OIHWio(s.ic_bn, s.oc_bn), DType::kS8);
  std::uint8_t* in = input.data_as<std::uint8_t>();
  for (std::int64_t i = 0; i < input.NumElements(); ++i) {
    in[i] = static_cast<std::uint8_t>(i % 256);
  }
  std::int8_t* w = weight.data_as<std::int8_t>();
  for (std::int64_t i = 0; i < weight.NumElements(); ++i) {
    w[i] = static_cast<std::int8_t>(i % 241 - 120);
  }
  Tensor mult = Tensor::Full({p.out_c}, 1e-3f);
  Tensor out = Tensor::Empty({p.batch, p.out_c / s.oc_bn, p.OutH(), p.OutW(), s.oc_bn},
                             Layout::NCHWc(s.oc_bn), DType::kU8);
  ConvEpilogue epilogue;  // bare conv: the schedule choice is epilogue-independent
  double best = 1e30;
  for (int i = 0; i < runs + 1; ++i) {
    Timer timer;
    ConvNCHWcS8(p, s, input, weight, nullptr, mult, epilogue, /*requant=*/true, &out,
                engine, /*out_zero=*/128, /*in_zero=*/128);
    const double ms = timer.Millis();
    if (i > 0 || runs == 1) {
      best = std::min(best, ms);
    }
  }
  return best;
}

}  // namespace

double MeasureConvMs(const Conv2dParams& p, const ConvSchedule& s, ThreadEngine* engine,
                     int runs) {
  if (s.IsQuantized()) {
    return MeasureDirectNchwcS8Ms(p.QuadPadded(), s, engine, runs);
  }
  if (s.algo != ConvAlgo::kDirectNCHWc) {
    return MeasureNchwAlgoMs(p, s.algo, engine, runs);
  }
  return MeasureDirectNchwcMs(p, s, engine, runs);
}

double AnalyticDenseMs(const DenseParams& p, const GemmSchedule& s, const Target& t) {
  const double macs = p.Macs();
  const double lanes = static_cast<double>(t.vector_lanes);
  const double peak_macs_per_ms =
      t.freq_ghz * lanes * static_cast<double>(t.fma_per_cycle) * 1e6;
  double ms = macs / peak_macs_per_ms;

  // Register-kernel vector fill: an nr that is not a lane multiple wastes lanes in
  // every FMA of the micro kernel.
  const double nr_vectors = std::ceil(static_cast<double>(s.nr) / lanes);
  ms *= (nr_vectors * lanes) / static_cast<double>(s.nr);

  // Dtype. On a VNNI target the u8*s8 kernel retires a 4-deep dot per lane per
  // vpdpbusd — well past the fp32 FMA rate; without VNNI the portable quad fallback
  // accumulates scalar s32 quads and loses to fp32 outright.
  if (s.dtype == DType::kU8) {
    ms *= t.vnni_dot ? 0.45 : 2.0;
  }

  // Off-grid register kernels fall back to the runtime-bounded edge micro kernel.
  const bool fast_mr = s.mr == 1 || s.mr == 2 || s.mr == 4 || s.mr == 6 || s.mr == 8;
  const bool fast_nr = s.nr == 8 || s.nr == 16 || s.nr == 32 || s.nr == 64;
  if (!fast_mr || !fast_nr) {
    ms *= 2.5;
  }

  // Accumulator pressure: mr x ceil(nr/lanes) accumulators + an A broadcast + a B load.
  const double regs_used = static_cast<double>(s.mr) * nr_vectors + 2.0;
  const double regs_avail = static_cast<double>(t.num_vector_registers);
  if (regs_used > regs_avail) {
    ms *= 1.0 + 0.35 * (regs_used - regs_avail) / regs_avail;
  }

  // Operand reuse in the inner loop: each k step issues mr broadcasts + nr_vectors
  // loads feeding mr*nr_vectors FMAs.
  ms *= 1.0 + (static_cast<double>(s.mr) + nr_vectors) /
                  (static_cast<double>(s.mr) * nr_vectors);

  // Tail fractions: rows/cols beyond the last full register tile run guarded stores
  // (and the pad rows of the packed panels are computed then discarded).
  const double m_pad = static_cast<double>((p.m + s.mr - 1) / s.mr * s.mr);
  const double n_pad = static_cast<double>((p.n + s.nr - 1) / s.nr * s.nr);
  ms *= (m_pad / static_cast<double>(p.m)) * (n_pad / static_cast<double>(p.n));

  // Cache residency: the nr x kc B panel should sit in L1 across the mc rows; the
  // mc x kc packed-A block should sit in L2 across the nc columns.
  const double elem_bytes = s.dtype == DType::kU8 ? 1.0 : 4.0;
  const double kc = static_cast<double>(std::min<std::int64_t>(s.kc, p.k));
  if (static_cast<double>(s.nr) * kc * elem_bytes > static_cast<double>(t.l1d_bytes)) {
    ms *= 1.2;
  }
  if (static_cast<double>(s.mc) * kc * elem_bytes > static_cast<double>(t.l2_bytes)) {
    ms *= 1.15;
  }

  // Per-call A packing: one streaming read + write of A per kc pass.
  const double a_bytes = static_cast<double>(p.m) * static_cast<double>(p.k) * elem_bytes;
  const double kc_passes = std::ceil(static_cast<double>(p.k) / kc);
  ms += kc_passes * 2.0 * a_bytes / CalibratedCopyBytesPerMs();
  return ms;
}

namespace {

double MeasureDenseF32Ms(const DenseParams& p, const GemmSchedule& s,
                         ThreadEngine* engine, int runs) {
  Rng rng(42);
  std::vector<float> a(static_cast<std::size_t>(p.m * p.k));
  std::vector<float> w(static_cast<std::size_t>(p.n * p.k));  // [n][k] dense weights
  for (float& v : a) v = rng.NextFloat(-1.0f, 1.0f);
  for (float& v : w) v = rng.NextFloat(-0.5f, 0.5f);
  std::vector<float> bp(PackedBF32Elems(p.n, p.k, s));
  PackBF32FromTransposed(w.data(), p.n, p.k, s, bp.data());
  std::vector<float> ws(PackedAF32Elems(p.m, p.k, s));
  std::vector<float> c(static_cast<std::size_t>(p.m * p.n));
  double best = 1e30;
  for (int i = 0; i < runs + 1; ++i) {
    Timer timer;
    GemmPackedF32(p.m, p.n, p.k, a.data(), bp.data(), /*bias=*/nullptr, /*relu=*/false,
                  c.data(), s, ws.data(), engine);
    const double ms = timer.Millis();
    if (i > 0 || runs == 1) {
      best = std::min(best, ms);
    }
  }
  return best;
}

double MeasureDenseU8Ms(const DenseParams& p, const GemmSchedule& s,
                        ThreadEngine* engine, int runs) {
  std::vector<std::uint8_t> a(static_cast<std::size_t>(p.m * p.k));
  std::vector<std::int8_t> w(static_cast<std::size_t>(p.n * p.k));
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<std::uint8_t>(i % 256);
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = static_cast<std::int8_t>(i % 241 - 120);
  }
  std::vector<std::int8_t> bp(PackedBS8Bytes(p.n, p.k, s));
  PackBS8FromTransposed(w.data(), p.n, p.k, s, bp.data());
  std::vector<std::uint8_t> ws(PackedAU8Bytes(p.m, p.k, s));
  std::vector<float> mult(static_cast<std::size_t>(p.n), 1e-3f);
  std::vector<std::uint8_t> c(static_cast<std::size_t>(p.m * p.n));
  double best = 1e30;
  for (int i = 0; i < runs + 1; ++i) {
    Timer timer;
    GemmPackedU8S8(p.m, p.n, p.k, a.data(), bp.data(), /*bias=*/nullptr, mult.data(),
                   /*relu=*/false, /*requant=*/true, /*out_zero=*/0,
                   c.data(), s, ws.data(), engine);
    const double ms = timer.Millis();
    if (i > 0 || runs == 1) {
      best = std::min(best, ms);
    }
  }
  return best;
}

}  // namespace

double MeasureDenseMs(const DenseParams& p, const GemmSchedule& s, ThreadEngine* engine,
                      int runs) {
  return s.dtype == DType::kU8 ? MeasureDenseU8Ms(p, s, engine, runs)
                               : MeasureDenseF32Ms(p, s, engine, runs);
}

double CalibratedCopyBytesPerMs() {
  static std::once_flag flag;
  static double bytes_per_ms = 0.0;
  std::call_once(flag, [] {
    const std::size_t bytes = 32ull << 20;
    AlignedPtr<char> src = MakeAligned<char>(bytes);
    AlignedPtr<char> dst = MakeAligned<char>(bytes);
    std::memset(src.get(), 1, bytes);
    std::memset(dst.get(), 2, bytes);  // fault in
    double best_ms = 1e30;
    for (int i = 0; i < 3; ++i) {
      Timer t;
      std::memcpy(dst.get(), src.get(), bytes);
      best_ms = std::min(best_ms, t.Millis());
    }
    bytes_per_ms = static_cast<double>(2 * bytes) / best_ms;  // read + write traffic
  });
  return bytes_per_ms;
}

double TransformMs(std::int64_t tensor_bytes) {
  // A relayout reads and writes the tensor once, in a cache-unfriendly gather order:
  // charge 2x the streaming-copy cost.
  return 2.0 * static_cast<double>(2 * tensor_bytes) / CalibratedCopyBytesPerMs();
}

double QdqMs(std::int64_t f32_bytes) {
  // One sequential f32-side stream + a quarter-size u8-side stream; the convert itself
  // is cheap but not free (clamp + round), folded into a 1.5x factor.
  const double traffic = 1.25 * static_cast<double>(f32_bytes);
  return 1.5 * traffic / CalibratedCopyBytesPerMs();
}

}  // namespace neocpu
