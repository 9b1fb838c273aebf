#include "src/kernels/quantize.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <vector>

#include "src/base/logging.h"
#include "src/tensor/tensor_check.h"

namespace neocpu {

namespace {

// Per-output-channel symmetric s8 quantization of an OIHW or {Out, In} f32 weight, in
// the same order, with scales[o] = max|w[o,...]| / 127.
void QuantizeWeightsPerOC(const Tensor& w_oihw, Tensor* w_s8, std::vector<float>* scales) {
  NEOCPU_CHECK(w_s8 != nullptr && scales != nullptr);
  NEOCPU_CHECK(w_oihw.dtype() == DType::kF32);
  NEOCPU_CHECK(w_oihw.ndim() == 4 || w_oihw.ndim() == 2) << w_oihw.DebugString();
  const std::int64_t oc = w_oihw.dim(0);
  const std::int64_t per_oc = w_oihw.NumElements() / oc;
  *w_s8 = Tensor::Empty(w_oihw.dims(), w_oihw.layout(), DType::kS8);
  scales->assign(static_cast<std::size_t>(oc), 0.0f);
  const float* src = w_oihw.data_as<float>();
  std::int8_t* dst = w_s8->data_as<std::int8_t>();
  for (std::int64_t o = 0; o < oc; ++o) {
    const float* row = src + o * per_oc;
    float amax = 0.0f;
    for (std::int64_t i = 0; i < per_oc; ++i) {
      amax = std::max(amax, std::fabs(row[i]));
    }
    const float scale = std::max(amax, 1e-8f) / static_cast<float>(kS8QuantMax);
    (*scales)[static_cast<std::size_t>(o)] = scale;
    const float inv = 1.0f / scale;
    std::int8_t* qrow = dst + o * per_oc;
    constexpr float kMax = static_cast<float>(kS8QuantMax);
    for (std::int64_t i = 0; i < per_oc; ++i) {
      qrow[i] = static_cast<std::int8_t>(RoundClamp(row[i] * inv, 0, -kMax, kMax));
    }
  }
}

// f32 NCHW -> u8 NCHW[x]c, the channels padded to whole blocks with the zero point;
// x % 4 == 0. The grid is ReblockT's (n, block, row) with a unit run: a task's
// consecutive rows of one block run as one span, in tiles of kPositions positions. A
// tile goes one quad of lanes at a time: each lane quantizes the tile's positions,
// contiguous in the source, into its byte of a local run of 4-byte groups (one
// vectorizable loop per lane), and the run goes to the destination one group per
// position.
void QuantizeBlocked(const Tensor& input, float inv, std::int32_t zero_point, Tensor* out,
                     ThreadEngine* engine) {
  static_assert(std::endian::native == std::endian::little,
                "lane l of a group is its byte l");
  constexpr std::int64_t kPositions = 256;
  const BlockedDims s = BlockedDimsOf(input);
  const std::int64_t c = s.channels(), h = s.h, w = s.w, plane = s.h * s.w;
  const std::int64_t x = out->layout().c_block;
  NEOCPU_CHECK_EQ(x % 4, 0) << "quantize writes u8 blocks of whole quads, got " << x;
  const std::int64_t cb = (c + x - 1) / x;
  CheckKernelOutput(out, {s.n, cb, h, w, x}, Layout::NCHWc(x), "quantize");
  const float* src_base = input.data_as<float>();
  std::uint8_t* dst_base = out->data_as<std::uint8_t>();
  ParallelFor(EngineOrSerial(engine), s.n * cb * h, [&](std::int64_t begin,
                                                        std::int64_t end) {
    // Locals: a u8 store may alias the captures, which would reload them per element.
    const std::int64_t stride = x;
    const float k = inv;
    const std::int32_t zp = zero_point;
    std::uint32_t groups[kPositions];
    for (std::int64_t t = begin; t < end;) {
      const std::int64_t nb = t / h;  // n * cb + block
      const std::int64_t stop = std::min(end, (nb + 1) * h);
      const std::int64_t ni = nb / cb, c0 = (nb % cb) * stride;
      std::uint8_t* dp = dst_base + nb * plane * stride;
      const std::int64_t p_end = (stop - nb * h) * w;
      for (std::int64_t p = (t - nb * h) * w; p < p_end; p += kPositions) {
        const std::int64_t np = std::min(kPositions, p_end - p);
        for (std::int64_t quad = 0; quad < stride; quad += 4) {
          std::fill(groups, groups + np, 0u);
          for (std::int64_t l = 0; l < 4; ++l) {
            const std::int64_t ci = c0 + quad + l;
            const int shift = static_cast<int>(8 * l);
            if (ci >= c) {
              const std::uint32_t pad = static_cast<std::uint32_t>(zp) << shift;
              for (std::int64_t q = 0; q < np; ++q) {
                groups[q] |= pad;
              }
              continue;
            }
            const float* sr = src_base + (ni * c + ci) * plane + p;
#pragma omp simd
            for (std::int64_t q = 0; q < np; ++q) {
              groups[q] |= static_cast<std::uint32_t>(RoundClamp(sr[q] * k, zp, 0.0f, 255.0f))
                           << shift;
            }
          }
          std::uint8_t* dr = dp + p * stride + quad;
          for (std::int64_t q = 0; q < np; ++q) {
            std::memcpy(dr + q * stride, &groups[q], 4);
          }
        }
      }
      t = stop;
    }
  });
}

}  // namespace

void Quantize(const Tensor& input, float scale, std::int32_t zero_point, Tensor* out,
              ThreadEngine* engine) {
  NEOCPU_CHECK(input.dtype() == DType::kF32) << "quantize reads f32, got "
                                             << input.DebugString();
  NEOCPU_CHECK_GT(scale, 0.0f);
  NEOCPU_CHECK(out != nullptr && out->defined()) << "quantize: undefined output tensor";
  const float inv = 1.0f / scale;
  if (input.layout().kind == LayoutKind::kNCHW && out->layout().IsBlockedFeatureMap()) {
    QuantizeBlocked(input, inv, zero_point, out, engine);
    return;
  }
  CheckKernelOutput(out, input.dims(), input.layout(), "quantize");
  const float* src = input.data_as<float>();
  std::uint8_t* dst = out->data_as<std::uint8_t>();
  ParallelFor(EngineOrSerial(engine), input.NumElements(),
              [&](std::int64_t begin, std::int64_t end) {
                // Locals: a u8 store may alias the captures, which would reload them
                // per element and keep the loop scalar.
                const float* in = src;
                std::uint8_t* q = dst;
                const float k = inv;
                const std::int32_t zp = zero_point;
#pragma omp simd
                for (std::int64_t i = begin; i < end; ++i) {
                  q[i] = static_cast<std::uint8_t>(RoundClamp(in[i] * k, zp, 0.0f, 255.0f));
                }
              });
}

void Dequantize(const Tensor& input, float scale, std::int32_t zero_point, Tensor* out,
                ThreadEngine* engine) {
  NEOCPU_CHECK_GT(scale, 0.0f);
  CheckKernelOutput(out, input.dims(), input.layout(), "dequantize");
  const std::uint8_t* src = input.data_as<std::uint8_t>();
  float* dst = out->data_as<float>();
  ParallelFor(EngineOrSerial(engine), input.NumElements(),
              [&](std::int64_t begin, std::int64_t end) {
                for (std::int64_t i = begin; i < end; ++i) {
                  dst[i] = scale * static_cast<float>(static_cast<std::int32_t>(src[i]) -
                                                      zero_point);
                }
              });
}

void AffineScaleZeroPoint(float lo, float hi, float* scale, std::int32_t* zero_point) {
  NEOCPU_CHECK(scale != nullptr && zero_point != nullptr);
  lo = std::min(lo, 0.0f);
  hi = std::max(hi, 0.0f);
  *scale = std::max(hi - lo, 1e-8f) / 255.0f;
  const std::int32_t zp = static_cast<std::int32_t>(std::lrintf(-lo / *scale));
  *zero_point = std::clamp(zp, 0, 255);
}

Tensor PackWeightsVnni(const Tensor& w_blocked_s8) {
  NEOCPU_CHECK(w_blocked_s8.dtype() == DType::kS8);
  NEOCPU_CHECK_EQ(w_blocked_s8.ndim(), 6) << w_blocked_s8.DebugString();
  const std::int64_t icb = w_blocked_s8.dim(4);
  const std::int64_t ocb = w_blocked_s8.dim(5);
  NEOCPU_CHECK_EQ(icb % 4, 0) << "VNNI packing needs ic_bn % 4 == 0";
  Tensor out = Tensor::Empty(w_blocked_s8.dims(), w_blocked_s8.layout(), DType::kS8);
  const std::int8_t* src = w_blocked_s8.data_as<std::int8_t>();
  std::int8_t* dst = out.data_as<std::int8_t>();
  const std::int64_t tiles = w_blocked_s8.NumElements() / (icb * ocb);
  for (std::int64_t t = 0; t < tiles; ++t) {
    const std::int8_t* st = src + t * icb * ocb;
    std::int8_t* dt = dst + t * icb * ocb;
    for (std::int64_t ici = 0; ici < icb; ++ici) {
      for (std::int64_t j = 0; j < ocb; ++j) {
        dt[(ici / 4) * ocb * 4 + j * 4 + (ici % 4)] = st[ici * ocb + j];
      }
    }
  }
  return out;
}

void FoldZeroPointIntoBias(const Tensor& w_s8, std::int32_t in_zero, Tensor* bias_s32) {
  NEOCPU_CHECK(bias_s32 != nullptr && bias_s32->dtype() == DType::kS32);
  NEOCPU_CHECK(w_s8.dtype() == DType::kS8);
  NEOCPU_CHECK(w_s8.ndim() == 4 || w_s8.ndim() == 2) << w_s8.DebugString();
  if (in_zero == 0) {
    return;
  }
  const std::int64_t oc = w_s8.dim(0);
  const std::int64_t per_oc = w_s8.NumElements() / oc;
  NEOCPU_CHECK_EQ(bias_s32->NumElements(), oc);
  const std::int8_t* w = w_s8.data_as<std::int8_t>();
  std::int32_t* bias = bias_s32->data_as<std::int32_t>();
  for (std::int64_t o = 0; o < oc; ++o) {
    std::int64_t sum = 0;
    for (std::int64_t i = 0; i < per_oc; ++i) {
      sum += w[o * per_oc + i];
    }
    bias[o] -= in_zero * static_cast<std::int32_t>(sum);
  }
}

QuantizedOperands QuantizeOperands(const Tensor& w_f32, const Tensor* bias_f32,
                                   float in_scale, std::int32_t in_zero, float out_scale) {
  QuantizedOperands q;
  std::vector<float> w_scales;
  QuantizeWeightsPerOC(w_f32, &q.weight, &w_scales);
  const std::int64_t oc = w_f32.dim(0);
  if (bias_f32 != nullptr) {
    NEOCPU_CHECK(bias_f32->dtype() == DType::kF32);
    NEOCPU_CHECK_EQ(bias_f32->NumElements(), oc);
    q.bias = Tensor::Empty(bias_f32->dims(), bias_f32->layout(), DType::kS32);
    const float* src = bias_f32->data();
    std::int32_t* dst = q.bias.data_as<std::int32_t>();
    for (std::int64_t o = 0; o < oc; ++o) {
      const double acc_scale =
          static_cast<double>(in_scale) * w_scales[static_cast<std::size_t>(o)];
      dst[o] = static_cast<std::int32_t>(std::llrint(src[o] / acc_scale));
    }
  } else if (in_zero != 0) {
    // The zero-point correction needs a bias to live in: synthesize zeros.
    q.bias = Tensor::Zeros({oc}, Layout::Flat(), DType::kS32);
  }
  if (in_zero != 0) {
    FoldZeroPointIntoBias(q.weight, in_zero, &q.bias);
  }
  q.mult = Tensor::Empty({oc}, Layout::Flat());
  for (std::int64_t o = 0; o < oc; ++o) {
    q.mult.data()[o] = in_scale * w_scales[static_cast<std::size_t>(o)] / out_scale;
  }
  return q;
}

}  // namespace neocpu
