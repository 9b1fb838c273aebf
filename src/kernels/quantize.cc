#include "src/kernels/quantize.h"

#include <algorithm>
#include <cmath>

#include "src/base/logging.h"
#include "src/tensor/tensor_check.h"

namespace neocpu {

void Quantize(const Tensor& input, float scale, std::int32_t zero_point, Tensor* out,
              ThreadEngine* engine) {
  NEOCPU_CHECK(input.dtype() == DType::kF32) << "quantize reads f32, got "
                                             << input.DebugString();
  NEOCPU_CHECK_GT(scale, 0.0f);
  CheckKernelOutput(out, input.dims(), input.layout(), "quantize");
  const float inv = 1.0f / scale;
  const float* src = input.data_as<float>();
  std::uint8_t* dst = out->data_as<std::uint8_t>();
  ParallelFor(EngineOrSerial(engine), input.NumElements(),
              [&](std::int64_t begin, std::int64_t end) {
                for (std::int64_t i = begin; i < end; ++i) {
                  const std::int32_t q =
                      static_cast<std::int32_t>(std::lrintf(src[i] * inv)) + zero_point;
                  dst[i] = static_cast<std::uint8_t>(std::clamp(q, 0, 255));
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

void QuantizeConvWeightsPerOC(const Tensor& w_oihw, Tensor* w_s8,
                              std::vector<float>* scales) {
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
    for (std::int64_t i = 0; i < per_oc; ++i) {
      const std::int32_t q = static_cast<std::int32_t>(std::lrintf(row[i] * inv));
      qrow[i] = static_cast<std::int8_t>(std::clamp(q, -kS8QuantMax, kS8QuantMax));
    }
  }
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

void FoldZeroPointIntoBias(const Tensor& w_blocked_s8, std::int32_t in_zero,
                           Tensor* bias_s32) {
  NEOCPU_CHECK(bias_s32 != nullptr && bias_s32->dtype() == DType::kS32);
  NEOCPU_CHECK(w_blocked_s8.dtype() == DType::kS8);
  NEOCPU_CHECK_EQ(w_blocked_s8.ndim(), 6) << w_blocked_s8.DebugString();
  if (in_zero == 0) {
    return;
  }
  // Dims {OCB_cnt, ICB_cnt, KH, KW, ic_bn, oc_bn}, standard (un-packed) tile order:
  // the column j of each [ic_bn][oc_bn] tile is output channel oco*oc_bn + j. Call
  // this BEFORE PackWeightsVnni — the reorder moves elements across columns.
  const std::int64_t ocb_cnt = w_blocked_s8.dim(0);
  const std::int64_t ocb = w_blocked_s8.dim(5);
  const std::int64_t red = w_blocked_s8.dim(1) * w_blocked_s8.dim(2) *
                           w_blocked_s8.dim(3) * w_blocked_s8.dim(4);
  NEOCPU_CHECK_EQ(bias_s32->NumElements(), ocb_cnt * ocb);
  const std::int8_t* w = w_blocked_s8.data_as<std::int8_t>();
  std::int32_t* bias = bias_s32->data_as<std::int32_t>();
  for (std::int64_t oco = 0; oco < ocb_cnt; ++oco) {
    std::vector<std::int64_t> sums(static_cast<std::size_t>(ocb), 0);
    const std::int8_t* wo = w + oco * red * ocb;
    for (std::int64_t i = 0; i < red; ++i) {
      for (std::int64_t j = 0; j < ocb; ++j) {
        sums[static_cast<std::size_t>(j)] += wo[i * ocb + j];
      }
    }
    for (std::int64_t j = 0; j < ocb; ++j) {
      bias[oco * ocb + j] -= in_zero * static_cast<std::int32_t>(
                                           sums[static_cast<std::size_t>(j)]);
    }
  }
}

Tensor QuantizeBiasS32(const Tensor& bias_f32, float in_scale,
                       const std::vector<float>& w_scales) {
  NEOCPU_CHECK(bias_f32.dtype() == DType::kF32);
  NEOCPU_CHECK_EQ(bias_f32.NumElements(), static_cast<std::int64_t>(w_scales.size()));
  Tensor out = Tensor::Empty(bias_f32.dims(), bias_f32.layout(), DType::kS32);
  const float* src = bias_f32.data_as<float>();
  std::int32_t* dst = out.data_as<std::int32_t>();
  for (std::size_t o = 0; o < w_scales.size(); ++o) {
    const double acc_scale = static_cast<double>(in_scale) * w_scales[o];
    dst[o] = static_cast<std::int32_t>(std::llrint(src[o] / acc_scale));
  }
  return out;
}

}  // namespace neocpu
