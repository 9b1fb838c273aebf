#include "src/kernels/pooling.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>

#include "src/base/logging.h"
#include "src/tensor/tensor_check.h"

namespace neocpu {
namespace {

// Channel-block ceiling of the schedule space (== kMaxChannelBlock); bounds the
// integer pool's stack accumulator.
constexpr std::int64_t kMaxPoolBlock = 64;

}  // namespace

std::int64_t Pool2dParams::OutDim(std::int64_t in, std::int64_t k, std::int64_t s,
                                  std::int64_t p) const {
  const std::int64_t numer = in + 2 * p - k;
  if (ceil_mode) {
    return (numer + s - 1) / s + 1;
  }
  return numer / s + 1;
}

namespace {

// The one pooling body, for both dtypes and every layout: the input is read as
// NCHW[x]c (x == 1 for NCHW) and the grid is (n, channel block, output row). Each
// output position reduces its window over the block's x lanes. f32 accumulates in the
// output and multiplies by the reciprocal of the count, so every layout rounds alike;
// u8 takes its max as bytes, and accumulates its average in s32 from the padded cells'
// zero point `zp` and rounds once.
template <typename T>
void PoolT(const Pool2dParams& p, const Tensor& input, std::int32_t zp, Tensor* out,
           ThreadEngine* engine, const char* op) {
  constexpr bool kInt = std::is_same_v<T, std::uint8_t>;
  using Acc = std::conditional_t<kInt, std::int32_t, float>;
  const BlockedDims d = BlockedDimsOf(input);
  const std::int64_t ih = d.h, iw = d.w, x = d.x;
  const std::int64_t oh = p.OutH(ih), ow = p.OutW(iw);
  CheckKernelOutput(out, d.Dims(oh, ow), d.layout, op);
  if constexpr (kInt) {
    NEOCPU_CHECK_LE(x, kMaxPoolBlock);
  }
  const T* in_base = input.data_as<T>();
  T* out_base = out->data_as<T>();
  ParallelFor(EngineOrSerial(engine), d.n * d.cb * oh, [&](std::int64_t begin,
                                                           std::int64_t end) {
    Acc stack_acc[kInt ? kMaxPoolBlock : 1];
    for (std::int64_t row = begin; row < end; ++row) {
      const std::int64_t y = row % oh;
      const T* in_ch = in_base + (row / oh) * ih * iw * x;
      T* out_row = out_base + row * ow * x;
      for (std::int64_t xx = 0; xx < ow; ++xx) {
        const std::int64_t h0 = y * p.stride_h - p.pad_h;
        const std::int64_t w0 = xx * p.stride_w - p.pad_w;
        const std::int64_t h1 = std::min(h0 + p.kernel_h, ih);
        const std::int64_t w1 = std::min(w0 + p.kernel_w, iw);
        const std::int64_t hc = std::max<std::int64_t>(h0, 0);
        const std::int64_t wc = std::max<std::int64_t>(w0, 0);
        T* dst = out_row + xx * x;
        Acc* acc = nullptr;
        if constexpr (kInt) {
          acc = stack_acc;
        } else {
          acc = dst;
        }
        if (p.type == PoolType::kMax) {
          if constexpr (kInt) {
            // u8 codes take their max as bytes, which the portable ISA vectorizes (it
            // has no s32 max), in a local run: a u8 store may alias the captures.
            const std::int64_t lanes = x;
            std::uint8_t codes[kMaxPoolBlock] = {};
            for (std::int64_t hh = hc; hh < h1; ++hh) {
              for (std::int64_t ww = wc; ww < w1; ++ww) {
                const T* src = in_ch + (hh * iw + ww) * lanes;
                for (std::int64_t ci = 0; ci < lanes; ++ci) {
                  const std::uint8_t v = src[ci];
                  codes[ci] = v > codes[ci] ? v : codes[ci];
                }
              }
            }
            std::copy(codes, codes + lanes, dst);
            continue;
          }
          const Acc lowest = kInt ? Acc{0} : -std::numeric_limits<Acc>::infinity();
          for (std::int64_t ci = 0; ci < x; ++ci) {
            acc[ci] = lowest;
          }
          for (std::int64_t hh = hc; hh < h1; ++hh) {
            for (std::int64_t ww = wc; ww < w1; ++ww) {
              const T* src = in_ch + (hh * iw + ww) * x;
              for (std::int64_t ci = 0; ci < x; ++ci) {
                acc[ci] = std::max(acc[ci], static_cast<Acc>(src[ci]));
              }
            }
          }
          continue;
        }
        const std::int64_t valid = (h1 - hc) * (w1 - wc);
        const std::int64_t count =
            p.count_include_pad ? p.kernel_h * p.kernel_w : std::max<std::int64_t>(valid, 1);
        const Acc pad_sum = static_cast<Acc>((count - valid) * zp);
        for (std::int64_t ci = 0; ci < x; ++ci) {
          acc[ci] = pad_sum;
        }
        for (std::int64_t hh = hc; hh < h1; ++hh) {
          for (std::int64_t ww = wc; ww < w1; ++ww) {
            const T* src = in_ch + (hh * iw + ww) * x;
            for (std::int64_t ci = 0; ci < x; ++ci) {
              acc[ci] += static_cast<Acc>(src[ci]);
            }
          }
        }
        if constexpr (kInt) {
          const double inv = 1.0 / static_cast<double>(count);
          for (std::int64_t ci = 0; ci < x; ++ci) {
            const std::int32_t q = static_cast<std::int32_t>(std::llrint(acc[ci] * inv));
            dst[ci] = static_cast<T>(std::clamp(q, 0, 255));
          }
        } else {
          const float inv = 1.0f / static_cast<float>(count);
          for (std::int64_t ci = 0; ci < x; ++ci) {
            dst[ci] *= inv;
          }
        }
      }
    }
  });
}

}  // namespace

void Pool(const Pool2dParams& p, const Tensor& input, Tensor* out, ThreadEngine* engine) {
  PoolT<float>(p, input, /*zp=*/0, out, engine, "pool");
}

void PoolNCHWcInt(const Pool2dParams& p, const Tensor& input, std::int32_t zero_point,
                  Tensor* out, ThreadEngine* engine) {
  NEOCPU_CHECK(out->dtype() == input.dtype())
      << "integer pooling keeps the input dtype: " << out->DebugString();
  PoolT<std::uint8_t>(p, input, zero_point, out, engine, "pool_int");
}

void GlobalAvgPool(const Tensor& input, Tensor* out, ThreadEngine* engine) {
  const BlockedDims d = BlockedDimsOf(input);
  const std::int64_t plane = d.h * d.w, x = d.x;
  CheckKernelOutput(out, d.Dims(1, 1), d.layout, "global_avg_pool");
  const float* in_base = input.data_as<float>();
  float* out_base = out->data_as<float>();
  const float inv = 1.0f / static_cast<float>(plane);
  ParallelFor(EngineOrSerial(engine), d.n * d.cb, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t idx = begin; idx < end; ++idx) {
      const float* src = in_base + idx * plane * x;
      float* dst = out_base + idx * x;
      for (std::int64_t ci = 0; ci < x; ++ci) {
        dst[ci] = 0.0f;
      }
      for (std::int64_t i = 0; i < plane; ++i) {
        for (std::int64_t ci = 0; ci < x; ++ci) {
          dst[ci] += src[i * x + ci];
        }
      }
      for (std::int64_t ci = 0; ci < x; ++ci) {
        dst[ci] *= inv;
      }
    }
  });
}

}  // namespace neocpu
