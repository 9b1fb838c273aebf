#include "src/kernels/pooling.h"

#include <algorithm>
#include <cmath>
#include <limits>

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

void PoolNCHW(const Pool2dParams& p, const Tensor& input, Tensor* out,
              ThreadEngine* engine) {
  NEOCPU_CHECK_EQ(input.ndim(), 4);
  const std::int64_t n = input.dim(0), c = input.dim(1), ih = input.dim(2), iw = input.dim(3);
  const std::int64_t oh = p.OutH(ih), ow = p.OutW(iw);
  CheckKernelOutput(out, {n, c, oh, ow}, Layout::NCHW(), "pool");
  const float* in_base = input.data();
  float* out_base = out->data();
  ParallelFor(EngineOrSerial(engine), n * c, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t idx = begin; idx < end; ++idx) {
      const float* in_ch = in_base + idx * ih * iw;
      float* out_ch = out_base + idx * oh * ow;
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t x = 0; x < ow; ++x) {
          const std::int64_t h0 = y * p.stride_h - p.pad_h;
          const std::int64_t w0 = x * p.stride_w - p.pad_w;
          const std::int64_t h1 = std::min(h0 + p.kernel_h, ih);
          const std::int64_t w1 = std::min(w0 + p.kernel_w, iw);
          const std::int64_t hc = std::max<std::int64_t>(h0, 0);
          const std::int64_t wc = std::max<std::int64_t>(w0, 0);
          if (p.type == PoolType::kMax) {
            float best = -std::numeric_limits<float>::infinity();
            for (std::int64_t hh = hc; hh < h1; ++hh) {
              for (std::int64_t ww = wc; ww < w1; ++ww) {
                best = std::max(best, in_ch[hh * iw + ww]);
              }
            }
            out_ch[y * ow + x] = best;
          } else {
            float sum = 0.0f;
            for (std::int64_t hh = hc; hh < h1; ++hh) {
              for (std::int64_t ww = wc; ww < w1; ++ww) {
                sum += in_ch[hh * iw + ww];
              }
            }
            const std::int64_t count = p.count_include_pad
                                           ? p.kernel_h * p.kernel_w
                                           : std::max<std::int64_t>((h1 - hc) * (w1 - wc), 1);
            // Multiply by the reciprocal (not divide) so both layout variants of the
            // kernel produce bit-identical results.
            out_ch[y * ow + x] = sum * (1.0f / static_cast<float>(count));
          }
        }
      }
    }
  });
}

void PoolNCHWc(const Pool2dParams& p, const Tensor& input, Tensor* out,
               ThreadEngine* engine) {
  NEOCPU_CHECK_EQ(input.ndim(), 5);
  const std::int64_t n = input.dim(0), cb = input.dim(1), ih = input.dim(2), iw = input.dim(3),
                     x = input.dim(4);
  const std::int64_t oh = p.OutH(ih), ow = p.OutW(iw);
  CheckKernelOutput(out, {n, cb, oh, ow, x}, input.layout(), "pool");
  const float* in_base = input.data();
  float* out_base = out->data();
  ParallelFor(EngineOrSerial(engine), n * cb, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t idx = begin; idx < end; ++idx) {
      const float* in_ch = in_base + idx * ih * iw * x;
      float* out_ch = out_base + idx * oh * ow * x;
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t xx = 0; xx < ow; ++xx) {
          const std::int64_t h0 = y * p.stride_h - p.pad_h;
          const std::int64_t w0 = xx * p.stride_w - p.pad_w;
          const std::int64_t h1 = std::min(h0 + p.kernel_h, ih);
          const std::int64_t w1 = std::min(w0 + p.kernel_w, iw);
          const std::int64_t hc = std::max<std::int64_t>(h0, 0);
          const std::int64_t wc = std::max<std::int64_t>(w0, 0);
          float* dst = out_ch + (y * ow + xx) * x;
          if (p.type == PoolType::kMax) {
            for (std::int64_t ci = 0; ci < x; ++ci) {
              dst[ci] = -std::numeric_limits<float>::infinity();
            }
            for (std::int64_t hh = hc; hh < h1; ++hh) {
              for (std::int64_t ww = wc; ww < w1; ++ww) {
                const float* src = in_ch + (hh * iw + ww) * x;
                for (std::int64_t ci = 0; ci < x; ++ci) {
                  dst[ci] = std::max(dst[ci], src[ci]);
                }
              }
            }
          } else {
            for (std::int64_t ci = 0; ci < x; ++ci) {
              dst[ci] = 0.0f;
            }
            for (std::int64_t hh = hc; hh < h1; ++hh) {
              for (std::int64_t ww = wc; ww < w1; ++ww) {
                const float* src = in_ch + (hh * iw + ww) * x;
                for (std::int64_t ci = 0; ci < x; ++ci) {
                  dst[ci] += src[ci];
                }
              }
            }
            const std::int64_t count = p.count_include_pad
                                           ? p.kernel_h * p.kernel_w
                                           : std::max<std::int64_t>((h1 - hc) * (w1 - wc), 1);
            const float inv = 1.0f / static_cast<float>(count);
            for (std::int64_t ci = 0; ci < x; ++ci) {
              dst[ci] *= inv;
            }
          }
        }
      }
    }
  });
}

namespace {

// `chans` is N * C/x (or N * C with x == 1 for the plain NCHW layout — the channel
// walk is the same with a one-wide block).
void PoolNCHWcIntImpl(const Pool2dParams& p, const Tensor& input, std::int64_t chans,
                      std::int64_t ih, std::int64_t iw, std::int64_t x, std::int32_t zp,
                      Tensor* out, ThreadEngine* engine) {
  using Q = std::uint8_t;
  const std::int64_t oh = p.OutH(ih), ow = p.OutW(iw);
  const Q* in_base = input.data_as<Q>();
  Q* out_base = out->data_as<Q>();
  constexpr std::int32_t kLo = 0;
  constexpr std::int32_t kHi = 255;
  ParallelFor(EngineOrSerial(engine), chans, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t idx = begin; idx < end; ++idx) {
      const Q* in_ch = in_base + idx * ih * iw * x;
      Q* out_ch = out_base + idx * oh * ow * x;
      std::int32_t acc[kMaxPoolBlock];
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t xx = 0; xx < ow; ++xx) {
          const std::int64_t h0 = y * p.stride_h - p.pad_h;
          const std::int64_t w0 = xx * p.stride_w - p.pad_w;
          const std::int64_t h1 = std::min(h0 + p.kernel_h, ih);
          const std::int64_t w1 = std::min(w0 + p.kernel_w, iw);
          const std::int64_t hc = std::max<std::int64_t>(h0, 0);
          const std::int64_t wc = std::max<std::int64_t>(w0, 0);
          Q* dst = out_ch + (y * ow + xx) * x;
          if (p.type == PoolType::kMax) {
            for (std::int64_t ci = 0; ci < x; ++ci) {
              acc[ci] = kLo;
            }
            for (std::int64_t hh = hc; hh < h1; ++hh) {
              for (std::int64_t ww = wc; ww < w1; ++ww) {
                const Q* src = in_ch + (hh * iw + ww) * x;
                for (std::int64_t ci = 0; ci < x; ++ci) {
                  acc[ci] = std::max(acc[ci], static_cast<std::int32_t>(src[ci]));
                }
              }
            }
            for (std::int64_t ci = 0; ci < x; ++ci) {
              dst[ci] = static_cast<Q>(acc[ci]);
            }
          } else {
            const std::int64_t valid = (h1 - hc) * (w1 - wc);
            const std::int64_t count =
                p.count_include_pad ? p.kernel_h * p.kernel_w
                                    : std::max<std::int64_t>(valid, 1);
            // Padded cells hold a true f32 zero, i.e. the quantized zero point.
            const std::int32_t pad_sum =
                static_cast<std::int32_t>(count - valid) * zp;
            for (std::int64_t ci = 0; ci < x; ++ci) {
              acc[ci] = pad_sum;
            }
            for (std::int64_t hh = hc; hh < h1; ++hh) {
              for (std::int64_t ww = wc; ww < w1; ++ww) {
                const Q* src = in_ch + (hh * iw + ww) * x;
                for (std::int64_t ci = 0; ci < x; ++ci) {
                  acc[ci] += static_cast<std::int32_t>(src[ci]);
                }
              }
            }
            const double inv = 1.0 / static_cast<double>(count);
            for (std::int64_t ci = 0; ci < x; ++ci) {
              const std::int32_t q =
                  static_cast<std::int32_t>(std::llrint(acc[ci] * inv));
              dst[ci] = static_cast<Q>(std::clamp(q, kLo, kHi));
            }
          }
        }
      }
    }
  });
}

}  // namespace

void PoolNCHWcInt(const Pool2dParams& p, const Tensor& input, std::int32_t zero_point,
                  Tensor* out, ThreadEngine* engine) {
  const bool blocked = input.ndim() == 5;
  NEOCPU_CHECK(blocked || input.ndim() == 4) << input.DebugString();
  const std::int64_t x = blocked ? input.dim(4) : 1;
  NEOCPU_CHECK_LE(x, kMaxPoolBlock);
  const std::int64_t n = input.dim(0), cb = input.dim(1);
  const std::int64_t ih = input.dim(2), iw = input.dim(3);
  const std::int64_t oh = p.OutH(ih), ow = p.OutW(iw);
  if (blocked) {
    CheckKernelOutput(out, {n, cb, oh, ow, x}, input.layout(), "pool_int");
  } else {
    CheckKernelOutput(out, {n, cb, oh, ow}, input.layout(), "pool_int");
  }
  NEOCPU_CHECK(out->dtype() == input.dtype())
      << "integer pooling keeps the input dtype: " << out->DebugString();
  NEOCPU_CHECK(input.dtype() == DType::kU8) << input.DebugString();
  PoolNCHWcIntImpl(p, input, n * cb, ih, iw, x, zero_point, out, engine);
}

void GlobalAvgPoolNCHW(const Tensor& input, Tensor* out, ThreadEngine* engine) {
  NEOCPU_CHECK_EQ(input.ndim(), 4);
  const std::int64_t n = input.dim(0), c = input.dim(1), plane = input.dim(2) * input.dim(3);
  CheckKernelOutput(out, {n, c, 1, 1}, Layout::NCHW(), "global_avg_pool");
  const float* in_base = input.data();
  float* out_base = out->data();
  ParallelFor(EngineOrSerial(engine), n * c, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t idx = begin; idx < end; ++idx) {
      const float* src = in_base + idx * plane;
      float sum = 0.0f;
      for (std::int64_t i = 0; i < plane; ++i) {
        sum += src[i];
      }
      out_base[idx] = sum / static_cast<float>(plane);
    }
  });
}

void GlobalAvgPoolNCHWc(const Tensor& input, Tensor* out, ThreadEngine* engine) {
  NEOCPU_CHECK_EQ(input.ndim(), 5);
  const std::int64_t n = input.dim(0), cb = input.dim(1), plane = input.dim(2) * input.dim(3),
                     x = input.dim(4);
  CheckKernelOutput(out, {n, cb, 1, 1, x}, input.layout(), "global_avg_pool");
  const float* in_base = input.data();
  float* out_base = out->data();
  ParallelFor(EngineOrSerial(engine), n * cb, [&](std::int64_t begin, std::int64_t end) {
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
      const float inv = 1.0f / static_cast<float>(plane);
      for (std::int64_t ci = 0; ci < x; ++ci) {
        dst[ci] *= inv;
      }
    }
  });
}

}  // namespace neocpu
