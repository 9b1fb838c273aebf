#include "src/tensor/layout_transform.h"

#include <cstring>

#include "src/base/logging.h"
#include "src/tensor/tensor_check.h"

namespace neocpu {
namespace {

// The NCHW<->NCHW[x]c family is dtype-generic (pure index permutation): the fp32
// pipeline moves floats, the quantized path moves u8 activations between differently
// blocked convolutions. Each public entry dispatches on the source dtype.
template <typename T>
void NCHWToNCHWcT(const Tensor& src, std::int64_t x, Tensor* dst, ThreadEngine* engine) {
  const std::int64_t n = src.dim(0), c = src.dim(1), h = src.dim(2), w = src.dim(3);
  const std::int64_t cb = c / x;
  const T* s = src.data_as<T>();
  T* d = dst->data_as<T>();
  const std::int64_t hw = h * w;
  ParallelFor(EngineOrSerial(engine), n * cb, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t ncb = begin; ncb < end; ++ncb) {
      const std::int64_t ni = ncb / cb;
      const std::int64_t co = ncb % cb;
      T* dp = d + ncb * hw * x;
      const T* sp = s + (ni * c + co * x) * hw;
      for (std::int64_t p = 0; p < hw; ++p) {
        for (std::int64_t ci = 0; ci < x; ++ci) {
          dp[p * x + ci] = sp[ci * hw + p];
        }
      }
    }
  });
}

template <typename T>
void NCHWcToNCHWT(const Tensor& src, Tensor* dst, ThreadEngine* engine) {
  const std::int64_t n = src.dim(0), cb = src.dim(1), h = src.dim(2), w = src.dim(3),
                     x = src.dim(4);
  const T* s = src.data_as<T>();
  T* d = dst->data_as<T>();
  const std::int64_t hw = h * w;
  ParallelFor(EngineOrSerial(engine), n * cb, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t ncb = begin; ncb < end; ++ncb) {
      const std::int64_t ni = ncb / cb;
      const std::int64_t co = ncb % cb;
      const T* sp = s + ncb * hw * x;
      T* dp = d + (ni * cb * x + co * x) * hw;
      for (std::int64_t p = 0; p < hw; ++p) {
        for (std::int64_t ci = 0; ci < x; ++ci) {
          dp[ci * hw + p] = sp[p * x + ci];
        }
      }
    }
  });
}

template <typename T>
void NCHWcToNCHWcT(const Tensor& src, std::int64_t new_x, Tensor* dst,
                   ThreadEngine* engine) {
  const std::int64_t n = src.dim(0), cb = src.dim(1), h = src.dim(2), w = src.dim(3),
                     x = src.dim(4);
  const std::int64_t c = cb * x;
  const std::int64_t new_cb = c / new_x;
  const T* s = src.data_as<T>();
  T* d = dst->data_as<T>();
  const std::int64_t hw = h * w;
  ParallelFor(EngineOrSerial(engine), n * new_cb, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t ncb = begin; ncb < end; ++ncb) {
      const std::int64_t ni = ncb / new_cb;
      const std::int64_t co = ncb % new_cb;
      T* dp = d + ncb * hw * new_x;
      for (std::int64_t ci = 0; ci < new_x; ++ci) {
        const std::int64_t ch = co * new_x + ci;  // global channel index
        const T* sp = s + ((ni * cb + ch / x) * hw) * x + (ch % x);
        for (std::int64_t p = 0; p < hw; ++p) {
          dp[p * new_x + ci] = sp[p * x];
        }
      }
    }
  });
}

void CheckSameDtype(const Tensor& src, const Tensor* dst) {
  NEOCPU_CHECK(dst->dtype() == src.dtype())
      << "layout transform cannot change dtype: " << src.DebugString() << " -> "
      << dst->DebugString();
  NEOCPU_CHECK(src.dtype() == DType::kF32 || src.dtype() == DType::kU8)
      << "layout transforms support f32/u8 feature maps, got " << src.DebugString();
}

}  // namespace

void NCHWToNCHWc(const Tensor& src, std::int64_t x, Tensor* dst, ThreadEngine* engine) {
  NEOCPU_CHECK_EQ(src.ndim(), 4);
  const std::int64_t n = src.dim(0), c = src.dim(1), h = src.dim(2), w = src.dim(3);
  NEOCPU_CHECK_GT(x, 0);
  NEOCPU_CHECK_EQ(c % x, 0) << "channels " << c << " not divisible by block " << x;
  CheckKernelOutput(dst, {n, c / x, h, w, x}, Layout::NCHWc(x), "layout_transform");
  CheckSameDtype(src, dst);
  if (src.dtype() == DType::kU8) {
    NCHWToNCHWcT<std::uint8_t>(src, x, dst, engine);
  } else {
    NCHWToNCHWcT<float>(src, x, dst, engine);
  }
}

void NCHWcToNCHW(const Tensor& src, Tensor* dst, ThreadEngine* engine) {
  NEOCPU_CHECK_EQ(src.ndim(), 5);
  const std::int64_t n = src.dim(0), cb = src.dim(1), h = src.dim(2), w = src.dim(3),
                     x = src.dim(4);
  CheckKernelOutput(dst, {n, cb * x, h, w}, Layout::NCHW(), "layout_transform");
  CheckSameDtype(src, dst);
  if (src.dtype() == DType::kU8) {
    NCHWcToNCHWT<std::uint8_t>(src, dst, engine);
  } else {
    NCHWcToNCHWT<float>(src, dst, engine);
  }
}

void NCHWcToNCHWc(const Tensor& src, std::int64_t new_x, Tensor* dst,
                  ThreadEngine* engine) {
  NEOCPU_CHECK_EQ(src.ndim(), 5);
  const std::int64_t n = src.dim(0), cb = src.dim(1), h = src.dim(2), w = src.dim(3),
                     x = src.dim(4);
  const std::int64_t c = cb * x;
  NEOCPU_CHECK(new_x != x) << "identity re-block is a view, not a copy";
  NEOCPU_CHECK_EQ(c % new_x, 0);
  CheckKernelOutput(dst, {n, c / new_x, h, w, new_x}, Layout::NCHWc(new_x),
                    "layout_transform");
  CheckSameDtype(src, dst);
  if (src.dtype() == DType::kU8) {
    NCHWcToNCHWcT<std::uint8_t>(src, new_x, dst, engine);
  } else {
    NCHWcToNCHWcT<float>(src, new_x, dst, engine);
  }
}

void NCHWToNHWC(const Tensor& src, Tensor* dst, ThreadEngine* engine) {
  NEOCPU_CHECK_EQ(src.ndim(), 4);
  const std::int64_t n = src.dim(0), c = src.dim(1), h = src.dim(2), w = src.dim(3);
  CheckKernelOutput(dst, {n, h, w, c}, Layout::NHWC(), "layout_transform");
  const float* s = src.data();
  float* d = dst->data();
  const std::int64_t hw = h * w;
  ParallelFor(EngineOrSerial(engine), n, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t ni = begin; ni < end; ++ni) {
      const float* sp = s + ni * c * hw;
      float* dp = d + ni * hw * c;
      for (std::int64_t p = 0; p < hw; ++p) {
        for (std::int64_t ci = 0; ci < c; ++ci) {
          dp[p * c + ci] = sp[ci * hw + p];
        }
      }
    }
  });
}

void NHWCToNCHW(const Tensor& src, Tensor* dst, ThreadEngine* engine) {
  NEOCPU_CHECK_EQ(src.ndim(), 4);
  const std::int64_t n = src.dim(0), h = src.dim(1), w = src.dim(2), c = src.dim(3);
  CheckKernelOutput(dst, {n, c, h, w}, Layout::NCHW(), "layout_transform");
  const float* s = src.data();
  float* d = dst->data();
  const std::int64_t hw = h * w;
  ParallelFor(EngineOrSerial(engine), n, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t ni = begin; ni < end; ++ni) {
      const float* sp = s + ni * hw * c;
      float* dp = d + ni * c * hw;
      for (std::int64_t ci = 0; ci < c; ++ci) {
        for (std::int64_t p = 0; p < hw; ++p) {
          dp[ci * hw + p] = sp[p * c + ci];
        }
      }
    }
  });
}

namespace {

template <typename T>
void OIHWToOIHWioT(const Tensor& src, std::int64_t x, std::int64_t y, Tensor* dst) {
  const std::int64_t o = src.dim(0), i = src.dim(1), kh = src.dim(2), kw = src.dim(3);
  const std::int64_t ob = o / y;
  const std::int64_t ib = i / x;
  const T* s = src.data_as<T>();
  T* d = dst->data_as<T>();
  const std::int64_t khw = kh * kw;
  for (std::int64_t oo = 0; oo < ob; ++oo) {
    for (std::int64_t ii = 0; ii < ib; ++ii) {
      for (std::int64_t k = 0; k < khw; ++k) {
        for (std::int64_t xi = 0; xi < x; ++xi) {
          for (std::int64_t yi = 0; yi < y; ++yi) {
            const std::int64_t src_idx = ((oo * y + yi) * i + (ii * x + xi)) * khw + k;
            T* dp = d + ((((oo * ib + ii) * khw + k) * x + xi) * y + yi);
            *dp = s[src_idx];
          }
        }
      }
    }
  }
}

}  // namespace

Tensor OIHWToOIHWio(const Tensor& src, std::int64_t x, std::int64_t y) {
  NEOCPU_CHECK_EQ(src.ndim(), 4);
  const std::int64_t o = src.dim(0), i = src.dim(1), kh = src.dim(2), kw = src.dim(3);
  NEOCPU_CHECK_EQ(i % x, 0);
  NEOCPU_CHECK_EQ(o % y, 0);
  Tensor dst = Tensor::Empty({o / y, i / x, kh, kw, x, y}, Layout::OIHWio(x, y),
                             src.dtype());
  if (src.dtype() == DType::kS8) {
    OIHWToOIHWioT<std::int8_t>(src, x, y, &dst);
  } else {
    NEOCPU_CHECK(src.dtype() == DType::kF32) << src.DebugString();
    OIHWToOIHWioT<float>(src, x, y, &dst);
  }
  return dst;
}

void TransformLayout(const Tensor& src, const Layout& dst_layout, Tensor* dst,
                     ThreadEngine* engine) {
  const Layout& from = src.layout();
  NEOCPU_CHECK(!(from == dst_layout))
      << "identity transform reached the into-path; the planner aliases these";
  if (from.kind == LayoutKind::kNCHW && dst_layout.kind == LayoutKind::kNCHWc) {
    NCHWToNCHWc(src, dst_layout.c_block, dst, engine);
    return;
  }
  if (from.kind == LayoutKind::kNCHWc && dst_layout.kind == LayoutKind::kNCHW) {
    NCHWcToNCHW(src, dst, engine);
    return;
  }
  if (from.kind == LayoutKind::kNCHWc && dst_layout.kind == LayoutKind::kNCHWc) {
    NCHWcToNCHWc(src, dst_layout.c_block, dst, engine);
    return;
  }
  if (from.kind == LayoutKind::kNCHW && dst_layout.kind == LayoutKind::kNHWC) {
    NCHWToNHWC(src, dst, engine);
    return;
  }
  if (from.kind == LayoutKind::kNHWC && dst_layout.kind == LayoutKind::kNCHW) {
    NHWCToNCHW(src, dst, engine);
    return;
  }
  LOG(FATAL) << "unsupported layout transform " << from.ToString() << " -> "
             << dst_layout.ToString();
}

std::int64_t TransformBytes(const Tensor& src) {
  return 2 * static_cast<std::int64_t>(src.SizeBytes());
}

}  // namespace neocpu
