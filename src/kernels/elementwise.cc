#include "src/kernels/elementwise.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/base/logging.h"
#include "src/kernels/quantize.h"
#include "src/tensor/tensor_check.h"

namespace neocpu {
void Relu(const Tensor& input, Tensor* out, ThreadEngine* engine) {
  CheckKernelOutput(out, input.dims(), input.layout(), "relu");
  const float* src = input.data();
  float* dst = out->data();
  ParallelFor(EngineOrSerial(engine), input.NumElements(), [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) {
      dst[i] = src[i] > 0.0f ? src[i] : 0.0f;
    }
  });
}

void AddElementwise(const Tensor& a, const Tensor& b, bool relu, Tensor* out,
                    ThreadEngine* engine) {
  NEOCPU_CHECK(a.dims() == b.dims()) << a.DebugString() << " vs " << b.DebugString();
  NEOCPU_CHECK(a.layout() == b.layout())
      << "elementwise add requires identical layouts: " << a.layout().ToString() << " vs "
      << b.layout().ToString();
  CheckKernelOutput(out, a.dims(), a.layout(), "elem_add");
  const float* pa = a.data();
  const float* pb = b.data();
  float* dst = out->data();
  ParallelFor(EngineOrSerial(engine), a.NumElements(), [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) {
      float v = pa[i] + pb[i];
      if (relu) {
        v = v > 0.0f ? v : 0.0f;
      }
      dst[i] = v;
    }
  });
}

void ConcatChannels(const std::vector<Tensor>& inputs, Tensor* out, ThreadEngine* engine) {
  NEOCPU_CHECK(!inputs.empty());
  NEOCPU_CHECK(out != nullptr);
  const Tensor& first = inputs.front();
  const LayoutKind kind = first.layout().kind;
  NEOCPU_CHECK(kind == LayoutKind::kNCHW || kind == LayoutKind::kNCHWc);

  if (kind == LayoutKind::kNCHW) {
    const std::int64_t n = first.dim(0), h = first.dim(2), w = first.dim(3);
    std::int64_t total_c = 0;
    for (const Tensor& t : inputs) {
      NEOCPU_CHECK_EQ(t.ndim(), 4);
      NEOCPU_CHECK_EQ(t.dim(0), n);
      NEOCPU_CHECK_EQ(t.dim(2), h);
      NEOCPU_CHECK_EQ(t.dim(3), w);
      total_c += t.dim(1);
    }
    CheckKernelOutput(out, {n, total_c, h, w}, Layout::NCHW(), "concat");
    const std::int64_t plane = h * w;
    std::int64_t c_off = 0;
    for (const Tensor& t : inputs) {
      const std::int64_t c = t.dim(1);
      ParallelFor(EngineOrSerial(engine), n, [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t ni = begin; ni < end; ++ni) {
          std::memcpy(out->data() + (ni * total_c + c_off) * plane,
                      t.data() + ni * c * plane,
                      static_cast<std::size_t>(c * plane) * sizeof(float));
        }
      });
      c_off += c;
    }
    return;
  }

  // NCHWc: all inputs must share the block size; blocks are concatenated along C/x.
  const std::int64_t x = first.dim(4);
  const std::int64_t n = first.dim(0), h = first.dim(2), w = first.dim(3);
  std::int64_t total_cb = 0;
  for (const Tensor& t : inputs) {
    NEOCPU_CHECK_EQ(t.ndim(), 5);
    NEOCPU_CHECK_EQ(t.dim(4), x) << "concat requires one common channel block";
    NEOCPU_CHECK_EQ(t.dim(0), n);
    NEOCPU_CHECK_EQ(t.dim(2), h);
    NEOCPU_CHECK_EQ(t.dim(3), w);
    total_cb += t.dim(1);
  }
  CheckKernelOutput(out, {n, total_cb, h, w, x}, Layout::NCHWc(x), "concat");
  const std::int64_t plane = h * w * x;
  std::int64_t cb_off = 0;
  for (const Tensor& t : inputs) {
    const std::int64_t cb = t.dim(1);
    ParallelFor(EngineOrSerial(engine), n, [&](std::int64_t begin, std::int64_t end) {
      for (std::int64_t ni = begin; ni < end; ++ni) {
        std::memcpy(out->data() + (ni * total_cb + cb_off) * plane,
                    t.data() + ni * cb * plane,
                    static_cast<std::size_t>(cb * plane) * sizeof(float));
      }
    });
    cb_off += cb;
  }
}

namespace {

void ConcatRescaleCopy(const Tensor& t, float rel_scale, std::int32_t in_zero,
                       std::int32_t out_zero, std::int64_t n, std::int64_t total_cb,
                       std::int64_t cb_off, std::int64_t plane, Tensor* out,
                       ThreadEngine* engine) {
  using Q = std::uint8_t;
  const std::int64_t cb = t.dim(1);
  const Q* src_base = t.data_as<Q>();
  Q* dst_base = out->data_as<Q>();
  constexpr float kLo = 0.0f;
  constexpr float kHi = 255.0f;
  // Same params on both sides: the "rescale" is the identity, copy bytes.
  const bool identity = rel_scale == 1.0f && in_zero == out_zero;
  ParallelFor(EngineOrSerial(engine), n, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t ni = begin; ni < end; ++ni) {
      Q* dst = dst_base + (ni * total_cb + cb_off) * plane;
      const Q* src = src_base + ni * cb * plane;
      if (identity) {
        std::memcpy(dst, src, static_cast<std::size_t>(cb * plane) * sizeof(Q));
        continue;
      }
      for (std::int64_t i = 0; i < cb * plane; ++i) {
        const float v = rel_scale * static_cast<float>(
                                        static_cast<std::int32_t>(src[i]) - in_zero);
        dst[i] = static_cast<Q>(RoundClamp(v, out_zero, kLo, kHi));
      }
    }
  });
}

}  // namespace

void ConcatChannelsInt(const std::vector<Tensor>& inputs,
                       const std::vector<float>& in_scales,
                       const std::vector<std::int32_t>& in_zeros, float out_scale,
                       std::int32_t out_zero, Tensor* out, ThreadEngine* engine) {
  NEOCPU_CHECK(!inputs.empty());
  NEOCPU_CHECK(out != nullptr);
  NEOCPU_CHECK_EQ(inputs.size(), in_scales.size());
  NEOCPU_CHECK_EQ(inputs.size(), in_zeros.size());
  NEOCPU_CHECK_GT(out_scale, 0.0f);
  const Tensor& first = inputs.front();
  const bool blocked = first.layout().kind == LayoutKind::kNCHWc;
  NEOCPU_CHECK(blocked || first.ndim() == 4) << first.DebugString();
  NEOCPU_CHECK(first.dtype() == DType::kU8) << first.DebugString();
  // NCHW is the x == 1 case of the blocked walk: per sample, each input contributes
  // one contiguous [cb * plane] run at a channel offset.
  const std::int64_t x = blocked ? first.dim(4) : 1;
  const std::int64_t n = first.dim(0), h = first.dim(2), w = first.dim(3);
  std::int64_t total_cb = 0;
  for (const Tensor& t : inputs) {
    NEOCPU_CHECK_EQ(t.ndim(), blocked ? 5 : 4);
    NEOCPU_CHECK(t.dtype() == DType::kU8) << t.DebugString();
    if (blocked) {
      NEOCPU_CHECK_EQ(t.dim(4), x) << "concat requires one common channel block";
    }
    NEOCPU_CHECK_EQ(t.dim(0), n);
    NEOCPU_CHECK_EQ(t.dim(2), h);
    NEOCPU_CHECK_EQ(t.dim(3), w);
    total_cb += t.dim(1);
  }
  if (blocked) {
    CheckKernelOutput(out, {n, total_cb, h, w, x}, Layout::NCHWc(x), "concat_int");
  } else {
    CheckKernelOutput(out, {n, total_cb, h, w}, Layout::NCHW(), "concat_int");
  }
  NEOCPU_CHECK(out->dtype() == DType::kU8) << out->DebugString();
  const std::int64_t plane = h * w * x;
  std::int64_t cb_off = 0;
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    const float rel = in_scales[k] / out_scale;
    ConcatRescaleCopy(inputs[k], rel, in_zeros[k], out_zero, n, total_cb, cb_off, plane,
                      out, engine);
    cb_off += inputs[k].dim(1);
  }
}

void Softmax(const Tensor& input, Tensor* out, ThreadEngine* engine) {
  CheckKernelOutput(out, input.dims(), input.layout(), "softmax");
  const std::int64_t rows = input.ndim() >= 2 ? input.dim(0) : 1;
  const std::int64_t cols = input.NumElements() / rows;
  const float* src = input.data();
  float* dst = out->data();
  ParallelFor(EngineOrSerial(engine), rows, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t r = begin; r < end; ++r) {
      const float* in_row = src + r * cols;
      float* out_row = dst + r * cols;
      float maxv = in_row[0];
      for (std::int64_t i = 1; i < cols; ++i) {
        maxv = std::max(maxv, in_row[i]);
      }
      float sum = 0.0f;
      for (std::int64_t i = 0; i < cols; ++i) {
        out_row[i] = std::exp(in_row[i] - maxv);
        sum += out_row[i];
      }
      const float inv = 1.0f / sum;
      for (std::int64_t i = 0; i < cols; ++i) {
        out_row[i] *= inv;
      }
    }
  });
}

Tensor FlattenNCHW(const Tensor& input) {
  NEOCPU_CHECK_EQ(input.ndim(), 4);
  NEOCPU_CHECK(input.layout().kind == LayoutKind::kNCHW)
      << "Flatten is layout-dependent; the graph pass must insert a transform to NCHW";
  return input.Reshaped({input.dim(0), input.dim(1) * input.dim(2) * input.dim(3)},
                        Layout::Flat());
}

}  // namespace neocpu
