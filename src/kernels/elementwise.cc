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

namespace {

// Checks that `inputs` concatenate along the channel axis into `out` and returns the
// batch. A 4-D NCHW, 5-D NCHW[x]c or flat {N, C} tensor (flat {C}: a batch of 1) holds
// each sample's channels as one contiguous run, so the concat copies, per sample, one
// run per input at its channel offset. The inputs share every dim but the channel
// (block) axis, and their layout, hence one common block.
std::int64_t CheckConcat(const std::vector<Tensor>& inputs, const Tensor* out,
                         const char* op) {
  NEOCPU_CHECK(!inputs.empty());
  const Tensor& first = inputs.front();
  const int rank = first.ndim();
  const LayoutKind kind = first.layout().kind;
  NEOCPU_CHECK(rank == 1 || rank == 2 || (rank == 4 && kind == LayoutKind::kNCHW) ||
               (rank == 5 && kind == LayoutKind::kNCHWc))
      << op << ": cannot concat " << first.DebugString();
  const std::size_t axis = rank == 1 ? 0 : 1;
  std::vector<std::int64_t> dims = first.dims();
  dims[axis] = 0;
  for (const Tensor& t : inputs) {
    NEOCPU_CHECK(t.layout() == first.layout())
        << op << ": concat requires one common channel block, got "
        << t.layout().ToString() << " and " << first.layout().ToString();
    NEOCPU_CHECK_EQ(t.ndim(), rank);
    NEOCPU_CHECK(t.dtype() == first.dtype()) << t.DebugString();
    for (std::size_t i = 0; i < dims.size(); ++i) {
      NEOCPU_CHECK(i == axis || t.dims()[i] == dims[i])
          << op << ": concat dims mismatch, " << t.DebugString() << " vs "
          << first.DebugString();
    }
    dims[axis] += t.dims()[axis];
  }
  CheckKernelOutput(out, dims, first.layout(), op);
  NEOCPU_CHECK(out->dtype() == first.dtype()) << out->DebugString();
  return rank == 1 ? 1 : dims[0];
}

}  // namespace

void ConcatChannels(const std::vector<Tensor>& inputs, Tensor* out, ThreadEngine* engine) {
  const std::int64_t n = CheckConcat(inputs, out, "concat");
  const std::int64_t out_run = out->NumElements() / n;
  std::int64_t off = 0;
  for (const Tensor& t : inputs) {
    const std::int64_t run = t.NumElements() / n;
    const float* src = t.data_as<float>();
    float* dst = out->data_as<float>() + off;
    ParallelFor(EngineOrSerial(engine), n, [&](std::int64_t begin, std::int64_t end) {
      for (std::int64_t ni = begin; ni < end; ++ni) {
        std::memcpy(dst + ni * out_run, src + ni * run,
                    static_cast<std::size_t>(run) * sizeof(float));
      }
    });
    off += run;
  }
}

namespace {

void ConcatRescaleCopy(const Tensor& t, float rel_scale, std::int32_t in_zero,
                       std::int32_t out_zero, std::int64_t n, std::int64_t out_off,
                       Tensor* out, ThreadEngine* engine) {
  using Q = std::uint8_t;
  const std::int64_t run = t.NumElements() / n;
  const std::int64_t out_run = out->NumElements() / n;
  const Q* src_base = t.data_as<Q>();
  Q* dst_base = out->data_as<Q>() + out_off;
  constexpr float kLo = 0.0f;
  constexpr float kHi = 255.0f;
  // Same params on both sides: the "rescale" is the identity, copy bytes.
  const bool identity = rel_scale == 1.0f && in_zero == out_zero;
  ParallelFor(EngineOrSerial(engine), n, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t ni = begin; ni < end; ++ni) {
      Q* dst = dst_base + ni * out_run;
      const Q* src = src_base + ni * run;
      if (identity) {
        std::memcpy(dst, src, static_cast<std::size_t>(run) * sizeof(Q));
        continue;
      }
      for (std::int64_t i = 0; i < run; ++i) {
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
  NEOCPU_CHECK_EQ(inputs.size(), in_scales.size());
  NEOCPU_CHECK_EQ(inputs.size(), in_zeros.size());
  NEOCPU_CHECK_GT(out_scale, 0.0f);
  const std::int64_t n = CheckConcat(inputs, out, "concat_int");
  std::int64_t off = 0;
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    const float rel = in_scales[k] / out_scale;
    ConcatRescaleCopy(inputs[k], rel, in_zeros[k], out_zero, n, off, out, engine);
    off += inputs[k].NumElements() / n;
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
