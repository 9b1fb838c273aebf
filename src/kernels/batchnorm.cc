#include "src/kernels/batchnorm.h"

#include <cmath>

#include "src/base/logging.h"
#include "src/tensor/tensor_check.h"

namespace neocpu {
void ComputeBnScaleShift(const Tensor& gamma, const Tensor& beta, const Tensor& mean,
                         const Tensor& var, float epsilon, Tensor* scale, Tensor* shift) {
  const std::int64_t c = gamma.NumElements();
  NEOCPU_CHECK_EQ(beta.NumElements(), c);
  NEOCPU_CHECK_EQ(mean.NumElements(), c);
  NEOCPU_CHECK_EQ(var.NumElements(), c);
  *scale = Tensor::Empty({c});
  *shift = Tensor::Empty({c});
  for (std::int64_t i = 0; i < c; ++i) {
    const float s = gamma.data()[i] / std::sqrt(var.data()[i] + epsilon);
    scale->data()[i] = s;
    shift->data()[i] = beta.data()[i] - mean.data()[i] * s;
  }
}

namespace {

// The one scale-shift body over an NCHW[x]c view. kBlock is the block when known at
// compile time (1 for NCHW, so the inner loop vectorizes over the plane), 0 otherwise.
template <std::int64_t kBlock>
void ScaleShiftT(const Tensor& input, const BlockedDims& d, const float* sc,
                 const float* sh, bool relu, Tensor* out, ThreadEngine* engine) {
  const std::int64_t x = kBlock > 0 ? kBlock : d.x;
  const std::int64_t plane = d.h * d.w;
  const float* in_base = input.data_as<float>();
  float* out_base = out->data_as<float>();
  ParallelFor(EngineOrSerial(engine), d.n * d.cb, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t idx = begin; idx < end; ++idx) {
      const float* s = sc + (idx % d.cb) * x;
      const float* b = sh + (idx % d.cb) * x;
      const float* src = in_base + idx * plane * x;
      float* dst = out_base + idx * plane * x;
      for (std::int64_t i = 0; i < plane; ++i) {
        for (std::int64_t ci = 0; ci < x; ++ci) {
          float v = src[i * x + ci] * s[ci] + b[ci];
          if (relu) {
            v = v > 0.0f ? v : 0.0f;
          }
          dst[i * x + ci] = v;
        }
      }
    }
  });
}

}  // namespace

void ScaleShift(const Tensor& input, const Tensor& scale, const Tensor& shift, bool relu,
                Tensor* out, ThreadEngine* engine) {
  const BlockedDims d = BlockedDimsOf(input);
  NEOCPU_CHECK_EQ(scale.NumElements(), d.channels());
  NEOCPU_CHECK_EQ(shift.NumElements(), d.channels());
  CheckKernelOutput(out, input.dims(), d.layout, "scale_shift");
  if (d.x == 1) {
    ScaleShiftT<1>(input, d, scale.data(), shift.data(), relu, out, engine);
  } else {
    ScaleShiftT<0>(input, d, scale.data(), shift.data(), relu, out, engine);
  }
}

}  // namespace neocpu
