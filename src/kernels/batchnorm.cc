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

void ScaleShiftNCHW(const Tensor& input, const Tensor& scale, const Tensor& shift, bool relu,
                    Tensor* out, ThreadEngine* engine) {
  NEOCPU_CHECK_EQ(input.ndim(), 4);
  const std::int64_t n = input.dim(0), c = input.dim(1), plane = input.dim(2) * input.dim(3);
  NEOCPU_CHECK_EQ(scale.NumElements(), c);
  CheckKernelOutput(out, input.dims(), input.layout(), "scale_shift");
  const float* in_base = input.data();
  const float* sc = scale.data();
  const float* sh = shift.data();
  float* out_base = out->data();
  ParallelFor(EngineOrSerial(engine), n * c, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t idx = begin; idx < end; ++idx) {
      const std::int64_t ch = idx % c;
      const float s = sc[ch];
      const float b = sh[ch];
      const float* src = in_base + idx * plane;
      float* dst = out_base + idx * plane;
      for (std::int64_t i = 0; i < plane; ++i) {
        float v = src[i] * s + b;
        if (relu) {
          v = v > 0.0f ? v : 0.0f;
        }
        dst[i] = v;
      }
    }
  });
}

void ScaleShiftNCHWc(const Tensor& input, const Tensor& scale, const Tensor& shift,
                     bool relu, Tensor* out, ThreadEngine* engine) {
  NEOCPU_CHECK_EQ(input.ndim(), 5);
  const std::int64_t n = input.dim(0), cb = input.dim(1), plane = input.dim(2) * input.dim(3),
                     x = input.dim(4);
  NEOCPU_CHECK_EQ(scale.NumElements(), cb * x);
  CheckKernelOutput(out, input.dims(), input.layout(), "scale_shift");
  const float* in_base = input.data();
  const float* sc = scale.data();
  const float* sh = shift.data();
  float* out_base = out->data();
  ParallelFor(EngineOrSerial(engine), n * cb, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t idx = begin; idx < end; ++idx) {
      const std::int64_t cb_idx = idx % cb;
      const float* s = sc + cb_idx * x;
      const float* b = sh + cb_idx * x;
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

}  // namespace neocpu
