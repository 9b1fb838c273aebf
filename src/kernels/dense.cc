#include "src/kernels/dense.h"

#include "src/base/logging.h"
#include "src/tensor/tensor_check.h"

namespace neocpu {

void Dense(const Tensor& input, const Tensor& weight, const Tensor* bias, bool relu,
           Tensor* out, ThreadEngine* engine) {
  NEOCPU_CHECK_EQ(input.ndim(), 2);
  NEOCPU_CHECK_EQ(weight.ndim(), 2);
  const std::int64_t n = input.dim(0);
  const std::int64_t in_dim = input.dim(1);
  const std::int64_t out_dim = weight.dim(0);
  NEOCPU_CHECK_EQ(weight.dim(1), in_dim);
  NEOCPU_CHECK(input.dtype() == DType::kF32) << input.DebugString();
  NEOCPU_CHECK(weight.dtype() == DType::kF32) << weight.DebugString();
  NEOCPU_CHECK(bias == nullptr || bias->dtype() == DType::kF32) << bias->DebugString();
  CheckKernelOutput(out, {n, out_dim}, Layout::Flat(), "dense");
  NEOCPU_CHECK(out->dtype() == DType::kF32) << out->DebugString();
  ThreadEngine& eng = EngineOrSerial(engine);
  const float* in_base = input.data();
  const float* w_base = weight.data();
  const float* b_base = bias != nullptr ? bias->data() : nullptr;
  float* out_base = out->data();

  for (std::int64_t ni = 0; ni < n; ++ni) {
    const float* x = in_base + ni * in_dim;
    float* y = out_base + ni * out_dim;
    ParallelFor(eng, out_dim, [&](std::int64_t begin, std::int64_t end) {
      for (std::int64_t o = begin; o < end; ++o) {
        const float* __restrict w = w_base + o * in_dim;
        // 16 independent partial sums: the reduction vectorizes without requiring the
        // compiler to reassociate floating-point addition.
        float partial[16] = {};
        std::int64_t i = 0;
        for (; i + 16 <= in_dim; i += 16) {
#pragma omp simd
          for (int j = 0; j < 16; ++j) {  // SIMD dimension
            partial[j] += x[i + j] * w[i + j];
          }
        }
        float sum = 0.0f;
        for (; i < in_dim; ++i) {
          sum += x[i] * w[i];
        }
        for (int j = 0; j < 16; ++j) {
          sum += partial[j];
        }
        if (b_base != nullptr) {
          sum += b_base[o];
        }
        if (relu) {
          sum = sum > 0.0f ? sum : 0.0f;
        }
        y[o] = sum;
      }
    });
  }
}

}  // namespace neocpu
