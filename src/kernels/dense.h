// Fully-connected (dense) layer: out[n, o] = sum_i in[n, i] * w[o, i] + b[o].
#ifndef NEOCPU_SRC_KERNELS_DENSE_H_
#define NEOCPU_SRC_KERNELS_DENSE_H_

#include "src/runtime/thread_engine.h"
#include "src/tensor/tensor.h"

namespace neocpu {

// input {N, In}; weight {Out, In}; bias flat {Out} or null; out preallocated {N, Out}.
void Dense(const Tensor& input, const Tensor& weight, const Tensor* bias, bool relu,
           Tensor* out, ThreadEngine* engine = nullptr);

}  // namespace neocpu

#endif  // NEOCPU_SRC_KERNELS_DENSE_H_
