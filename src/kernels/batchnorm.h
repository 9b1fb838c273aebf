// Inference-time batch normalization.
//
// At inference BN is a per-channel affine transform y = x * scale + shift with
//   scale = gamma / sqrt(var + eps), shift = beta - mean * scale.
// The compiler folds BN into an adjacent convolution whenever possible (inference
// simplification); these kernels execute the cases that cannot fold (e.g. DenseNet's
// BN→ReLU→Conv pre-activation blocks), optionally fusing the trailing ReLU.
#ifndef NEOCPU_SRC_KERNELS_BATCHNORM_H_
#define NEOCPU_SRC_KERNELS_BATCHNORM_H_

#include "src/runtime/thread_engine.h"
#include "src/tensor/tensor.h"

namespace neocpu {

// Computes the folded (scale, shift) pair from BN statistics. All inputs are flat {C}.
void ComputeBnScaleShift(const Tensor& gamma, const Tensor& beta, const Tensor& mean,
                         const Tensor& var, float epsilon, Tensor* scale, Tensor* shift);

// y = x * scale[c] + shift[c] (+ReLU). input NCHW {N,C,H,W} or NCHW[x]c
// {N,C/x,H,W,x}; scale/shift flat {C}; out has the input's dims and layout.
void ScaleShift(const Tensor& input, const Tensor& scale, const Tensor& shift, bool relu,
                Tensor* out, ThreadEngine* engine = nullptr);

}  // namespace neocpu

#endif  // NEOCPU_SRC_KERNELS_BATCHNORM_H_
