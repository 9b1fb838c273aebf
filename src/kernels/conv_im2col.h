// im2col + GEMM convolution in the default NCHW layout.
//
// This is the "framework default" convolution path (what TensorFlow/Eigen-class
// baselines execute): lower the convolution to a matrix multiply through an explicit
// column-buffer materialization, then run the packed GEMM family at its default
// blocking (fixed, not schedule-searched — the baseline keeps the paper's framing
// while sharing the register micro-kernels with the tuned dense path). It pays the
// col-buffer materialization and packing bandwidth the direct NCHWc template avoids.
#ifndef NEOCPU_SRC_KERNELS_CONV_IM2COL_H_
#define NEOCPU_SRC_KERNELS_CONV_IM2COL_H_

#include "src/kernels/conv_params.h"
#include "src/runtime/thread_engine.h"
#include "src/tensor/tensor.h"

namespace neocpu {

// Workspace-size query hook for the memory planner: bytes of scratch one ConvIm2col
// call needs — the {IC*KH*KW, OH*OW} column materialization plus the packed-B/packed-A
// GEMM panels, all reused across batch images.
std::size_t ConvIm2colWorkspaceBytes(const Conv2dParams& params);

// input NCHW; weight OIHW; residual f32 NCHW or null; output preallocated NCHW.
// `workspace` (optional) must hold ConvIm2colWorkspaceBytes(params); when null the
// kernel allocates its column buffer.
void ConvIm2col(const Conv2dParams& params, const Tensor& input, const Tensor& weight,
                const Tensor* bias, const Tensor* residual, const ConvEpilogue& epilogue,
                Tensor* output, ThreadEngine* engine = nullptr, float* workspace = nullptr);

}  // namespace neocpu

#endif  // NEOCPU_SRC_KERNELS_CONV_IM2COL_H_
