// Direct convolution in the default NCHW layout.
//
// This is both (a) the correctness oracle for every other convolution path and (b) the
// Table 3 "Baseline" row: NCHW data layout "with proper vectorization and thread-level
// parallelization" but no blocked layout — the contiguous out_width inner loop
// auto-vectorizes, but kernel values cannot be register-blocked across channels.
#ifndef NEOCPU_SRC_KERNELS_CONV_REF_H_
#define NEOCPU_SRC_KERNELS_CONV_REF_H_

#include "src/kernels/conv_params.h"
#include "src/runtime/thread_engine.h"
#include "src/tensor/tensor.h"

namespace neocpu {

// input NCHW {N, IC, IH, IW}; weight OIHW {OC, IC, KH, KW}; bias flat {OC} or null;
// residual f32 NCHW (same dims as output) or null; output preallocated NCHW.
void ConvRefNCHW(const Conv2dParams& params, const Tensor& input, const Tensor& weight,
                 const Tensor* bias, const Tensor* residual, const ConvEpilogue& epilogue,
                 Tensor* output, ThreadEngine* engine = nullptr);

}  // namespace neocpu

#endif  // NEOCPU_SRC_KERNELS_CONV_REF_H_
