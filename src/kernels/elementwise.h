// Memory-bound elementwise and shape operations.
//
// Paper taxonomy (§3.2): ReLU / Softmax / ElemwiseAdd / Concat are layout-oblivious (or
// tolerant in concat's channel-axis case), so they accept any layout and the optimized
// NCHW[x]c layout flows through them unchanged. Flatten is layout-dependent — the graph
// pass inserts a transform back to NCHW before it.
#ifndef NEOCPU_SRC_KERNELS_ELEMENTWISE_H_
#define NEOCPU_SRC_KERNELS_ELEMENTWISE_H_

#include <cstdint>
#include <vector>

#include "src/runtime/thread_engine.h"
#include "src/tensor/tensor.h"

namespace neocpu {

// out = max(in, 0); any layout.
void Relu(const Tensor& input, Tensor* out, ThreadEngine* engine = nullptr);

// out = a + b (+ReLU); shapes and layouts must match exactly.
void AddElementwise(const Tensor& a, const Tensor& b, bool relu, Tensor* out,
                    ThreadEngine* engine = nullptr);

// Concatenation along the channel axis. All inputs NCHW, or all NCHW[x]c with one common
// block size x (the layout constraint the global search's cost matrices encode).
void ConcatChannels(const std::vector<Tensor>& inputs, Tensor* out,
                    ThreadEngine* engine = nullptr);

// Integer-domain channel concat over u8 NCHW[x]c inputs: each input is rescaled
// inline during the copy from its own quantization params (in_scales[i], in_zeros[i])
// to the common output params (out_scale, out_zero) —
//   q_out = clamp(round((in_scale/out_scale) * (q_in - in_zero)) + out_zero).
// Inputs whose params already equal the output's degrade to a memcpy.
void ConcatChannelsInt(const std::vector<Tensor>& inputs,
                       const std::vector<float>& in_scales,
                       const std::vector<std::int32_t>& in_zeros, float out_scale,
                       std::int32_t out_zero, Tensor* out,
                       ThreadEngine* engine = nullptr);

// Row-wise softmax on a {N, C} (or flat {C}) tensor.
void Softmax(const Tensor& input, Tensor* out, ThreadEngine* engine = nullptr);

// NCHW {N,C,H,W} -> {N, C*H*W}. Layout-dependent: input must be NCHW (4-D).
Tensor FlattenNCHW(const Tensor& input);

}  // namespace neocpu

#endif  // NEOCPU_SRC_KERNELS_ELEMENTWISE_H_
