// Data-layout transformation kernels.
//
// These are the runtime cost the graph-level optimization (paper §3.2/§3.3) minimizes:
// every transform the global search fails to eliminate executes one of these functions.
// Weight transforms (OIHW → OIHW[x]i[y]o) run once at compile time instead
// ("pre-transformed kernel" in Figure 2).
#ifndef NEOCPU_SRC_TENSOR_LAYOUT_TRANSFORM_H_
#define NEOCPU_SRC_TENSOR_LAYOUT_TRANSFORM_H_

#include "src/runtime/thread_engine.h"
#include "src/tensor/tensor.h"

namespace neocpu {

// NCHW (4-D) → NCHW[x]c (5-D). Channel count must be divisible by x.
void NCHWToNCHWc(const Tensor& src, std::int64_t x, Tensor* dst,
                 ThreadEngine* engine = nullptr);

// NCHW[x]c (5-D) → NCHW (4-D).
void NCHWcToNCHW(const Tensor& src, Tensor* dst, ThreadEngine* engine = nullptr);

// Re-block a feature map to a different split factor: NCHW[x]c → NCHW[y]c. Requires
// new_x != current x (the planner aliases the identity case instead of copying it).
void NCHWcToNCHWc(const Tensor& src, std::int64_t new_x, Tensor* dst,
                  ThreadEngine* engine = nullptr);

// NCHW ↔ NHWC (framework default interchange; used by tests and the NHWC entry path).
void NCHWToNHWC(const Tensor& src, Tensor* dst, ThreadEngine* engine = nullptr);
void NHWCToNCHW(const Tensor& src, Tensor* dst, ThreadEngine* engine = nullptr);

// Convolution weights OIHW (4-D) → OIHW[x]i[y]o (6-D). I % x == 0 and O % y == 0.
Tensor OIHWToOIHWio(const Tensor& src, std::int64_t x, std::int64_t y);

// Dispatcher used by the executor's LayoutTransform node: converts `src` to `dst_layout`
// (one of the feature-map conversions above). Requires an actual data movement: the
// planner classifies identity transforms as aliases and never routes them here.
void TransformLayout(const Tensor& src, const Layout& dst_layout, Tensor* dst,
                     ThreadEngine* engine = nullptr);

// Bytes moved by a feature-map transform; the global search's cost model multiplies this
// by calibrated bandwidth (read + write once each).
std::int64_t TransformBytes(const Tensor& src);

}  // namespace neocpu

#endif  // NEOCPU_SRC_TENSOR_LAYOUT_TRANSFORM_H_
