// Data-layout transformation kernels.
//
// These are the runtime cost the graph-level optimization (paper §3.2/§3.3) minimizes:
// every transform the global search fails to eliminate executes TransformLayout.
// Weight transforms (OIHW → OIHW[x]i[y]o) run once at compile time instead
// ("pre-transformed kernel" in Figure 2).
#ifndef NEOCPU_SRC_TENSOR_LAYOUT_TRANSFORM_H_
#define NEOCPU_SRC_TENSOR_LAYOUT_TRANSFORM_H_

#include "src/runtime/thread_engine.h"
#include "src/tensor/tensor.h"

namespace neocpu {

// Convolution weights in OIHW[x]i[y]o: 6-D {O/y, I/x, KH, KW, x, y}, with OIHW (4-D)
// read as OIHW[1]i[1]o, just as NCHW is NCHW[1]c. f32 or s8.
//
// Returns `w` itself when it already has blocks (x, y), else a copy with them: OIHW
// when x = y = 1, else OIHW[x]i[y]o. I % x == 0 and O % y == 0.
Tensor ReblockWeight(const Tensor& w, std::int64_t x, std::int64_t y);

// Reblocks `*w` to (x, y) in its own buffer: a group of lcm(y, y') output channels
// is one contiguous slab in both layouts, so the slabs go one at a time through one
// reusable scratch slab. Only for a buffer nothing else reads (a weight the caller
// created): every tensor sharing the buffer sees the new element order.
void ReblockWeightInPlace(Tensor* w, std::int64_t x, std::int64_t y);

// The one feature-map transform, behind the executor's LayoutTransform node: copies
// `src` (NCHW, NHWC or NCHW[x]c; f32 or u8) into `dst` in `dst_layout`, one of the same
// three. Every one of them is NCHW[x]c for some x (NCHW x = 1, NHWC x = C), so each
// conversion is one re-block; the channel count must divide by the destination block.
// Requires an actual data movement: the planner classifies identity transforms as
// aliases and never routes them here.
void TransformLayout(const Tensor& src, const Layout& dst_layout, Tensor* dst,
                     ThreadEngine* engine = nullptr);

// Bytes moved by a feature-map transform; the global search's cost model multiplies this
// by calibrated bandwidth (read + write once each).
std::int64_t TransformBytes(const Tensor& src);

}  // namespace neocpu

#endif  // NEOCPU_SRC_TENSOR_LAYOUT_TRANSFORM_H_
