// Spatial pooling in NCHW and NCHW[x]c layouts.
//
// Pooling is "layout-tolerant" in the paper's taxonomy (§3.2): it needs to know the
// layout but works in both, so the optimized NCHW[x]c layout flows through it without a
// transform. The NCHWc variant's inner loop runs over the channel block, vectorizing the
// same way the convolution epilogue does.
#ifndef NEOCPU_SRC_KERNELS_POOLING_H_
#define NEOCPU_SRC_KERNELS_POOLING_H_

#include <cstdint>

#include "src/runtime/thread_engine.h"
#include "src/tensor/tensor.h"

namespace neocpu {

enum class PoolType { kMax, kAvg };

struct Pool2dParams {
  PoolType type = PoolType::kMax;
  std::int64_t kernel_h = 2;
  std::int64_t kernel_w = 2;
  std::int64_t stride_h = 2;
  std::int64_t stride_w = 2;
  std::int64_t pad_h = 0;
  std::int64_t pad_w = 0;
  // When true (the convention of the zoo models here), average pooling divides by the
  // full kernel area including padded positions; otherwise by the valid count.
  bool count_include_pad = false;
  // Ceil-mode output size (SSD's 3x3/s1 pooling and DenseNet transitions use floor).
  bool ceil_mode = false;

  std::int64_t OutDim(std::int64_t in, std::int64_t k, std::int64_t s, std::int64_t p) const;
  std::int64_t OutH(std::int64_t in_h) const { return OutDim(in_h, kernel_h, stride_h, pad_h); }
  std::int64_t OutW(std::int64_t in_w) const { return OutDim(in_w, kernel_w, stride_w, pad_w); }
};

// input NCHW {N,C,H,W} -> output NCHW.
void PoolNCHW(const Pool2dParams& params, const Tensor& input, Tensor* out,
              ThreadEngine* engine = nullptr);

// input NCHW[x]c {N,C/x,H,W,x} -> output NCHW[x]c.
void PoolNCHWc(const Pool2dParams& params, const Tensor& input, Tensor* out,
               ThreadEngine* engine = nullptr);

// Integer-domain pooling over u8 tensors, NCHW[x]c or plain NCHW (the x == 1 case —
// layout fallbacks around concat groups can demote integer tensors to NCHW). The
// output keeps the input's dtype and quantization params, so no Q/DQ pair is needed
// around the node. Max pooling is an integer compare — quantization is monotonic, so
// the result is bitwise the same element the f32 pool would have picked. Average
// pooling accumulates in s32 and rounds once; `zero_point` is the input's zero point,
// which padded cells contribute under count_include_pad because a padded f32 cell
// holds real 0.0.
void PoolNCHWcInt(const Pool2dParams& params, const Tensor& input,
                  std::int32_t zero_point, Tensor* out, ThreadEngine* engine = nullptr);

// Global average pooling: NCHW -> {N, C, 1, 1}; NCHWc -> {N, C/x, 1, 1, x}.
void GlobalAvgPoolNCHW(const Tensor& input, Tensor* out, ThreadEngine* engine = nullptr);
void GlobalAvgPoolNCHWc(const Tensor& input, Tensor* out, ThreadEngine* engine = nullptr);

}  // namespace neocpu

#endif  // NEOCPU_SRC_KERNELS_POOLING_H_
