// Convolution workload descriptor and fused-epilogue description.
//
// A Conv2dParams value identifies a "convolution workload" in the paper's sense (the
// tuning database is keyed by it); ConvEpilogue describes the operations the graph-level
// fusion pass folded into the convolution (bias add, residual add, ReLU).
#ifndef NEOCPU_SRC_KERNELS_CONV_PARAMS_H_
#define NEOCPU_SRC_KERNELS_CONV_PARAMS_H_

#include <cstdint>
#include <string>

namespace neocpu {

struct Conv2dParams {
  std::int64_t batch = 1;
  std::int64_t in_c = 0;
  std::int64_t in_h = 0;
  std::int64_t in_w = 0;
  std::int64_t out_c = 0;
  std::int64_t kernel_h = 1;
  std::int64_t kernel_w = 1;
  std::int64_t stride_h = 1;
  std::int64_t stride_w = 1;
  std::int64_t pad_h = 0;
  std::int64_t pad_w = 0;

  bool operator==(const Conv2dParams&) const = default;

  std::int64_t OutH() const { return (in_h + 2 * pad_h - kernel_h) / stride_h + 1; }
  std::int64_t OutW() const { return (in_w + 2 * pad_w - kernel_w) / stride_w + 1; }

  // Multiply-accumulate count (FLOPs = 2 * Macs).
  double Macs() const {
    return static_cast<double>(batch) * static_cast<double>(out_c) *
           static_cast<double>(OutH()) * static_cast<double>(OutW()) *
           static_cast<double>(in_c) * static_cast<double>(kernel_h) *
           static_cast<double>(kernel_w);
  }

  // The workload the u8 kernel runs: VNNI reads input channels in quads, so a conv
  // whose in_c is not a multiple of 4 runs on its channels rounded up to the next quad.
  // The pad channels hold the input zero point and weigh 0, so the result is exact.
  Conv2dParams QuadPadded() const {
    Conv2dParams p = *this;
    p.in_c = (in_c + 3) / 4 * 4;
    return p;
  }

  std::string ToString() const;
  // Stable shape token inside a WorkloadKey (src/tuning/workload_key.h); leads with the
  // batch size because the batch is part of the tuning-workload identity.
  std::string CacheKey() const;
  // Inverse of CacheKey. Returns false (leaving *params untouched) unless `text` is
  // exactly what CacheKey() would produce.
  static bool ParseCacheKey(const std::string& text, Conv2dParams* params);
};

struct ConvEpilogue {
  bool bias = false;          // add per-output-channel bias
  bool residual_add = false;  // add a second input tensor elementwise (ResNet shortcut)
  bool relu = false;          // clamp at zero

  bool operator==(const ConvEpilogue&) const = default;
};

}  // namespace neocpu

#endif  // NEOCPU_SRC_KERNELS_CONV_PARAMS_H_
