// Data-layout descriptors.
//
// The paper's central object: feature maps flow through the graph either in a framework
// default layout (NCHW / NHWC) or in the blocked NCHW[x]c layout that the convolution
// template consumes; convolution kernels are stored as OIHW or pre-transformed
// OIHW[x]i[y]o (the paper writes KCRS / KCRS[x]c[y]k for the same thing).
#ifndef NEOCPU_SRC_TENSOR_LAYOUT_H_
#define NEOCPU_SRC_TENSOR_LAYOUT_H_

#include <compare>
#include <cstdint>
#include <string>

namespace neocpu {

enum class LayoutKind {
  kNCHW,    // 4-D feature map, channels outermost-but-one
  kNHWC,    // 4-D feature map, channels innermost
  kNCHWc,   // 5-D blocked feature map: N, C/x, H, W, x
  kOIHW,    // 4-D convolution weight (paper: KCRS)
  kOIHWio,  // 6-D blocked weight: O/y, I/x, H, W, x, y (paper: KCRS[x]c[y]k)
  kFlat,    // 1-D / 2-D tensors (dense layers, detection outputs); blocking-free
};

struct Layout {
  LayoutKind kind = LayoutKind::kFlat;
  // Block (split) sizes; meaning depends on kind:
  //   kNCHWc:  c_block = x
  //   kOIHWio: i_block = x (input-channel block), o_block = y (output-channel block)
  std::int64_t c_block = 0;
  std::int64_t i_block = 0;
  std::int64_t o_block = 0;

  static Layout NCHW() { return {LayoutKind::kNCHW, 0, 0, 0}; }
  static Layout NHWC() { return {LayoutKind::kNHWC, 0, 0, 0}; }
  static Layout NCHWc(std::int64_t x) { return {LayoutKind::kNCHWc, x, 0, 0}; }
  static Layout OIHW() { return {LayoutKind::kOIHW, 0, 0, 0}; }
  static Layout OIHWio(std::int64_t x, std::int64_t y) { return {LayoutKind::kOIHWio, 0, x, y}; }
  static Layout Flat() { return {LayoutKind::kFlat, 0, 0, 0}; }

  bool operator==(const Layout& other) const = default;
  auto operator<=>(const Layout& other) const = default;

  bool IsBlockedFeatureMap() const { return kind == LayoutKind::kNCHWc; }

  // Human-readable form matching the paper's notation, e.g. "NCHW16c", "OIHW16i16o".
  std::string ToString() const;
};

}  // namespace neocpu

#endif  // NEOCPU_SRC_TENSOR_LAYOUT_H_
