// Shared precondition check for kernels: the caller-provided output (often a
// non-owning arena view placed by core/memory_plan) must be defined and carry
// exactly the physical dims and layout the kernel is about to write. One helper, one
// strictness level — a planner bug that produces a right-sized but wrong-layout view
// fails identically in every kernel.
#ifndef NEOCPU_SRC_TENSOR_TENSOR_CHECK_H_
#define NEOCPU_SRC_TENSOR_TENSOR_CHECK_H_

#include <cstdint>
#include <vector>

#include "src/base/logging.h"
#include "src/tensor/tensor.h"

namespace neocpu {

inline void CheckKernelOutput(const Tensor* out, const std::vector<std::int64_t>& dims,
                              const Layout& layout, const char* op) {
  NEOCPU_CHECK(out != nullptr && out->defined()) << op << ": undefined output tensor";
  NEOCPU_CHECK(out->dims() == dims)
      << op << ": output dims mismatch, got " << out->DebugString();
  NEOCPU_CHECK(out->layout() == layout)
      << op << ": output layout mismatch, got " << out->layout().ToString() << " want "
      << layout.ToString();
}

// The matching check on an input whose shape the kernel derives from its parameters
// (a conv's Conv2dParams and schedule) rather than reading it off the tensor.
inline void CheckKernelInput(const Tensor& in, const std::vector<std::int64_t>& dims,
                             const char* op) {
  NEOCPU_CHECK(in.dims() == dims) << op << ": input dims mismatch, got " << in.DebugString();
}

// A feature map read as NCHW[x]c, the one shape the layout-tolerant kernels and the
// layout transform walk: NCHW is NCHW[1]c and NHWC is NCHW[C]c. Element (i, c, y, z)
// sits at ((i * cb + c / x) * h * w + y * w + z) * x + c % x in every layout.
struct BlockedDims {
  std::int64_t n = 0, cb = 0, h = 0, w = 0, x = 1;
  Layout layout;  // NCHW (x == 1), NCHW[x]c, or NHWC (cb == 1)

  std::int64_t channels() const { return cb * x; }
  // Physical dims of this map with its plane replaced by oh x ow.
  std::vector<std::int64_t> Dims(std::int64_t oh, std::int64_t ow) const {
    switch (layout.kind) {
      case LayoutKind::kNCHWc:
        return {n, cb, oh, ow, x};
      case LayoutKind::kNHWC:
        return {n, oh, ow, x};
      default:
        return {n, cb, oh, ow};
    }
  }
  std::vector<std::int64_t> Dims() const { return Dims(h, w); }
};

// A 5-D tensor is NCHW[x]c; a 4-D one is NHWC when tagged so and NCHW otherwise.
inline BlockedDims BlockedDimsOf(const Tensor& t) {
  if (t.ndim() == 5) {
    return {t.dim(0), t.dim(1), t.dim(2), t.dim(3), t.dim(4), Layout::NCHWc(t.dim(4))};
  }
  NEOCPU_CHECK_EQ(t.ndim(), 4) << "expected a feature map, got " << t.DebugString();
  if (t.layout().kind == LayoutKind::kNHWC) {
    return {t.dim(0), 1, t.dim(1), t.dim(2), t.dim(3), Layout::NHWC()};
  }
  return {t.dim(0), t.dim(1), t.dim(2), t.dim(3), 1, Layout::NCHW()};
}

}  // namespace neocpu

#endif  // NEOCPU_SRC_TENSOR_TENSOR_CHECK_H_
