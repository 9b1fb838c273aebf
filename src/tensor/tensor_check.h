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

}  // namespace neocpu

#endif  // NEOCPU_SRC_TENSOR_TENSOR_CHECK_H_
