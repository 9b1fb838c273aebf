// Dense tensor with shared, SIMD-aligned storage, a layout tag and an element dtype.
//
// Copies are shallow (reference the same buffer); use Clone() for a deep copy. The
// dimensions stored are the *physical* dimensions: an NCHW16c tensor of 64 channels has
// dims {N, 4, H, W, 16}. Elements default to fp32; the quantized inference path stores
// u8 activations, s8 weights and s32 bias constants in the same container (allocation
// and SizeBytes are elem-size-aware).
#ifndef NEOCPU_SRC_TENSOR_TENSOR_H_
#define NEOCPU_SRC_TENSOR_TENSOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/tensor/dtype.h"
#include "src/tensor/layout.h"

namespace neocpu {

// Process-wide count of owning tensor-buffer heap allocations (Tensor::Empty and its
// derivatives). Non-owning views (Tensor::FromExternal) do not count. The memory-planner
// tests use the delta across an Executor::Run to prove the steady state allocates
// nothing for intermediates or workspaces.
std::uint64_t TensorHeapAllocCount();

// Immutable, shareable dimension storage. Tensors hold their dims through this handle:
// copying a tensor (or building a view from a precomputed SharedDims — the memory
// planner caches one per node) bumps a refcount instead of allocating a vector, which
// keeps the planned execution path free of per-node dims mallocs.
using SharedDims = std::shared_ptr<const std::vector<std::int64_t>>;
SharedDims MakeSharedDims(std::vector<std::int64_t> dims);

class Tensor {
 public:
  Tensor() = default;

  static Tensor Empty(std::vector<std::int64_t> dims, Layout layout = Layout::Flat(),
                      DType dtype = DType::kF32);

  // Non-owning view over externally managed storage (an arena slice): the tensor reads
  // and writes `data` but never frees it. The caller guarantees `data` holds at least
  // product(dims) elements of `dtype`, SIMD-aligned, and outlives every copy of the view.
  static Tensor FromExternal(float* data, std::vector<std::int64_t> dims,
                             Layout layout = Layout::Flat(), DType dtype = DType::kF32);
  // Allocation-free variant: adopts caller-shared immutable dims (the planned executor
  // passes each node's precomputed SharedDims on every Run).
  static Tensor FromExternal(float* data, SharedDims dims, Layout layout = Layout::Flat(),
                             DType dtype = DType::kF32);
  static Tensor Zeros(std::vector<std::int64_t> dims, Layout layout = Layout::Flat(),
                      DType dtype = DType::kF32);
  static Tensor Full(std::vector<std::int64_t> dims, float value,
                     Layout layout = Layout::Flat());
  // Uniform values in [lo, hi), deterministic given the Rng state.
  static Tensor Random(std::vector<std::int64_t> dims, Rng& rng, float lo = -1.0f,
                       float hi = 1.0f, Layout layout = Layout::Flat());

  bool defined() const { return data_ != nullptr; }
  // Raw fp32 view of the storage. Kept un-checked for the byte-level callers
  // (serialization, arena-offset arithmetic); numeric code on non-f32 tensors should go
  // through the typed accessors below.
  float* data() { return data_.get(); }
  const float* data() const { return data_.get(); }

  DType dtype() const { return dtype_; }
  // Typed element access; dies when T does not match the tensor's dtype.
  template <typename T>
  T* data_as() {
    NEOCPU_CHECK(DTypeOf<T>() == dtype_)
        << "tensor holds " << DTypeName(dtype_) << " elements";
    return reinterpret_cast<T*>(data_.get());
  }
  template <typename T>
  const T* data_as() const {
    NEOCPU_CHECK(DTypeOf<T>() == dtype_)
        << "tensor holds " << DTypeName(dtype_) << " elements";
    return reinterpret_cast<const T*>(data_.get());
  }

  const std::vector<std::int64_t>& dims() const {
    static const std::vector<std::int64_t> kEmptyDims;
    return dims_ != nullptr ? *dims_ : kEmptyDims;
  }
  std::int64_t dim(int i) const { return dims()[static_cast<std::size_t>(i)]; }
  int ndim() const { return static_cast<int>(dims().size()); }
  std::int64_t NumElements() const;
  std::size_t SizeBytes() const {
    return static_cast<std::size_t>(NumElements()) * ElemSizeBytes(dtype_);
  }

  const Layout& layout() const { return layout_; }
  void set_layout(Layout layout) { layout_ = layout; }

  Tensor Clone() const;
  // Same buffer, different logical dims (element count must match).
  Tensor Reshaped(std::vector<std::int64_t> dims, Layout layout = Layout::Flat()) const;

  void FillZero();
  void Fill(float value);

  // Largest |a-b| across elements; both tensors must have equal element counts.
  static double MaxAbsDiff(const Tensor& a, const Tensor& b);
  // Largest |a-b| / (|a|+|b|+eps): scale-independent comparison for deep nets.
  static double MaxRelDiff(const Tensor& a, const Tensor& b, double eps = 1e-5);
  // Maximum "allclose" violation: max_i(|a_i - b_i| - (atol + rtol * |b_i|)). A value
  // <= 0 means every element is within tolerance (numpy.allclose semantics). This is
  // the right comparison for floating-point kernels whose summation order differs.
  static double AllCloseViolation(const Tensor& a, const Tensor& b, double rtol = 1e-3,
                                  double atol = 1e-3);

  std::string DebugString() const;

 private:
  // The DType a C++ element type maps to (compile-time; unknown types fail to link).
  template <typename T>
  static DType DTypeOf();

  std::shared_ptr<float[]> data_;
  SharedDims dims_;  // null means rank 0 (default-constructed tensor)
  Layout layout_;
  DType dtype_ = DType::kF32;
};

template <>
inline DType Tensor::DTypeOf<float>() {
  return DType::kF32;
}
template <>
inline DType Tensor::DTypeOf<std::int8_t>() {
  return DType::kS8;
}
template <>
inline DType Tensor::DTypeOf<std::uint8_t>() {
  return DType::kU8;
}
template <>
inline DType Tensor::DTypeOf<std::int32_t>() {
  return DType::kS32;
}

}  // namespace neocpu

#endif  // NEOCPU_SRC_TENSOR_TENSOR_H_
