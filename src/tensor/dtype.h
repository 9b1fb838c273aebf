// Element data types for tensors.
//
// The fp32 pipeline is the paper's; the integer types carry the post-training-quantized
// inference path (IntelCaffe-style u8 activations, s8 weights, s32 accumulation,
// see PAPERS.md "Highly Efficient 8-bit Low Precision Inference of CNNs"). Enumerator
// values appear in serialized modules and tuning caches — append only.
#ifndef NEOCPU_SRC_TENSOR_DTYPE_H_
#define NEOCPU_SRC_TENSOR_DTYPE_H_

#include <cstddef>
#include <cstdint>

namespace neocpu {

enum class DType : std::uint8_t {
  kF32 = 0,  // IEEE single precision (the default everywhere)
  kS8 = 1,   // signed 8-bit: quantized weights (symmetric, per output channel)
  kU8 = 2,   // unsigned 8-bit: quantized activations (affine, with a zero point)
  kS32 = 3,  // signed 32-bit: int8-conv accumulators and quantized bias constants
};

inline constexpr std::size_t ElemSizeBytes(DType dtype) {
  switch (dtype) {
    case DType::kF32:
    case DType::kS32:
      return 4;
    case DType::kS8:
    case DType::kU8:
      return 1;
  }
  return 4;
}

const char* DTypeName(DType dtype);

}  // namespace neocpu

#endif  // NEOCPU_SRC_TENSOR_DTYPE_H_
