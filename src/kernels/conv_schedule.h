// The convolution schedule tuple of paper §3.3.1, extended with the algorithm choice.
//
//   (algo; ic_bn, oc_bn, reg_n, unroll_ker)
//
// ic_bn / oc_bn are the input/output channel split factors (the x and y in NCHW[x]c and
// OIHW[x]i[y]o), reg_n is the number of output-width elements accumulated in SIMD
// registers simultaneously (register blocking, Figure 1), and unroll_ker chooses whether
// the kernel-entry loop is unrolled.
//
// `algo` makes the convolution *algorithm* part of the searched schedule: the paper's
// named future work ("extending to other convolution computation algorithms such as
// Winograd and FFT") plus follow-up benchmarking (Galvez et al.) show the winner among
// direct / im2col / Winograd flips with the layer shape, so the choice is scored by the
// cost model and settled by the global search like any other schedule knob. The blocking
// fields are only meaningful for kDirectNCHWc; the NCHW-layout algorithms store zeros
// there so pair-keyed selection never confuses them with blocked schedules.
//
// A conv node's schedule is the only record of how it runs: lowering (AlterConvLayout)
// stores the chosen schedule on the node, under every layout mode, and the executor
// dispatches on its `algo` and `dtype`. An unlowered conv carries
// AlgoSchedule(kReference).
#ifndef NEOCPU_SRC_KERNELS_CONV_SCHEDULE_H_
#define NEOCPU_SRC_KERNELS_CONV_SCHEDULE_H_

#include <cstdint>
#include <string>

#include "src/tensor/dtype.h"

namespace neocpu {

// How a convolution is computed. Enumerator values are part of the serialized module
// and tuning-cache formats — append only.
enum class ConvAlgo : std::uint8_t {
  kDirectNCHWc = 0,  // Algorithm 1 template in NCHW[x]c (the paper's §3.1 kernel)
  kIm2col = 1,       // im2col + GEMM in NCHW (framework-default baseline)
  kWinograd = 2,     // F(2x2, 3x3) minimal filtering in NCHW; 3x3 s1 only
  kReference = 3,    // naive direct NCHW loop nest (correctness baseline)
};

const char* ConvAlgoName(ConvAlgo algo);

struct ConvSchedule {
  std::int64_t ic_bn = 16;
  std::int64_t oc_bn = 16;
  std::int64_t reg_n = 8;
  bool unroll_ker = true;
  ConvAlgo algo = ConvAlgo::kDirectNCHWc;
  // Execution dtype: kF32 runs the paper's fp32 pipeline, kU8 the quantized direct
  // NCHWc kernel (only valid with kDirectNCHWc): u8 activations with a zero point
  // against s8 weights, the IntelCaffe form vpdpbusd accelerates. The dtype is part of
  // the searched schedule — the global search weighs fp32-vs-u8 per conv against
  // quantize/dequantize boundary costs exactly like layout-transform costs.
  DType dtype = DType::kF32;

  bool operator==(const ConvSchedule&) const = default;

  bool IsDirect() const { return algo == ConvAlgo::kDirectNCHWc; }
  bool IsQuantized() const { return dtype == DType::kU8; }

  // Channel blocks of the layouts this schedule consumes/produces, as seen by the
  // global search's transform edges: kDirectNCHWc reads NCHW[ic_bn]c and writes
  // NCHW[oc_bn]c; every other algorithm reads and writes plain NCHW, encoded as block 0.
  std::int64_t InBlock() const { return IsDirect() ? ic_bn : 0; }
  std::int64_t OutBlock() const { return IsDirect() ? oc_bn : 0; }

  // Interface signatures for the global search's pairwise costs: block + dtype. Two
  // adjacent convs compose for free only when both the physical block AND the element
  // dtype agree; an fp32/u8 boundary costs a quantize or dequantize pass just like a
  // relayout costs a transform.
  std::int64_t InSig() const { return InBlock() | DtypeSigBit(); }
  std::int64_t OutSig() const { return OutBlock() | DtypeSigBit(); }

  std::string ToString() const;

  static constexpr std::int64_t kU8SigBit = std::int64_t{1} << 33;

 private:
  std::int64_t DtypeSigBit() const { return IsQuantized() ? kU8SigBit : 0; }
};

// Canonical schedule entry for a non-blocked algorithm (blocking fields zeroed).
ConvSchedule AlgoSchedule(ConvAlgo algo);

// Upper bounds accepted by the kernels (stack accumulator sizing).
inline constexpr std::int64_t kMaxRegN = 32;
inline constexpr std::int64_t kMaxChannelBlock = 64;

// Whether the NCHW[x]c templates (f32 and u8) are instantiated for the schedule's
// block shape: oc_bn in {4, 8, 16, 32, 64} and reg_n in {2, 4, 8, 16, 32}
// (SelectMicro). Both schedule spaces admit only these, and ConvNCHWc and ConvNCHWcS8
// reject any other block; ic_bn is a runtime loop bound and takes any factor.
inline bool IsTemplated(const ConvSchedule& s) {
  const std::int64_t o = s.oc_bn, r = s.reg_n;
  return (o == 4 || o == 8 || o == 16 || o == 32 || o == 64) &&
         (r == 2 || r == 4 || r == 8 || r == 16 || r == 32);
}

}  // namespace neocpu

#endif  // NEOCPU_SRC_KERNELS_CONV_SCHEDULE_H_
