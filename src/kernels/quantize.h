// Quantization kernels and scale helpers for the int8 inference path.
//
// Convention (IntelCaffe, PAPERS.md "Highly Efficient 8-bit Low Precision Inference"):
// activations are per-tensor affine u8 with a zero point; weights are per-output-
// channel symmetric s8; bias constants fold to s32 in the conv's accumulation domain
// (with the zero-point correction folded in); the per-channel (de)requantization
// multiplier fuses into the conv epilogue (conv_nchwc_int8).
#ifndef NEOCPU_SRC_KERNELS_QUANTIZE_H_
#define NEOCPU_SRC_KERNELS_QUANTIZE_H_

#include <cstdint>

#include "src/runtime/thread_engine.h"
#include "src/tensor/tensor.h"

namespace neocpu {

// Quantized s8 weights cover [-127, 127]: the symmetric +/-127 range makes
// scale * 127 == max|w| exactly round-trip the range endpoints.
inline constexpr std::int32_t kS8QuantMax = 127;

// round(v) + zero, clamped to [lo, hi]: the store every quantizing kernel makes.
// Rounds to nearest even (like lrintf) and clamps in float; values beyond the s32 range
// saturate instead of wrapping. Loops over it vectorize even at the portable ISA, which
// has no vector rint: the clamp comes first, to the integer bounds shifted by the zero
// point (the same result, as rounding is monotonic), so |v| < 2^22 for every u8/s8
// store, and adding and then subtracting 1.5 * 2^23 leaves v rounded to nearest even.
// The two compares are separate statements, each executed on every element, because a
// nested select would make the second one conditional, which blocks if-conversion.
inline std::int32_t RoundClamp(float v, std::int32_t zero, float lo, float hi) {
  constexpr float kRounder = 12582912.0f;  // 1.5 * 2^23
  const float z = static_cast<float>(zero);
  v = v < lo - z ? lo - z : v;
  v = v > hi - z ? hi - z : v;
  return static_cast<std::int32_t>((v + kRounder) - kRounder + z);
}

// Affine u8 parameters covering [lo, hi]: scale = (hi - lo) / 255 (floored away from
// zero so a degenerate all-zero range stays invertible), zero_point = round(-lo /
// scale) clamped to [0, 255]. The range is first widened to include 0 so the zero
// point is exactly representable (a quantized zero that round-trips is what lets ReLU
// and zero padding stay exact in u8).
void AffineScaleZeroPoint(float lo, float hi, float* scale, std::int32_t* zero_point);

// f32 -> u8: q = clamp(round(x / scale) + zero_point, 0, 255) (RoundClamp), into an
// output of the input's dims and layout. An NCHW input quantizes into an NCHW[x]c
// output too (x % 4 == 0, like every u8 conv's ic_bn): the image's one pass in a
// quantized graph, which writes the blocks its conv reads, {N, ceil(C/x), H, W, x},
// with the channels past C (the quad padding of a 3-channel image) at the zero point.
void Quantize(const Tensor& input, float scale, std::int32_t zero_point, Tensor* out,
              ThreadEngine* engine = nullptr);

// u8 -> f32: x = scale * (q - zero_point).
void Dequantize(const Tensor& input, float scale, std::int32_t zero_point, Tensor* out,
                ThreadEngine* engine = nullptr);

// The quantized operands of one u8 conv or dense layer (IntelCaffe's fold, PAPERS.md):
//   weight: the f32 weight (OIHW, or a dense layer's {Out, In}) quantized per output
//           channel to symmetric s8 in the same order, scale[o] = max|w[o,...]| / 127;
//   bias:   the s32 bias in the accumulation domain with the zero-point correction,
//           round(b[o] / (in_scale * scale[o])) - in_zero * sum(weight[o, ...]);
//           zeros when `bias_f32` is null and in_zero != 0, undefined when neither;
//   mult:   the epilogue's f32 multiplier in_scale * scale[o] / out_scale (pass 1 for
//           an epilogue that dequantizes instead of requantizing).
struct QuantizedOperands {
  Tensor weight;
  Tensor bias;
  Tensor mult;
};
QuantizedOperands QuantizeOperands(const Tensor& w_f32, const Tensor* bias_f32,
                                   float in_scale, std::int32_t in_zero, float out_scale);

// VNNI weight packing for u8-activation convs: reorders each blocked weight tile's
// inner [ic_bn][oc_bn] layout (OIHW[ic_bn]i[oc_bn]o, dims {OCB, ICB, KH, KW, ic_bn,
// oc_bn}) to [ic_bn/4][oc_bn][4] so the 4 input-channel weights one vpdpbusd lane
// consumes are byte-adjacent. Dims are unchanged (same element count per tile); only
// the intra-tile order moves. Requires ic_bn % 4 == 0.
Tensor PackWeightsVnni(const Tensor& w_blocked_s8);

// Zero-point bias correction for u8 activations, applied IN PLACE to the s32 bias:
//   bias[oc] -= in_zero * sum over (ic, kh, kw) of w_s8[oc, ...].
// With q_u8 = x/scale + zp, the raw u8 dot product overshoots the true integer
// accumulation by zp * sum(w); folding the constant here keeps the kernel branch-free.
// Takes the unblocked weight (OIHW or {Out, In}): each output channel is one row.
void FoldZeroPointIntoBias(const Tensor& w_s8, std::int32_t in_zero, Tensor* bias_s32);

}  // namespace neocpu

#endif  // NEOCPU_SRC_KERNELS_QUANTIZE_H_
