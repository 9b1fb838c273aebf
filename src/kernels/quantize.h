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
#include <vector>

#include "src/runtime/thread_engine.h"
#include "src/tensor/tensor.h"

namespace neocpu {

// Quantized s8 weights cover [-127, 127]: the symmetric +/-127 range makes
// scale * 127 == max|w| exactly round-trip the range endpoints.
inline constexpr std::int32_t kS8QuantMax = 127;

// Affine u8 parameters covering [lo, hi]: scale = (hi - lo) / 255 (floored away from
// zero so a degenerate all-zero range stays invertible), zero_point = round(-lo /
// scale) clamped to [0, 255]. The range is first widened to include 0 so the zero
// point is exactly representable (a quantized zero that round-trips is what lets ReLU
// and zero padding stay exact in u8).
void AffineScaleZeroPoint(float lo, float hi, float* scale, std::int32_t* zero_point);

// f32 -> u8: q = clamp(round(x / scale) + zero_point, 0, 255). Rounding is lrintf
// (round-to-nearest-even, the hardware cvtps2dq mode).
void Quantize(const Tensor& input, float scale, std::int32_t zero_point, Tensor* out,
              ThreadEngine* engine = nullptr);

// u8 -> f32: x = scale * (q - zero_point).
void Dequantize(const Tensor& input, float scale, std::int32_t zero_point, Tensor* out,
                ThreadEngine* engine = nullptr);

// Per-output-channel symmetric weight quantization: OIHW f32 -> OIHW s8 plus one scale
// per output channel (scales[o] = max|w[o,...]| / 127). Also accepts a dense layer's
// {Out, In} weight (per-row scales).
void QuantizeConvWeightsPerOC(const Tensor& w_oihw, Tensor* w_s8,
                              std::vector<float>* scales);

// Bias fold into the conv's s32 accumulation domain:
//   b_s32[oc] = round(b_f32[oc] / (in_scale * w_scales[oc])).
Tensor QuantizeBiasS32(const Tensor& bias_f32, float in_scale,
                       const std::vector<float>& w_scales);

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
// Takes the blocked weights in standard tile order — call before PackWeightsVnni.
void FoldZeroPointIntoBias(const Tensor& w_blocked_s8, std::int32_t in_zero,
                           Tensor* bias_s32);

}  // namespace neocpu

#endif  // NEOCPU_SRC_KERNELS_QUANTIZE_H_
