// Direct u8·s8 -> s32 convolution in the blocked NCHW[x]c layout.
//
// The int8 sibling of conv_nchwc.cc (Algorithm 1): the same disjoint-output-chunk
// parallelization and reg_n x oc_bn register blocking, with s32 accumulators and the
// quantization epilogue fused in — s32 bias, per-output-channel multiplier (in_scale *
// w_scale[oc] [/ out_scale]), an optional residual add (IntelCaffe's sum fusion), ReLU,
// and either a requantize store to u8 or a dequantize store to f32. Activations are u8
// with a zero point, weights are per-output-channel s8: IntelCaffe's format, the one
// vpdpbusd accelerates.
//
// Two ISA tiers: the portable baseline (plain loops + `omp simd`, the reference that
// parity tests and non-VNNI hosts run) and AVX-512 VNNI (one vpdpbusd per 4-channel
// group), compiled from the same body and picked at runtime via cpuid. Both produce
// identical integer results. The compiler offers int8 schedules only on a VNNI target
// unless quantization is forced.
#ifndef NEOCPU_SRC_KERNELS_CONV_NCHWC_INT8_H_
#define NEOCPU_SRC_KERNELS_CONV_NCHWC_INT8_H_

#include "src/kernels/conv_params.h"
#include "src/kernels/conv_schedule.h"
#include "src/runtime/thread_engine.h"
#include "src/tensor/tensor.h"

namespace neocpu {

// input:      u8 NCHW[ic_bn]c, dims {N, IC/ic_bn, IH, IW, ic_bn}; ic_bn % 4 == 0
// weight:     s8 OIHW[ic_bn]i[oc_bn]o, dims {OC/oc_bn, IC/ic_bn, KH, KW, ic_bn, oc_bn},
//             with the inner [ic_bn][oc_bn] tile VNNI-packed to [ic_bn/4][oc_bn][4]
//             (PackWeightsVnni)
// bias:       s32 flat {OC} (required iff epilogue.bias), pre-folded to the accumulation
//             domain with the zero-point correction -in_zero * sum(w[oc,...]) already
//             folded in (QuantizeOperands)
// multiplier: f32 flat {OC}: in_scale * w_scale[oc] / out_scale when requantizing,
//             in_scale * w_scale[oc] when dequantizing to f32 (QuantizeOperands)
// output:     preallocated NCHW[oc_bn]c: u8 when `requant` (stores add `out_zero`
//             before the 0..255 clamp), f32 otherwise
// residual:   required iff epilogue.residual_add (S8Residual)
// The epilogue computes (acc + bias) * multiplier + (residual - zero) * residual.mult in
// float, the f32 template's order, then applies epilogue.relu and stores; the requantize
// store rounds to nearest even. `in_zero` is the input's zero point: the kernel reads a
// virtual `in_zero` byte at padded positions (f32 zero == the zero point) so the
// whole-tap bias fold stays exact on borders.
struct S8Residual {
  // The output's dims and NCHW[oc_bn]c layout; u8 codes or f32.
  const Tensor* tensor = nullptr;
  // The residual's scale (1 for f32), divided by the output scale when requantizing.
  float mult = 1.0f;
  std::int32_t zero = 0;  // the u8 residual's zero point; 0 for f32
};

void ConvNCHWcS8(const Conv2dParams& params, const ConvSchedule& schedule,
                 const Tensor& input, const Tensor& weight, const Tensor* bias,
                 const Tensor& multiplier, const ConvEpilogue& epilogue, bool requant,
                 Tensor* output, ThreadEngine* engine = nullptr,
                 std::int32_t out_zero = 0, std::int32_t in_zero = 0,
                 const S8Residual& residual = {});

// Name of the ISA variant the dispatcher would run on this host ("baseline" or
// "avx512vnni") — surfaced by benches and tests.
const char* ConvNCHWcS8IsaName();

// Pin the int8 row-driver dispatch to a named tier the running CPU supports (parity
// tests and bench ablations). Returns false — and leaves the dispatch untouched — when
// the tier was not compiled in or the CPU lacks it. nullptr/"" restores auto dispatch.
// Not thread-safe against concurrent ConvNCHWcS8 calls.
bool SetConvNCHWcS8IsaOverride(const char* name);

}  // namespace neocpu

#endif  // NEOCPU_SRC_KERNELS_CONV_NCHWC_INT8_H_
