// Implementation body of the u8·s8 NCHWc direct convolution, compiled once per ISA
// variant: the including translation unit defines NEOCPU_CONV_VARIANT_NS (a unique
// namespace, so multiple instantiations coexist without ODR collisions) and
// NEOCPU_S8_ROW_FN (the exported row-driver symbol), then includes this header.
//
// IMPORTANT: everything in the variant body is raw-pointer arithmetic on the POD
// argument block — no shared inline library functions — so a TU compiled with wider
// vector flags can never leak wide code into vague-linkage symbols another TU also
// emits. Threading stays in the baseline-compiled dispatcher (conv_nchwc_int8.cc),
// which calls the row driver through a function pointer.
#ifndef NEOCPU_SRC_KERNELS_CONV_NCHWC_INT8_IMPL_COMMON_
#define NEOCPU_SRC_KERNELS_CONV_NCHWC_INT8_IMPL_COMMON_

#include <cstdint>

#if defined(__AVX512VNNI__) && defined(__AVX512VL__)
#include <immintrin.h>
#endif

#include "src/kernels/conv_schedule.h"

namespace neocpu {
namespace detail {

// Resolved dims/strides plus the fused-epilogue description; plain data only.
struct S8ConvArgs {
  std::int64_t n, icb_count, ih, iw, icb;  // input physical dims
  std::int64_t ocb_count, oh, ow, ocb;     // output physical dims
  std::int64_t kh, kw, sh, sw, ph, pw;
  std::int64_t in_sn, in_sc, in_sh;  // input strides (innermost stride is icb)
  std::int64_t w_so, w_sc;           // weight strides per oc-block / ic-block
  std::int64_t out_sn, out_sc, out_sh;
  std::int64_t reg_n = 8;
  bool unroll_ker = true;
  std::int64_t ow_lo = 0, ow_hi = 0;  // interior out-width range (no horizontal checks)

  // u8 activations (the zero-point correction is pre-folded into `bias`, so the kernel
  // multiplies raw bytes) against VNNI-packed s8 weights: the inner [ici][ocb] tile is
  // reordered to [ici/4][ocb][4] so one vpdpbusd lane reads 4 consecutive ici
  // weights. Both tiers read this layout (the portable one just indexes it), which
  // keeps their accumulators bitwise identical. Requires icb % 4 == 0.
  const std::uint8_t* in = nullptr;
  const std::int8_t* w = nullptr;
  const std::int32_t* bias = nullptr;  // null when no bias epilogue
  const float* mult = nullptr;         // per-output-channel epilogue multiplier, {OC}
  bool relu = false;
  bool requant = false;  // true: out is u8; false: out is f32
  // Input zero point. The bias fold subtracts in_zero * sum(w) over ALL kernel taps,
  // so the micro-kernels read a virtual `in_zero` byte at padded positions (an f32
  // zero quantizes to the zero point).
  std::int32_t in_zero = 0;
  // One virtual input column of `in_zero` bytes: what every padded position reads.
  std::uint8_t pad_col[kMaxChannelBlock] = {};
  std::int32_t out_zero = 0;  // output zero point (requant only)
  void* out = nullptr;
  // What a bias-free epilogue adds: zeros, so the store loop never branches on bias.
  std::int32_t zero_bias[kMaxChannelBlock] = {};
  // Fused residual add, laid out like `out` (null when none): u8 codes or f32. The
  // epilogue adds (res - res_zero) * res_mult; res_zero is 0 for f32.
  const void* res = nullptr;
  bool res_u8 = false;
  float res_mult = 1.0f;
  std::int32_t res_zero = 0;
};

using S8RowFn = void (*)(const S8ConvArgs&, std::int64_t row);

}  // namespace detail
}  // namespace neocpu

#endif  // NEOCPU_SRC_KERNELS_CONV_NCHWC_INT8_IMPL_COMMON_

#include "src/kernels/conv_nchwc_micro.h"

namespace neocpu {
namespace detail {
namespace NEOCPU_CONV_VARIANT_NS {

// The u8·s8 micro-kernel (IntelCaffe's form): REGN consecutive out-width positions of
// one (n, oc_block, oh) row into `out_acc`, in the interior and the guarded
// instantiation (Columns, conv_nchwc_micro.h). The guarded form reads the zero-point
// column `a.pad_col` wherever a column falls outside [0, iw) — exactly what a padded
// position contributes — so both forms run the same vector loop and produce the same
// exact integer sums. A u8*s8 product reaches 255*127 =
// 32385, so two of them overflow an s16 pair sum — the IntelCaffe s16-overflow
// hazard. The portable tier therefore accumulates every 4-product group directly in
// s32 (exact, no saturation); the AVX-512 VNNI tier lowers the identical 4-wide group
// to one vpdpbusd, whose internal s16 products and s32 horizontal add are also exact —
// so both tiers produce bitwise-identical accumulators.
//
// Weights are VNNI-packed per (ic_block, kh, kw) tile: [ici/4][ocb][4]; icb % 4 == 0.
// A padded row reads the zero-point column too, unless the zero point is 0.
template <int OCB, int REGN, bool UNROLL, bool GUARD>
struct U8Micro {
  static void Run(const S8ConvArgs& a, const std::uint8_t* __restrict u_n,
                  const std::int8_t* __restrict w_o, std::int64_t oh, std::int64_t ow0,
                  std::int32_t* __restrict out_acc);
};

template <int OCB, int REGN, bool UNROLL, bool GUARD>
void U8Micro<OCB, REGN, UNROLL, GUARD>::Run(const S8ConvArgs& a,
                                            const std::uint8_t* __restrict u_n,
                                            const std::int8_t* __restrict w_o,
                                            std::int64_t oh, std::int64_t ow0,
                                            std::int32_t* __restrict out_acc) {
  const std::int64_t iw0 = ow0 * a.sw - a.pw;
  const std::int64_t icb = a.icb;
  const std::int64_t w_kstride = icb * OCB;

#if defined(__AVX512VNNI__) && defined(__AVX512VL__)
  if constexpr (OCB % 16 == 0) {
    constexpr int OCV = OCB / 16;
    __m512i acc[REGN][OCV];
    for (int r = 0; r < REGN; ++r) {
      for (int v = 0; v < OCV; ++v) {
        acc[r][v] = _mm512_setzero_si512();
      }
    }
    for (std::int64_t ico = 0; ico < a.icb_count; ++ico) {
      const std::uint8_t* in_c = u_n + ico * a.in_sc;
      const std::int8_t* w_c = w_o + ico * a.w_sc;
      for (std::int64_t kh = 0; kh < a.kh; ++kh) {
        const std::int64_t ih = oh * a.sh - a.ph + kh;
        const bool pad_row = ih < 0 || ih >= a.ih;
        if (pad_row && a.in_zero == 0) {
          continue;  // a zero-point of 0 makes virtual padding contribute nothing
        }
        const std::uint8_t* in_row = pad_row ? nullptr : in_c + ih * a.in_sh;
        const std::int8_t* w_h = w_c + kh * a.kw * w_kstride;
        for (std::int64_t kw = 0; kw < a.kw; ++kw) {
          const std::int8_t* __restrict w_k = w_h + kw * w_kstride;
          const Columns<std::uint8_t, REGN, GUARD> cols(in_row, iw0 + kw, a.iw, icb, a.sw,
                                                        a.pad_col);
          for (std::int64_t ici = 0; ici < icb; ici += 4) {
            // One [ocb][4] weight tile = OCV contiguous 64-byte vectors.
            const std::int8_t* __restrict wt = w_k + ici * OCB;
            __m512i b[OCV];
            for (int v = 0; v < OCV; ++v) {
              b[v] = _mm512_loadu_si512(wt + v * 64);
            }
#pragma GCC unroll 32
            for (int r = 0; r < REGN; ++r) {
              std::uint32_t quad;
              __builtin_memcpy(&quad, cols[r] + ici, 4);
              const __m512i av = _mm512_set1_epi32(static_cast<int>(quad));
              for (int v = 0; v < OCV; ++v) {
                acc[r][v] = _mm512_dpbusd_epi32(acc[r][v], av, b[v]);
              }
            }
          }
        }
      }
    }
    for (int r = 0; r < REGN; ++r) {
      for (int v = 0; v < OCV; ++v) {
        _mm512_storeu_si512(out_acc + r * OCB + v * 16, acc[r][v]);
      }
    }
    return;
  }
#endif  // __AVX512VNNI__ && __AVX512VL__

  std::int32_t acc[REGN][OCB];
  for (int r = 0; r < REGN; ++r) {
#pragma omp simd
    for (int j = 0; j < OCB; ++j) {
      acc[r][j] = 0;
    }
  }
  for (std::int64_t ico = 0; ico < a.icb_count; ++ico) {
    const std::uint8_t* in_c = u_n + ico * a.in_sc;
    const std::int8_t* w_c = w_o + ico * a.w_sc;
    for (std::int64_t kh = 0; kh < a.kh; ++kh) {
      const std::int64_t ih = oh * a.sh - a.ph + kh;
      const bool pad_row = ih < 0 || ih >= a.ih;
      if (pad_row && a.in_zero == 0) {
        continue;
      }
      const std::uint8_t* in_row = pad_row ? nullptr : in_c + ih * a.in_sh;
      const std::int8_t* w_h = w_c + kh * a.kw * w_kstride;
      auto kw_body = [&](std::int64_t kw) {
        const std::int8_t* __restrict w_k = w_h + kw * w_kstride;
        const Columns<std::uint8_t, REGN, GUARD> cols(in_row, iw0 + kw, a.iw, icb, a.sw,
                                                        a.pad_col);
        for (std::int64_t ici = 0; ici < icb; ici += 4) {
          const std::int8_t* __restrict wt = w_k + ici * OCB;
#pragma GCC unroll 32
          for (int r = 0; r < REGN; ++r) {
            const std::uint8_t* __restrict in_w = cols[r] + ici;
            const std::int32_t iv0 = in_w[0];
            const std::int32_t iv1 = in_w[1];
            const std::int32_t iv2 = in_w[2];
            const std::int32_t iv3 = in_w[3];
#pragma omp simd
            for (int j = 0; j < OCB; ++j) {
              acc[r][j] += iv0 * wt[j * 4] + iv1 * wt[j * 4 + 1] +
                           iv2 * wt[j * 4 + 2] + iv3 * wt[j * 4 + 3];
            }
          }
        }
      };
      if constexpr (UNROLL) {
#pragma GCC unroll 8
        for (std::int64_t kw = 0; kw < a.kw; ++kw) {
          kw_body(kw);
        }
      } else {
#pragma GCC unroll 1
        for (std::int64_t kw = 0; kw < a.kw; ++kw) {
          kw_body(kw);
        }
      }
    }
  }
  for (int r = 0; r < REGN; ++r) {
#pragma omp simd
    for (int j = 0; j < OCB; ++j) {
      out_acc[r * OCB + j] = acc[r][j];
    }
  }
}

// Epilogue for `count` positions starting at ow0, in the f32 template's order: bias,
// per-channel scale, residual add, ReLU, then a requantize store to u8 (offset by the
// output zero point) or an f32 store. RES is the residual kind: 0 none, 1 u8 codes,
// 2 f32. The loops over the channel block are branch-free so they vectorize; rounding is
// rint (nearest even, like lrintf) with the clamp to 0..255 done in float, which
// saturates values beyond the s32 range. The owning TUs build with -ffp-contract=off,
// so no tier fuses the multiply-adds and both tiers round identically.
template <int RES, bool REQUANT>
void StoreSegmentAs(const S8ConvArgs& a, const std::int32_t* __restrict acc,
                    const std::int32_t* __restrict bias_o, const float* __restrict mult_o,
                    const void* res_row, void* out_row, std::int64_t ow0,
                    std::int64_t count) {
  const std::int64_t ocb = a.ocb;
  const float lo = a.relu ? 0.0f : -__builtin_inff();
  const float res_mult = a.res_mult;
  const std::int32_t res_zero = a.res_zero;
  const float out_zero = static_cast<float>(a.out_zero);
  for (std::int64_t r = 0; r < count; ++r) {
    const std::int64_t at = (ow0 + r) * ocb;
    const std::int32_t* __restrict acc_r = acc + r * ocb;
#pragma omp simd
    for (std::int64_t j = 0; j < ocb; ++j) {
      float v = static_cast<float>(acc_r[j] + bias_o[j]) * mult_o[j];
      if constexpr (RES == 1) {
        const std::int32_t code = static_cast<const std::uint8_t*>(res_row)[at + j];
        v += static_cast<float>(code - res_zero) * res_mult;
      } else if constexpr (RES == 2) {
        v += static_cast<const float*>(res_row)[at + j] * res_mult;
      }
      v = v < lo ? lo : v;
      if constexpr (REQUANT) {
        float q = __builtin_rintf(v) + out_zero;
        q = q < 0.0f ? 0.0f : (q > 255.0f ? 255.0f : q);
        static_cast<std::uint8_t*>(out_row)[at + j] =
            static_cast<std::uint8_t>(static_cast<std::int32_t>(q));
      } else {
        static_cast<float*>(out_row)[at + j] = v;
      }
    }
  }
}

template <int RES>
void StoreSegmentRes(const S8ConvArgs& a, const std::int32_t* acc,
                     const std::int32_t* bias_o, const float* mult_o, const void* res_row,
                     void* out_row, std::int64_t ow0, std::int64_t count) {
  if (a.requant) {
    StoreSegmentAs<RES, true>(a, acc, bias_o, mult_o, res_row, out_row, ow0, count);
  } else {
    StoreSegmentAs<RES, false>(a, acc, bias_o, mult_o, res_row, out_row, ow0, count);
  }
}

inline void StoreSegment(const S8ConvArgs& a, const std::int32_t* acc,
                         const std::int32_t* bias_o, const float* mult_o,
                         const void* res_row, void* out_row, std::int64_t ow0,
                         std::int64_t count) {
  if (res_row == nullptr) {
    StoreSegmentRes<0>(a, acc, bias_o, mult_o, res_row, out_row, ow0, count);
  } else if (a.res_u8) {
    StoreSegmentRes<1>(a, acc, bias_o, mult_o, res_row, out_row, ow0, count);
  } else {
    StoreSegmentRes<2>(a, acc, bias_o, mult_o, res_row, out_row, ow0, count);
  }
}

}  // namespace NEOCPU_CONV_VARIANT_NS

// Row driver: one (n, oc_block, oh) output row in reg_n register blocks from ow = 0,
// exported per ISA variant and invoked by the dispatcher's ParallelFor. A block whose
// columns all lie inside [ow_lo, ow_hi) runs the interior instantiation, any other the
// guarded one; the last block computes a full reg_n and stores only the positions
// below ow.
void NEOCPU_S8_ROW_FN(const S8ConvArgs& a, std::int64_t row) {
  namespace v = NEOCPU_CONV_VARIANT_NS;
  const std::int64_t oh = row % a.oh;
  const std::int64_t rest = row / a.oh;
  const std::int64_t oco = rest % a.ocb_count;
  const std::int64_t n = rest / a.ocb_count;

  const std::uint8_t* in_n = a.in + n * a.in_sn;
  const std::int8_t* w_o = a.w + oco * a.w_so;
  const std::int32_t* bias_o = a.bias != nullptr ? a.bias + oco * a.ocb : a.zero_bias;
  const float* mult_o = a.mult + oco * a.ocb;
  const std::int64_t out_off = n * a.out_sn + oco * a.out_sc + oh * a.out_sh;
  void* out_row = a.requant
                      ? static_cast<void*>(static_cast<std::uint8_t*>(a.out) + out_off)
                      : static_cast<void*>(static_cast<float*>(a.out) + out_off);
  const void* res_row =
      a.res == nullptr ? nullptr
      : a.res_u8       ? static_cast<const void*>(static_cast<const std::uint8_t*>(a.res) +
                                                  out_off)
                       : static_cast<const void*>(static_cast<const float*>(a.res) + out_off);

  std::int32_t acc[kMaxRegN * kMaxChannelBlock];
  const v::MicroPair<v::U8Micro> micro =
      v::SelectMicro<v::U8Micro>(a.ocb, a.reg_n, a.unroll_ker);
  for (std::int64_t ow = 0; ow < a.ow; ow += a.reg_n) {
    const bool interior = ow >= a.ow_lo && ow + a.reg_n <= a.ow_hi;
    (interior ? micro.interior : micro.guarded)(a, in_n, w_o, oh, ow, acc);
    v::StoreSegment(a, acc, bias_o, mult_o, res_row, out_row, ow,
                    a.reg_n < a.ow - ow ? a.reg_n : a.ow - ow);
  }
}

}  // namespace detail
}  // namespace neocpu
