// Implementation body of the u8·s8 NCHWc direct convolution, compiled once per ISA
// variant: the including translation unit defines NEOCPU_S8_VARIANT_NS (a unique
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

#include <cmath>
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
};

using S8RowFn = void (*)(const S8ConvArgs&, std::int64_t row);

}  // namespace detail
}  // namespace neocpu

#endif  // NEOCPU_SRC_KERNELS_CONV_NCHWC_INT8_IMPL_COMMON_

namespace neocpu {
namespace detail {
namespace NEOCPU_S8_VARIANT_NS {

// Every micro-kernel below computes REGN consecutive out-width positions of one
// (n, oc_block, oh) row into `out_acc`, in two instantiations per block shape: the
// interior one (GUARD = false) for register blocks whose input columns all lie inside
// [0, iw), and the guarded one for image edges and out-width tails. The guarded form
// reads the zero-point column `a.pad_col` wherever a column falls outside [0, iw) —
// exactly what a padded position contributes — so both forms run the same vector loop
// and produce the same exact integer sums.

// Input columns of the REGN positions at one kernel tap, starting at column
// `iw_first`. The interior form is one strided pointer; the guarded form resolves each
// column once per tap, keeping the MAC loops branch-free. A padded row (`row` null)
// reads the zero-point column at every position in both forms.
template <int REGN, bool GUARD>
class Columns {
 public:
  Columns(const S8ConvArgs& a, const std::uint8_t* row, std::int64_t iw_first) {
    const std::uint8_t* pad = a.pad_col;
    if constexpr (GUARD) {
      for (int r = 0; r < REGN; ++r) {
        const std::int64_t iw = iw_first + r * a.sw;
        col_[r] = row != nullptr && iw >= 0 && iw < a.iw ? row + iw * a.icb : pad;
      }
    } else {
      base_ = row != nullptr ? row + iw_first * a.icb : pad;
      step_ = row != nullptr ? a.sw * a.icb : 0;
    }
  }

  const std::uint8_t* operator[](int r) const {
    if constexpr (GUARD) {
      return col_[r];
    } else {
      return base_ + r * step_;
    }
  }

 private:
  const std::uint8_t* col_[GUARD ? REGN : 1];
  const std::uint8_t* base_ = nullptr;
  std::int64_t step_ = 0;
};

// The u8·s8 micro-kernel (IntelCaffe's form). A u8*s8 product reaches 255*127 =
// 32385, so two of them overflow an s16 pair sum — the IntelCaffe s16-overflow
// hazard. The portable tier therefore accumulates every 4-product group directly in
// s32 (exact, no saturation); the AVX-512 VNNI tier lowers the identical 4-wide group
// to one vpdpbusd, whose internal s16 products and s32 horizontal add are also exact —
// so both tiers produce bitwise-identical accumulators.
//
// Weights are VNNI-packed per (ic_block, kh, kw) tile: [ici/4][ocb][4]; icb % 4 == 0.
// A padded row reads the zero-point column too, unless the zero point is 0.
template <int OCB, int REGN, bool UNROLL, bool GUARD>
void MicroInteriorU8(const S8ConvArgs& a, const std::uint8_t* __restrict u_n,
                     const std::int8_t* __restrict w_o, std::int64_t oh,
                     std::int64_t ow0, std::int32_t* __restrict out_acc) {
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
          const Columns<REGN, GUARD> cols(a, in_row, iw0 + kw);
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
        const Columns<REGN, GUARD> cols(a, in_row, iw0 + kw);
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

// Epilogue for `count` positions starting at ow0: bias add, integer ReLU, per-channel
// scale, store to u8 (requant, offset by the output zero point) or f32 (dequant).
inline void StoreSegment(const S8ConvArgs& a, const std::int32_t* acc,
                         const std::int32_t* bias_o, const float* mult_o, void* out_row,
                         std::int64_t ow0, std::int64_t count) {
  const std::int64_t ocb = a.ocb;
  for (std::int64_t r = 0; r < count; ++r) {
    for (std::int64_t j = 0; j < ocb; ++j) {
      std::int32_t v = acc[r * ocb + j];
      if (bias_o != nullptr) {
        v += bias_o[j];
      }
      if (a.relu && v < 0) {
        v = 0;
      }
      const float scaled = static_cast<float>(v) * mult_o[j];
      const std::int64_t at = (ow0 + r) * ocb + j;
      if (a.requant) {
        std::int32_t q = static_cast<std::int32_t>(std::lrintf(scaled)) + a.out_zero;
        q = q > 255 ? 255 : (q < 0 ? 0 : q);
        static_cast<std::uint8_t*>(out_row)[at] = static_cast<std::uint8_t>(q);
      } else {
        static_cast<float*>(out_row)[at] = scaled;
      }
    }
  }
}

using MicroFn = void (*)(const S8ConvArgs&, const std::uint8_t* __restrict,
                         const std::int8_t* __restrict, std::int64_t, std::int64_t,
                         std::int32_t* __restrict);

// The interior and guarded instantiations of one block shape.
struct MicroPair {
  MicroFn interior = nullptr;
  MicroFn guarded = nullptr;
};

template <int OCB, int REGN, bool UNROLL>
MicroPair PairOf() {
  return {&MicroInteriorU8<OCB, REGN, UNROLL, false>,
          &MicroInteriorU8<OCB, REGN, UNROLL, true>};
}

template <int OCB, bool UNROLL>
MicroPair SelectByRegN(std::int64_t reg_n) {
  switch (reg_n) {
    case 2:
      return PairOf<OCB, 2, UNROLL>();
    case 4:
      return PairOf<OCB, 4, UNROLL>();
    case 8:
      return PairOf<OCB, 8, UNROLL>();
    case 16:
      return PairOf<OCB, 16, UNROLL>();
    case 32:
      return PairOf<OCB, 32, UNROLL>();
    default:
      return {};
  }
}

template <int OCB>
MicroPair SelectByUnroll(std::int64_t reg_n, bool unroll) {
  return unroll ? SelectByRegN<OCB, true>(reg_n) : SelectByRegN<OCB, false>(reg_n);
}

// Block shapes the dispatcher admits (IsInt8Templated).
inline MicroPair SelectMicro(std::int64_t ocb, std::int64_t reg_n, bool unroll) {
  switch (ocb) {
    case 4:
      return SelectByUnroll<4>(reg_n, unroll);
    case 8:
      return SelectByUnroll<8>(reg_n, unroll);
    case 16:
      return SelectByUnroll<16>(reg_n, unroll);
    case 32:
      return SelectByUnroll<32>(reg_n, unroll);
    case 64:
      return SelectByUnroll<64>(reg_n, unroll);
    default:
      return {};
  }
}

}  // namespace NEOCPU_S8_VARIANT_NS

// Row driver: one (n, oc_block, oh) output row in reg_n register blocks from ow = 0,
// exported per ISA variant and invoked by the dispatcher's ParallelFor. A block whose
// columns all lie inside [ow_lo, ow_hi) runs the interior instantiation, any other the
// guarded one; the last block computes a full reg_n and stores only the positions
// below ow.
void NEOCPU_S8_ROW_FN(const S8ConvArgs& a, std::int64_t row) {
  namespace v = NEOCPU_S8_VARIANT_NS;
  const std::int64_t oh = row % a.oh;
  const std::int64_t rest = row / a.oh;
  const std::int64_t oco = rest % a.ocb_count;
  const std::int64_t n = rest / a.ocb_count;

  const std::uint8_t* in_n = a.in + n * a.in_sn;
  const std::int8_t* w_o = a.w + oco * a.w_so;
  const std::int32_t* bias_o = a.bias != nullptr ? a.bias + oco * a.ocb : nullptr;
  const float* mult_o = a.mult + oco * a.ocb;
  const std::int64_t out_off = n * a.out_sn + oco * a.out_sc + oh * a.out_sh;
  void* out_row = a.requant
                      ? static_cast<void*>(static_cast<std::uint8_t*>(a.out) + out_off)
                      : static_cast<void*>(static_cast<float*>(a.out) + out_off);

  std::int32_t acc[kMaxRegN * kMaxChannelBlock];
  const v::MicroPair micro = v::SelectMicro(a.ocb, a.reg_n, a.unroll_ker);
  for (std::int64_t ow = 0; ow < a.ow; ow += a.reg_n) {
    const bool interior = ow >= a.ow_lo && ow + a.reg_n <= a.ow_hi;
    (interior ? micro.interior : micro.guarded)(a, in_n, w_o, oh, ow, acc);
    v::StoreSegment(a, acc, bias_o, mult_o, out_row, ow,
                    a.reg_n < a.ow - ow ? a.reg_n : a.ow - ow);
  }
}

}  // namespace detail
}  // namespace neocpu
