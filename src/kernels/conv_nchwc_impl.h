// Implementation body of the fp32 NCHW[x]c direct convolution (Algorithm 1), compiled
// once per ISA variant: the including translation unit defines NEOCPU_CONV_VARIANT_NS
// (a unique namespace, so multiple instantiations coexist without ODR collisions) and
// NEOCPU_CONV_ROWS_FN (the exported row-driver symbol), then includes this header.
// Retargeting the §3.1 template to a wider ISA is exactly this: the same C++ body
// compiled under wider vector flags, picked at runtime by the baseline dispatcher.
//
// IMPORTANT: everything in the variant body is raw-pointer arithmetic on the POD
// argument block — no shared inline library functions (not even std::min) — so a TU
// compiled with wider vector flags can never leak wide code into vague-linkage symbols
// another TU also emits. Threading stays in the baseline-compiled dispatcher
// (conv_nchwc.cc), which calls the row driver through a function pointer.
#ifndef NEOCPU_SRC_KERNELS_CONV_NCHWC_IMPL_COMMON_
#define NEOCPU_SRC_KERNELS_CONV_NCHWC_IMPL_COMMON_

#include <cstdint>

#include "src/kernels/conv_schedule.h"

namespace neocpu {
namespace detail {

// Resolved dimensions, element strides, blocking and fused epilogue; plain data only.
struct F32ConvArgs {
  std::int64_t n, icb_count, ih, iw, icb;  // input physical dims
  std::int64_t ocb_count, oh, ow, ocb;     // output physical dims
  std::int64_t kh, kw, sh, sw, ph, pw;
  std::int64_t in_sn, in_sc, in_sh;    // input strides (innermost stride is icb)
  std::int64_t w_so, w_sc;             // weight strides per oc-block / ic-block
  std::int64_t out_sn, out_sc, out_sh; // output strides (innermost stride is ocb)
  std::int64_t reg_n = 8;
  bool unroll_ker = true;
  std::int64_t ow_lo = 0, ow_hi = 0;  // interior out-width range (no horizontal checks)
  // The zero column every padded position reads (guarded blocks).
  float pad_col[kMaxChannelBlock] = {};

  const float* in = nullptr;
  const float* w = nullptr;
  const float* bias = nullptr;  // flat {OC}; null when no bias epilogue
  const float* res = nullptr;   // output-shaped residual; null when no residual add
  bool relu = false;
  float* out = nullptr;
};

// Computes output rows [begin, end) of the (n, oc_block, oh) row space.
using F32RowsFn = void (*)(const F32ConvArgs&, std::int64_t begin, std::int64_t end);

}  // namespace detail
}  // namespace neocpu

#endif  // NEOCPU_SRC_KERNELS_CONV_NCHWC_IMPL_COMMON_

#include "src/kernels/conv_nchwc_micro.h"

namespace neocpu {
namespace detail {
namespace NEOCPU_CONV_VARIANT_NS {

// The f32 micro-kernel: REGN consecutive out-width positions of one (n, oc_block, oh)
// row, the first `count` of which it stores. acc[REGN][OCB] is the register block of
// Figure 1; the `j` loops vectorize to one FMA per OCB/vector-lane group, the `r` loop
// is the reg_n register blocking. GUARD selects the Columns form (see
// conv_nchwc_micro.h): a padded column reads the zero column `d.pad_col`, which adds
// nothing, and a padded row is skipped in both forms.
template <int OCB, int REGN, bool UNROLL, bool GUARD>
struct F32Micro {
  static void Run(const F32ConvArgs& d, const float* __restrict in_n,
                  const float* __restrict w_o, const float* bias_o, const float* res_row,
                  std::int64_t oh, std::int64_t ow0, std::int64_t count,
                  float* __restrict out_row) {
    float acc[REGN][OCB];
    for (int r = 0; r < REGN; ++r) {
      for (int j = 0; j < OCB; ++j) {
        acc[r][j] = bias_o != nullptr ? bias_o[j] : 0.0f;
      }
    }

    const std::int64_t iw0 = ow0 * d.sw - d.pw;
    const std::int64_t icb = d.icb;
    const std::int64_t w_kstride = icb * OCB;  // weight stride per (kh, kw) entry

    for (std::int64_t ico = 0; ico < d.icb_count; ++ico) {
      const float* in_c = in_n + ico * d.in_sc;
      const float* w_c = w_o + ico * d.w_sc;
      for (std::int64_t kh = 0; kh < d.kh; ++kh) {
        const std::int64_t ih = oh * d.sh - d.ph + kh;
        if (ih < 0 || ih >= d.ih) {
          continue;
        }
        const float* in_row = in_c + ih * d.in_sh;
        const float* w_h = w_c + kh * d.kw * w_kstride;
        auto kw_body = [&](std::int64_t kw) {
          const float* __restrict w_k = w_h + kw * w_kstride;
          const Columns<float, REGN, GUARD> cols(in_row, iw0 + kw, d.iw, icb, d.sw,
                                                 d.pad_col);
          for (std::int64_t ici = 0; ici < icb; ++ici) {
            const float* __restrict wv = w_k + ici * OCB;
            // The j loop is the SIMD dimension: the `omp simd` annotation pins it for
            // the vectorizer (GCC would otherwise completely peel trip counts <= 16
            // early and scalarize). The r loop is the register blocking of Figure 1:
            // one broadcast and one vector FMA per iteration after vectorization.
#pragma GCC unroll 32
            for (int r = 0; r < REGN; ++r) {
              const float iv = cols[r][ici];
#pragma omp simd
              for (int j = 0; j < OCB; ++j) {
                acc[r][j] += iv * wv[j];
              }
            }
          }
        };
        if constexpr (UNROLL) {
#pragma GCC unroll 8
          for (std::int64_t kw = 0; kw < d.kw; ++kw) {
            kw_body(kw);
          }
        } else {
#pragma GCC unroll 1
          for (std::int64_t kw = 0; kw < d.kw; ++kw) {
            kw_body(kw);
          }
        }
      }
    }

    // Epilogue: residual add, ReLU, store; a guarded block stores its first `count`.
    float* __restrict out = out_row + ow0 * OCB;
    const float* __restrict res = res_row != nullptr ? res_row + ow0 * OCB : nullptr;
#pragma GCC unroll 32
    for (int r = 0; r < REGN; ++r) {
      if (GUARD && r >= count) {
        break;
      }
      for (int j = 0; j < OCB; ++j) {
        float v = acc[r][j];
        if (res != nullptr) {
          v += res[static_cast<std::int64_t>(r) * OCB + j];
        }
        if (d.relu) {
          v = v > 0.0f ? v : 0.0f;
        }
        out[static_cast<std::int64_t>(r) * OCB + j] = v;
      }
    }
  }
};

}  // namespace NEOCPU_CONV_VARIANT_NS

// Row driver. A row is one (n, oc_block, oh) chunk of the output — the "disjoint chunk
// of OFMAP" Algorithm 1 parallelizes over — computed in reg_n register blocks from
// ow = 0. A block whose columns all lie inside [ow_lo, ow_hi) runs the interior
// instantiation, any other the guarded one; the last block computes a full reg_n and
// stores only the positions below ow.
void NEOCPU_CONV_ROWS_FN(const F32ConvArgs& d, std::int64_t begin, std::int64_t end) {
  namespace v = NEOCPU_CONV_VARIANT_NS;
  const v::MicroPair<v::F32Micro> micro =
      v::SelectMicro<v::F32Micro>(d.ocb, d.reg_n, d.unroll_ker);
  for (std::int64_t row = begin; row < end; ++row) {
    const std::int64_t oh = row % d.oh;
    const std::int64_t rest = row / d.oh;
    const std::int64_t oco = rest % d.ocb_count;
    const std::int64_t n = rest / d.ocb_count;

    const float* in_n = d.in + n * d.in_sn;
    const float* w_o = d.w + oco * d.w_so;
    const float* bias_o = d.bias != nullptr ? d.bias + oco * d.ocb : nullptr;
    const std::int64_t out_off = n * d.out_sn + oco * d.out_sc + oh * d.out_sh;
    float* out_row = d.out + out_off;
    const float* res_row = d.res != nullptr ? d.res + out_off : nullptr;

    for (std::int64_t ow = 0; ow < d.ow; ow += d.reg_n) {
      const bool interior = ow >= d.ow_lo && ow + d.reg_n <= d.ow_hi;
      (interior ? micro.interior : micro.guarded)(d, in_n, w_o, bias_o, res_row, oh, ow,
                                                  d.reg_n < d.ow - ow ? d.reg_n : d.ow - ow,
                                                  out_row);
    }
  }
}

}  // namespace detail
}  // namespace neocpu
