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

namespace neocpu {
namespace detail {
namespace NEOCPU_CONV_VARIANT_NS {

// Interior micro-kernel: computes REGN consecutive out_width positions for one
// (n, oc_block, oh) row with no horizontal bounds checks (caller guarantees validity).
// acc[REGN][OCB] is the register block of Figure 1; the `j` loops vectorize to one FMA
// per OCB/vector-lane group, the `r` loop is the reg_n register blocking.
template <int OCB, int REGN, bool UNROLL>
void MicroInterior(const F32ConvArgs& d, const float* __restrict in_n,
                   const float* __restrict w_o, const float* bias_o, const float* res_row,
                   std::int64_t oh, std::int64_t ow0, float* __restrict out_row) {
  float acc[REGN][OCB];
  if (bias_o != nullptr) {
    for (int r = 0; r < REGN; ++r) {
      for (int j = 0; j < OCB; ++j) {
        acc[r][j] = bias_o[j];
      }
    }
  } else {
    for (int r = 0; r < REGN; ++r) {
      for (int j = 0; j < OCB; ++j) {
        acc[r][j] = 0.0f;
      }
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
      const float* in_h = in_c + ih * d.in_sh + iw0 * icb;
      const float* w_h = w_c + kh * d.kw * w_kstride;
      auto kw_body = [&](std::int64_t kw) {
        const float* __restrict w_k = w_h + kw * w_kstride;
        const float* __restrict in_w = in_h + kw * icb;
        for (std::int64_t ici = 0; ici < icb; ++ici) {
          const float* __restrict wv = w_k + ici * OCB;
          // The j loop is the SIMD dimension: the `omp simd` annotation pins it for the
          // vectorizer (GCC would otherwise completely peel trip counts <= 16 early and
          // scalarize). The r loop is the register blocking of Figure 1: one broadcast
          // and one vector FMA per iteration after vectorization.
#pragma GCC unroll 32
          for (int r = 0; r < REGN; ++r) {
            const float iv = in_w[static_cast<std::int64_t>(r) * d.sw * icb + ici];
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

  float* __restrict out = out_row + ow0 * OCB;
  if (res_row != nullptr) {
    const float* __restrict res = res_row + ow0 * OCB;
    for (int r = 0; r < REGN; ++r) {
      for (int j = 0; j < OCB; ++j) {
        acc[r][j] += res[static_cast<std::int64_t>(r) * OCB + j];
      }
    }
  }
  if (d.relu) {
    for (int r = 0; r < REGN; ++r) {
      for (int j = 0; j < OCB; ++j) {
        acc[r][j] = acc[r][j] > 0.0f ? acc[r][j] : 0.0f;
      }
    }
  }
  for (int r = 0; r < REGN; ++r) {
    for (int j = 0; j < OCB; ++j) {
      out[static_cast<std::int64_t>(r) * OCB + j] = acc[r][j];
    }
  }
}

// Generic guarded micro-kernel: runtime block sizes, per-element horizontal bounds
// checks. Handles image edges (padding), out_width tails, and uncommon oc_bn values.
void MicroEdge(const F32ConvArgs& d, const float* in_n, const float* w_o, const float* bias_o,
               const float* res_row, std::int64_t oh, std::int64_t ow0, std::int64_t count,
               float* out_row) {
  float acc[kMaxRegN][kMaxChannelBlock];
  const std::int64_t ocb = d.ocb;
  for (std::int64_t r = 0; r < count; ++r) {
    for (std::int64_t j = 0; j < ocb; ++j) {
      acc[r][j] = bias_o != nullptr ? bias_o[j] : 0.0f;
    }
  }
  const std::int64_t icb = d.icb;
  const std::int64_t w_kstride = icb * ocb;
  for (std::int64_t ico = 0; ico < d.icb_count; ++ico) {
    const float* in_c = in_n + ico * d.in_sc;
    const float* w_c = w_o + ico * d.w_sc;
    for (std::int64_t kh = 0; kh < d.kh; ++kh) {
      const std::int64_t ih = oh * d.sh - d.ph + kh;
      if (ih < 0 || ih >= d.ih) {
        continue;
      }
      const float* in_h = in_c + ih * d.in_sh;
      const float* w_h = w_c + kh * d.kw * w_kstride;
      for (std::int64_t kw = 0; kw < d.kw; ++kw) {
        const float* w_k = w_h + kw * w_kstride;
        for (std::int64_t r = 0; r < count; ++r) {
          const std::int64_t iw = (ow0 + r) * d.sw - d.pw + kw;
          if (iw < 0 || iw >= d.iw) {
            continue;
          }
          const float* in_w = in_h + iw * icb;
          for (std::int64_t ici = 0; ici < icb; ++ici) {
            const float iv = in_w[ici];
            const float* wv = w_k + ici * ocb;
            for (std::int64_t j = 0; j < ocb; ++j) {
              acc[r][j] += iv * wv[j];
            }
          }
        }
      }
    }
  }
  float* out = out_row + ow0 * ocb;
  const float* res = res_row != nullptr ? res_row + ow0 * ocb : nullptr;
  for (std::int64_t r = 0; r < count; ++r) {
    for (std::int64_t j = 0; j < ocb; ++j) {
      float v = acc[r][j];
      if (res != nullptr) {
        v += res[r * ocb + j];
      }
      if (d.relu) {
        v = v > 0.0f ? v : 0.0f;
      }
      out[r * ocb + j] = v;
    }
  }
}

using MicroFn = void (*)(const F32ConvArgs&, const float*, const float*, const float*,
                         const float*, std::int64_t, std::int64_t, float*);

template <int OCB, bool UNROLL>
MicroFn SelectByRegN(std::int64_t reg_n) {
  switch (reg_n) {
    case 2:
      return &MicroInterior<OCB, 2, UNROLL>;
    case 4:
      return &MicroInterior<OCB, 4, UNROLL>;
    case 8:
      return &MicroInterior<OCB, 8, UNROLL>;
    case 16:
      return &MicroInterior<OCB, 16, UNROLL>;
    case 32:
      return &MicroInterior<OCB, 32, UNROLL>;
    default:
      return nullptr;
  }
}

template <int OCB>
MicroFn SelectByUnroll(std::int64_t reg_n, bool unroll) {
  return unroll ? SelectByRegN<OCB, true>(reg_n) : SelectByRegN<OCB, false>(reg_n);
}

MicroFn SelectMicro(std::int64_t ocb, std::int64_t reg_n, bool unroll) {
  switch (ocb) {
    case 4:
      return SelectByUnroll<4>(reg_n, unroll);
    case 8:
      return SelectByUnroll<8>(reg_n, unroll);
    case 16:
      return SelectByUnroll<16>(reg_n, unroll);
    case 32:
      return SelectByUnroll<32>(reg_n, unroll);
    default:
      return nullptr;  // caller falls back to MicroEdge for uncommon blocks
  }
}

}  // namespace NEOCPU_CONV_VARIANT_NS

// Row driver. A row is one (n, oc_block, oh) chunk of the output — the "disjoint chunk
// of OFMAP" Algorithm 1 parallelizes over.
void NEOCPU_CONV_ROWS_FN(const F32ConvArgs& d, std::int64_t begin, std::int64_t end) {
  namespace v = NEOCPU_CONV_VARIANT_NS;
  const v::MicroFn fast = v::SelectMicro(d.ocb, d.reg_n, d.unroll_ker);
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

    std::int64_t ow = 0;
    // Left edge (horizontal padding).
    if (ow < d.ow_lo) {
      const std::int64_t count = (d.ow_lo < d.ow ? d.ow_lo : d.ow) - ow;
      for (std::int64_t c = 0; c < count; c += d.reg_n) {
        const std::int64_t take = d.reg_n < count - c ? d.reg_n : count - c;
        v::MicroEdge(d, in_n, w_o, bias_o, res_row, oh, ow + c, take, out_row);
      }
      ow += count;
    }
    // Interior: full reg_n register blocks through the template instantiation.
    if (fast != nullptr) {
      while (ow + d.reg_n <= d.ow_hi) {
        fast(d, in_n, w_o, bias_o, res_row, oh, ow, out_row);
        ow += d.reg_n;
      }
    }
    // Interior tail + right edge.
    while (ow < d.ow) {
      const std::int64_t count = d.reg_n < d.ow - ow ? d.reg_n : d.ow - ow;
      v::MicroEdge(d, in_n, w_o, bias_o, res_row, oh, ow, count, out_row);
      ow += count;
    }
  }
}

}  // namespace detail
}  // namespace neocpu
