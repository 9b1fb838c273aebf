// Implementation body of the packed u8·s8→s32 GEMM macro-tile driver, compiled once
// per ISA variant: the including translation unit defines NEOCPU_GEMM_S8_VARIANT_NS
// (a unique namespace) and NEOCPU_GEMM_S8_TILE_FN (the exported macro-tile driver
// symbol), then includes this header. Same ODR rules as gemm_packed_impl.h: raw-pointer
// arithmetic on the POD argument block only.
//
// Both operands are quad-packed so 4 consecutive K values are byte-adjacent:
// A is [ceil(m/mr)][ceil(k/4)][mr][4] u8, B is [ceil(n/nr)][ceil(k/4)][nr][4] s8,
// zero-padded in both the panel and quad tails (pad bytes multiply pad bytes, so they
// contribute nothing — the u8 zero-point correction is pre-folded into the s32 bias
// over the true k only). A u8·s8 product reaches 255*127, so two of them overflow an
// s16 pair sum; the portable tier therefore accumulates every 4-product quad directly
// in s32 (exact), and the AVX-512 VNNI tier lowers the identical quad to one vpdpbusd
// whose internal widening is also exact — both tiers produce bitwise-identical s32
// accumulators, and the whole K reduction stays in
// registers (single K pass), so the fused requantizing epilogue needs no s32 staging.
#ifndef NEOCPU_SRC_KERNELS_GEMM_PACKED_INT8_IMPL_COMMON_
#define NEOCPU_SRC_KERNELS_GEMM_PACKED_INT8_IMPL_COMMON_

#include <cstdint>

#if defined(__AVX512VNNI__) && defined(__AVX512VL__)
#include <immintrin.h>
#endif

#include "src/kernels/gemm_schedule.h"

namespace neocpu {
namespace detail {

// Resolved dims, blocking and fused-epilogue description; plain data only.
struct GemmS8Args {
  std::int64_t m = 0, n = 0, k = 0;
  std::int64_t kq = 0;  // ceil(k/4): quad count per packed panel
  std::int64_t mc = 0, nc = 0, mr = 0, nr = 0;
  std::int64_t nb_count = 0;  // ceil(n/nc): macro-tile index = ib * nb_count + jb
  const std::uint8_t* ap = nullptr;  // quad-packed A panels
  const std::int8_t* bp = nullptr;   // quad-packed B panels
  const std::int32_t* bias = nullptr;  // zero-point-folded s32 bias, length n; null ok
  const float* mult = nullptr;  // per-column dequant/requant multiplier, length n
  bool relu = false;
  bool requant = false;  // true: c is u8; false: c is f32
  std::int32_t out_zero = 0;  // output zero point (requant only)
  void* c = nullptr;          // row-major [m][n]
};

using GemmS8TileFn = void (*)(const GemmS8Args&, std::int64_t tile);

}  // namespace detail
}  // namespace neocpu

#endif  // NEOCPU_SRC_KERNELS_GEMM_PACKED_INT8_IMPL_COMMON_

namespace neocpu {
namespace detail {
namespace NEOCPU_GEMM_S8_VARIANT_NS {

// Register micro-kernel: an mr x nr s32 accumulator tile over the full quad-packed K
// of one A row panel and one B column panel. Results land in out_acc[r * NR + j]; the
// epilogue store is separate (StoreTileS8) so the VNNI and portable paths share it.
template <int MR, int NR>
void MicroU8(const GemmS8Args& a, const std::uint8_t* __restrict ap,
             const std::int8_t* __restrict bp, std::int32_t* __restrict out_acc) {
#if defined(__AVX512VNNI__) && defined(__AVX512VL__)
  if constexpr (NR % 16 == 0) {
    constexpr int NV = NR / 16;
    __m512i acc[MR][NV];
    for (int r = 0; r < MR; ++r) {
      for (int v = 0; v < NV; ++v) {
        acc[r][v] = _mm512_setzero_si512();
      }
    }
    for (std::int64_t q = 0; q < a.kq; ++q) {
      // One [nr][4] B quad tile = NV contiguous 64-byte vectors.
      const std::int8_t* __restrict bt = bp + q * NR * 4;
      __m512i b[NV];
      for (int v = 0; v < NV; ++v) {
        b[v] = _mm512_loadu_si512(bt + v * 64);
      }
      const std::uint8_t* __restrict at = ap + q * MR * 4;
#pragma GCC unroll 8
      for (int r = 0; r < MR; ++r) {
        std::uint32_t quad;
        __builtin_memcpy(&quad, at + r * 4, 4);
        const __m512i av = _mm512_set1_epi32(static_cast<int>(quad));
        for (int v = 0; v < NV; ++v) {
          acc[r][v] = _mm512_dpbusd_epi32(acc[r][v], av, b[v]);
        }
      }
    }
    for (int r = 0; r < MR; ++r) {
      for (int v = 0; v < NV; ++v) {
        _mm512_storeu_si512(out_acc + r * NR + v * 16, acc[r][v]);
      }
    }
    return;
  }
#endif  // __AVX512VNNI__ && __AVX512VL__

  std::int32_t acc[MR][NR];
  for (int r = 0; r < MR; ++r) {
#pragma omp simd
    for (int j = 0; j < NR; ++j) {
      acc[r][j] = 0;
    }
  }
  for (std::int64_t q = 0; q < a.kq; ++q) {
    const std::int8_t* __restrict bt = bp + q * NR * 4;
    const std::uint8_t* __restrict at = ap + q * MR * 4;
#pragma GCC unroll 8
    for (int r = 0; r < MR; ++r) {
      const std::int32_t a0 = at[r * 4];
      const std::int32_t a1 = at[r * 4 + 1];
      const std::int32_t a2 = at[r * 4 + 2];
      const std::int32_t a3 = at[r * 4 + 3];
#pragma omp simd
      for (int j = 0; j < NR; ++j) {
        acc[r][j] += a0 * bt[j * 4] + a1 * bt[j * 4 + 1] + a2 * bt[j * 4 + 2] +
                     a3 * bt[j * 4 + 3];
      }
    }
  }
  for (int r = 0; r < MR; ++r) {
#pragma omp simd
    for (int j = 0; j < NR; ++j) {
      out_acc[r * NR + j] = acc[r][j];
    }
  }
}

// Generic guarded micro-kernel: runtime mr/nr for blocking pairs outside the template
// instantiation grid. Accumulators land in out_acc[r * nr + j].
inline void MicroEdgeU8(const GemmS8Args& a, const std::uint8_t* ap,
                        const std::int8_t* bp, std::int32_t* out_acc) {
  const std::int64_t mr = a.mr;
  const std::int64_t nr = a.nr;
  for (std::int64_t i = 0; i < mr * nr; ++i) {
    out_acc[i] = 0;
  }
  for (std::int64_t q = 0; q < a.kq; ++q) {
    const std::int8_t* bt = bp + q * nr * 4;
    const std::uint8_t* at = ap + q * mr * 4;
    for (std::int64_t r = 0; r < mr; ++r) {
      const std::int32_t a0 = at[r * 4];
      const std::int32_t a1 = at[r * 4 + 1];
      const std::int32_t a2 = at[r * 4 + 2];
      const std::int32_t a3 = at[r * 4 + 3];
      for (std::int64_t j = 0; j < nr; ++j) {
        out_acc[r * nr + j] += a0 * bt[j * 4] + a1 * bt[j * 4 + 1] +
                               a2 * bt[j * 4 + 2] + a3 * bt[j * 4 + 3];
      }
    }
  }
}

// Epilogue for one micro tile at C(i0, j0): bias add, integer ReLU, per-column scale,
// store to u8 (requant) or f32 (dequant). rows/cols guard the padded tile edges. The
// requantize store rounds with rint (nearest even, like lrintf) and clamps in float,
// which vectorizes and saturates values beyond the s32 range.
inline void StoreTileS8(const GemmS8Args& a, const std::int32_t* acc, std::int64_t i0,
                        std::int64_t j0, std::int64_t rows, std::int64_t cols) {
  const std::int64_t nr = a.nr;
  const std::int32_t* bias_j = a.bias != nullptr ? a.bias + j0 : nullptr;
  const float* mult_j = a.mult + j0;
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::int64_t at0 = (i0 + r) * a.n + j0;
    for (std::int64_t j = 0; j < cols; ++j) {
      std::int32_t v = acc[r * nr + j];
      if (bias_j != nullptr) {
        v += bias_j[j];
      }
      if (a.relu && v < 0) {
        v = 0;
      }
      const float scaled = static_cast<float>(v) * mult_j[j];
      if (a.requant) {
        float q = __builtin_rintf(scaled) + static_cast<float>(a.out_zero);
        q = q < 0.0f ? 0.0f : (q > 255.0f ? 255.0f : q);
        static_cast<std::uint8_t*>(a.c)[at0 + j] =
            static_cast<std::uint8_t>(static_cast<std::int32_t>(q));
      } else {
        static_cast<float*>(a.c)[at0 + j] = scaled;
      }
    }
  }
}

using MicroU8Fn = void (*)(const GemmS8Args&, const std::uint8_t* __restrict,
                           const std::int8_t* __restrict, std::int32_t* __restrict);

template <int MR>
MicroU8Fn SelectByNr(std::int64_t nr) {
  switch (nr) {
    case 8:
      return &MicroU8<MR, 8>;
    case 16:
      return &MicroU8<MR, 16>;
    case 32:
      return &MicroU8<MR, 32>;
    case 64:
      return &MicroU8<MR, 64>;
    default:
      return nullptr;
  }
}

inline MicroU8Fn SelectMicro(std::int64_t mr, std::int64_t nr) {
  switch (mr) {
    case 1:
      return SelectByNr<1>(nr);
    case 2:
      return SelectByNr<2>(nr);
    case 4:
      return SelectByNr<4>(nr);
    case 6:
      return SelectByNr<6>(nr);
    case 8:
      return SelectByNr<8>(nr);
    default:
      return nullptr;  // uncommon pairs fall back to MicroEdgeU8
  }
}

}  // namespace NEOCPU_GEMM_S8_VARIANT_NS

// Macro-tile driver: one (mc x nc) block of C in a single K pass — B micro-panel
// reused innermost, A row panels streamed, fused epilogue on every store — exported
// per ISA variant and invoked by the dispatcher's ParallelFor over the macro-tile grid.
void NEOCPU_GEMM_S8_TILE_FN(const GemmS8Args& a, std::int64_t tile) {
  namespace v = NEOCPU_GEMM_S8_VARIANT_NS;
  const std::int64_t jb = tile % a.nb_count;
  const std::int64_t ib = tile / a.nb_count;
  const std::int64_t i0 = ib * a.mc;
  const std::int64_t i1 = i0 + a.mc < a.m ? i0 + a.mc : a.m;
  const std::int64_t j0 = jb * a.nc;
  const std::int64_t j1 = j0 + a.nc < a.n ? j0 + a.nc : a.n;

  const v::MicroU8Fn fast = v::SelectMicro(a.mr, a.nr);
  const v::MicroU8Fn micro = fast != nullptr ? fast : &v::MicroEdgeU8;

  std::int32_t acc[kMaxGemmMr * kMaxGemmNr];
  for (std::int64_t j = j0; j < j1; j += a.nr) {
    const std::int64_t bpanel = j / a.nr;
    const std::int8_t* bp = a.bp + bpanel * a.kq * a.nr * 4;
    const std::int64_t cols = a.nr < a.n - j ? a.nr : a.n - j;
    for (std::int64_t i = i0; i < i1; i += a.mr) {
      const std::int64_t apanel = i / a.mr;
      const std::uint8_t* ap = a.ap + apanel * a.kq * a.mr * 4;
      const std::int64_t rows = a.mr < a.m - i ? a.mr : a.m - i;
      micro(a, ap, bp, acc);
      v::StoreTileS8(a, acc, i, j, rows, cols);
    }
  }
}

}  // namespace detail
}  // namespace neocpu
