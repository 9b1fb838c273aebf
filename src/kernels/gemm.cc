#include "src/kernels/gemm.h"

#include <algorithm>
#include <cstring>

namespace neocpu {
namespace {

constexpr std::int64_t kMr = 4;   // rows per register tile
constexpr std::int64_t kNr = 32;  // columns per register tile (two AVX-512 vectors x 4 rows)

// 4x32 register-tiled inner kernel over the full K extent.
void MicroTile(std::int64_t k, std::int64_t n, const float* __restrict a0,
               const float* __restrict a1, const float* __restrict a2,
               const float* __restrict a3, const float* __restrict b, float* __restrict c0,
               float* __restrict c1, float* __restrict c2, float* __restrict c3,
               bool accumulate) {
  float acc[kMr][kNr];
  if (accumulate) {
    for (std::int64_t j = 0; j < kNr; ++j) {
      acc[0][j] = c0[j];
      acc[1][j] = c1[j];
      acc[2][j] = c2[j];
      acc[3][j] = c3[j];
    }
  } else {
    std::memset(acc, 0, sizeof(acc));
  }
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float* __restrict brow = b + kk * n;
    const float av0 = a0[kk];
    const float av1 = a1[kk];
    const float av2 = a2[kk];
    const float av3 = a3[kk];
    // SIMD dimension (see conv_nchwc.cc for why the annotation is load-bearing).
#pragma omp simd
    for (std::int64_t j = 0; j < kNr; ++j) {
      const float bv = brow[j];
      acc[0][j] += av0 * bv;
      acc[1][j] += av1 * bv;
      acc[2][j] += av2 * bv;
      acc[3][j] += av3 * bv;
    }
  }
  for (std::int64_t j = 0; j < kNr; ++j) {
    c0[j] = acc[0][j];
    c1[j] = acc[1][j];
    c2[j] = acc[2][j];
    c3[j] = acc[3][j];
  }
}

// Fallback for row/column tails: mr rows x nr cols, runtime sizes.
void MicroTail(std::int64_t mr, std::int64_t nr, std::int64_t k, std::int64_t lda,
               std::int64_t n, const float* a, const float* b, float* c, bool accumulate) {
  for (std::int64_t i = 0; i < mr; ++i) {
    const float* arow = a + i * lda;
    float* crow = c + i * n;
    for (std::int64_t j = 0; j < nr; ++j) {
      float sum = accumulate ? crow[j] : 0.0f;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        sum += arow[kk] * b[kk * n + j];
      }
      crow[j] = sum;
    }
  }
}

}  // namespace

void Gemm(std::int64_t m, std::int64_t n, std::int64_t k, const float* a, const float* b,
          float* c, bool accumulate, ThreadEngine* engine) {
  ThreadEngine& eng = EngineOrSerial(engine);
  const std::int64_t row_tiles = (m + kMr - 1) / kMr;
  ParallelFor(eng, row_tiles, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t t = begin; t < end; ++t) {
      const std::int64_t i0 = t * kMr;
      const std::int64_t mr = std::min<std::int64_t>(kMr, m - i0);
      std::int64_t j0 = 0;
      if (mr == kMr) {
        for (; j0 + kNr <= n; j0 += kNr) {
          MicroTile(k, n, a + (i0 + 0) * k, a + (i0 + 1) * k, a + (i0 + 2) * k,
                    a + (i0 + 3) * k, b + j0, c + (i0 + 0) * n + j0, c + (i0 + 1) * n + j0,
                    c + (i0 + 2) * n + j0, c + (i0 + 3) * n + j0, accumulate);
        }
      }
      if (j0 < n || mr != kMr) {
        MicroTail(mr, n - j0, k, k, n, a + i0 * k, b + j0, c + i0 * n + j0, accumulate);
      }
    }
  });
}

}  // namespace neocpu
