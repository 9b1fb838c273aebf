// Baseline instantiation + operand packing + validation + runtime ISA dispatch of the
// packed fp32 GEMM. The baseline tile driver compiles at the library's portable ISA;
// wider variants live in gemm_packed_avx{2,512}.cc behind per-file flags, and this TU
// (always portable code itself) picks the widest one the running CPU supports.
#define NEOCPU_GEMM_VARIANT_NS gemm_f32_baseline
#define NEOCPU_GEMM_TILE_FN GemmF32TileBaseline
#include "src/kernels/gemm_packed_impl.h"

#include <cstring>
#include <vector>

#include "src/base/logging.h"
#include "src/kernels/gemm_packed.h"
#include "src/kernels/isa_tiers.h"

namespace neocpu {
namespace detail {

#ifdef NEOCPU_HAVE_AVX2
void GemmF32TileAvx2(const GemmF32Args&, std::int64_t);
#endif
#ifdef NEOCPU_HAVE_AVX512
void GemmF32TileAvx512(const GemmF32Args&, std::int64_t);
#endif

namespace {

IsaTierTable<GemmF32TileFn>& Tiers() {
  static IsaTierTable<GemmF32TileFn> tiers({
#ifdef NEOCPU_HAVE_AVX512
      {IsaTier::kAvx512, &GemmF32TileAvx512},
#endif
#ifdef NEOCPU_HAVE_AVX2
      {IsaTier::kAvx2, &GemmF32TileAvx2},
#endif
      {IsaTier::kBaseline, &GemmF32TileBaseline},
  });
  return tiers;
}

std::int64_t CeilDiv(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

}  // namespace
}  // namespace detail

const char* GemmPackedIsaName() { return detail::Tiers().ActiveName(); }

bool SetGemmPackedIsaOverride(const char* name) { return detail::Tiers().Pin(name); }

std::size_t PackedAF32Elems(std::int64_t m, std::int64_t k, const GemmSchedule& s) {
  return static_cast<std::size_t>(detail::CeilDiv(m, s.mr) * s.mr * k);
}

std::size_t PackedBF32Elems(std::int64_t n, std::int64_t k, const GemmSchedule& s) {
  return static_cast<std::size_t>(detail::CeilDiv(n, s.nr) * s.nr * k);
}

void PackAF32(const float* a, std::int64_t m, std::int64_t k, const GemmSchedule& s,
              float* out, ThreadEngine* engine) {
  const std::int64_t mr = s.mr;
  const std::int64_t panels = detail::CeilDiv(m, mr);
  SerialEngine serial;
  ThreadEngine& eng = engine != nullptr ? *engine : static_cast<ThreadEngine&>(serial);
  ParallelFor(eng, panels, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t p = begin; p < end; ++p) {
      float* dst = out + p * k * mr;
      const std::int64_t rows = mr < m - p * mr ? mr : m - p * mr;
      for (std::int64_t t = 0; t < k; ++t) {
        for (std::int64_t r = 0; r < mr; ++r) {
          dst[t * mr + r] = r < rows ? a[(p * mr + r) * k + t] : 0.0f;
        }
      }
    }
  });
}

void PackBF32(const float* b, std::int64_t n, std::int64_t k, const GemmSchedule& s,
              float* out) {
  const std::int64_t nr = s.nr;
  const std::int64_t panels = detail::CeilDiv(n, nr);
  for (std::int64_t p = 0; p < panels; ++p) {
    float* dst = out + p * k * nr;
    const std::int64_t cols = nr < n - p * nr ? nr : n - p * nr;
    for (std::int64_t t = 0; t < k; ++t) {
      const float* src = b + t * n + p * nr;
      for (std::int64_t j = 0; j < cols; ++j) {
        dst[t * nr + j] = src[j];
      }
      for (std::int64_t j = cols; j < nr; ++j) {
        dst[t * nr + j] = 0.0f;
      }
    }
  }
}

void PackBF32FromTransposed(const float* w, std::int64_t n, std::int64_t k,
                            const GemmSchedule& s, float* out) {
  const std::int64_t nr = s.nr;
  const std::int64_t panels = detail::CeilDiv(n, nr);
  for (std::int64_t p = 0; p < panels; ++p) {
    float* dst = out + p * k * nr;
    const std::int64_t cols = nr < n - p * nr ? nr : n - p * nr;
    for (std::int64_t j = 0; j < cols; ++j) {
      const float* src = w + (p * nr + j) * k;
      for (std::int64_t t = 0; t < k; ++t) {
        dst[t * nr + j] = src[t];
      }
    }
    if (cols < nr) {
      for (std::int64_t t = 0; t < k; ++t) {
        for (std::int64_t j = cols; j < nr; ++j) {
          dst[t * nr + j] = 0.0f;
        }
      }
    }
  }
}

void GemmPackedF32(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
                   const float* packed_b, const float* bias, bool relu, float* c,
                   const GemmSchedule& s, float* workspace, ThreadEngine* engine) {
  NEOCPU_CHECK(m > 0 && n > 0 && k > 0);
  NEOCPU_CHECK(s.mc > 0 && s.nc > 0 && s.kc > 0);
  NEOCPU_CHECK(s.mr > 0 && s.mr <= kMaxGemmMr) << s.ToString();
  NEOCPU_CHECK(s.nr > 0 && s.nr <= kMaxGemmNr) << s.ToString();
  SerialEngine serial;
  ThreadEngine& eng = engine != nullptr ? *engine : static_cast<ThreadEngine&>(serial);

  std::vector<float> owned;  // fallback when the caller supplies no planned workspace
  float* ap = workspace;
  if (ap == nullptr) {
    owned.resize(PackedAF32Elems(m, k, s));
    ap = owned.data();
  }
  PackAF32(a, m, k, s, ap, &eng);

  detail::GemmF32Args args;
  args.m = m;
  args.n = n;
  args.k = k;
  // Macro tiles must start on packed-panel boundaries: round mc/nc up to the micro
  // tile so tile index -> panel index stays exact for any schedule.
  args.mc = detail::CeilDiv(s.mc, s.mr) * s.mr;
  args.nc = detail::CeilDiv(s.nc, s.nr) * s.nr;
  args.kc = s.kc;
  args.mr = s.mr;
  args.nr = s.nr;
  args.nb_count = detail::CeilDiv(n, args.nc);
  args.ap = ap;
  args.bp = packed_b;
  args.bias = bias;
  args.relu = relu;
  args.c = c;

  const detail::GemmF32TileFn tile_fn = detail::Tiers().Active().fn;
  const std::int64_t tiles = detail::CeilDiv(m, args.mc) * args.nb_count;
  ParallelFor(eng, tiles, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t tile = begin; tile < end; ++tile) {
      tile_fn(args, tile);
    }
  });
}

}  // namespace neocpu
