// Baseline instantiation + operand packing + validation + runtime ISA dispatch of the
// packed u8·s8 GEMM. The baseline tile driver compiles at the library's portable ISA;
// wider variants live in gemm_packed_int8_avx{2,512,512vnni}.cc behind per-file flags,
// and this TU (always portable code itself) picks the widest one the running CPU
// supports. All tiers are bitwise-identical (see gemm_packed_int8_impl.h).
#define NEOCPU_GEMM_S8_VARIANT_NS gemm_s8_baseline
#define NEOCPU_GEMM_S8_TILE_FN GemmS8TileBaseline
#include "src/kernels/gemm_packed_int8_impl.h"

#include <cstring>
#include <vector>

#include "src/base/logging.h"
#include "src/kernels/gemm_packed_int8.h"
#include "src/kernels/isa_tiers.h"

namespace neocpu {
namespace detail {

#ifdef NEOCPU_HAVE_AVX2
void GemmS8TileAvx2(const GemmS8Args&, std::int64_t);
#endif
#ifdef NEOCPU_HAVE_AVX512
void GemmS8TileAvx512(const GemmS8Args&, std::int64_t);
#endif
#ifdef NEOCPU_HAVE_AVX512VNNI
void GemmS8TileAvx512Vnni(const GemmS8Args&, std::int64_t);
#endif

namespace {

IsaTierTable<GemmS8TileFn>& Tiers() {
  static IsaTierTable<GemmS8TileFn> tiers({
#ifdef NEOCPU_HAVE_AVX512VNNI
      {IsaTier::kAvx512Vnni, &GemmS8TileAvx512Vnni},
#endif
#ifdef NEOCPU_HAVE_AVX512
      {IsaTier::kAvx512, &GemmS8TileAvx512},
#endif
#ifdef NEOCPU_HAVE_AVX2
      {IsaTier::kAvx2, &GemmS8TileAvx2},
#endif
      {IsaTier::kBaseline, &GemmS8TileBaseline},
  });
  return tiers;
}

std::int64_t CeilDiv(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

}  // namespace
}  // namespace detail

const char* GemmPackedS8IsaName() { return detail::Tiers().ActiveName(); }

bool SetGemmPackedS8IsaOverride(const char* name) { return detail::Tiers().Pin(name); }

std::size_t PackedAU8Bytes(std::int64_t m, std::int64_t k, const GemmSchedule& s) {
  return static_cast<std::size_t>(detail::CeilDiv(m, s.mr) * s.mr * detail::CeilDiv(k, 4) * 4);
}

std::size_t PackedBS8Bytes(std::int64_t n, std::int64_t k, const GemmSchedule& s) {
  return static_cast<std::size_t>(detail::CeilDiv(n, s.nr) * s.nr * detail::CeilDiv(k, 4) * 4);
}

void PackAU8(const std::uint8_t* a, std::int64_t m, std::int64_t k,
             const GemmSchedule& s, std::uint8_t* out, ThreadEngine* engine) {
  const std::int64_t mr = s.mr;
  const std::int64_t kq = detail::CeilDiv(k, 4);
  const std::int64_t panels = detail::CeilDiv(m, mr);
  SerialEngine serial;
  ThreadEngine& eng = engine != nullptr ? *engine : static_cast<ThreadEngine&>(serial);
  ParallelFor(eng, panels, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t p = begin; p < end; ++p) {
      std::uint8_t* dst = out + p * kq * mr * 4;
      const std::int64_t rows = mr < m - p * mr ? mr : m - p * mr;
      for (std::int64_t q = 0; q < kq; ++q) {
        for (std::int64_t r = 0; r < mr; ++r) {
          const std::uint8_t* src =
              r < rows ? a + (p * mr + r) * k + q * 4 : nullptr;
          const std::int64_t take = src != nullptr
                                        ? (k - q * 4 < 4 ? k - q * 4 : 4)
                                        : 0;
          std::uint8_t* d = dst + (q * mr + r) * 4;
          for (std::int64_t b = 0; b < 4; ++b) {
            d[b] = b < take ? src[b] : 0;
          }
        }
      }
    }
  });
}

void PackBS8FromTransposed(const std::int8_t* w, std::int64_t n, std::int64_t k,
                           const GemmSchedule& s, std::int8_t* out) {
  const std::int64_t nr = s.nr;
  const std::int64_t kq = detail::CeilDiv(k, 4);
  const std::int64_t panels = detail::CeilDiv(n, nr);
  for (std::int64_t p = 0; p < panels; ++p) {
    std::int8_t* dst = out + p * kq * nr * 4;
    const std::int64_t cols = nr < n - p * nr ? nr : n - p * nr;
    for (std::int64_t q = 0; q < kq; ++q) {
      const std::int64_t take = k - q * 4 < 4 ? k - q * 4 : 4;
      for (std::int64_t j = 0; j < nr; ++j) {
        const std::int8_t* src = j < cols ? w + (p * nr + j) * k + q * 4 : nullptr;
        std::int8_t* d = dst + (q * nr + j) * 4;
        for (std::int64_t b = 0; b < 4; ++b) {
          d[b] = (src != nullptr && b < take) ? src[b] : 0;
        }
      }
    }
  }
}

void GemmPackedU8S8(std::int64_t m, std::int64_t n, std::int64_t k,
                    const std::uint8_t* a, const std::int8_t* packed_b,
                    const std::int32_t* bias, const float* mult, bool relu,
                    bool requant, bool out_u8, std::int32_t out_zero, void* c,
                    const GemmSchedule& s, std::uint8_t* workspace,
                    ThreadEngine* engine) {
  NEOCPU_CHECK(m > 0 && n > 0 && k > 0);
  NEOCPU_CHECK(s.mc > 0 && s.nc > 0);
  NEOCPU_CHECK(s.mr > 0 && s.mr <= kMaxGemmMr) << s.ToString();
  NEOCPU_CHECK(s.nr > 0 && s.nr <= kMaxGemmNr) << s.ToString();
  NEOCPU_CHECK(mult != nullptr);
  SerialEngine serial;
  ThreadEngine& eng = engine != nullptr ? *engine : static_cast<ThreadEngine&>(serial);

  std::vector<std::uint8_t> owned;  // fallback when no planned workspace is supplied
  std::uint8_t* ap = workspace;
  if (ap == nullptr) {
    owned.resize(PackedAU8Bytes(m, k, s));
    ap = owned.data();
  }
  PackAU8(a, m, k, s, ap, &eng);

  detail::GemmS8Args args;
  args.m = m;
  args.n = n;
  args.k = k;
  args.kq = detail::CeilDiv(k, 4);
  // Macro tiles must start on packed-panel boundaries (see gemm_packed.cc).
  args.mc = detail::CeilDiv(s.mc, s.mr) * s.mr;
  args.nc = detail::CeilDiv(s.nc, s.nr) * s.nr;
  args.mr = s.mr;
  args.nr = s.nr;
  args.nb_count = detail::CeilDiv(n, args.nc);
  args.ap = ap;
  args.bp = packed_b;
  args.bias = bias;
  args.mult = mult;
  args.relu = relu;
  args.requant = requant;
  args.out_u8 = requant && out_u8;
  args.out_zero = requant && out_u8 ? out_zero : 0;
  args.c = c;

  const detail::GemmS8TileFn tile_fn = detail::Tiers().Active().fn;
  const std::int64_t tiles = detail::CeilDiv(m, args.mc) * args.nb_count;
  ParallelFor(eng, tiles, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t tile = begin; tile < end; ++tile) {
      tile_fn(args, tile);
    }
  });
}

}  // namespace neocpu
