// The packed GEMM kernel family: f32 tuned-vs-reference parity across shapes,
// blockings and epilogues; u8·s8 exactness against a naive integer reference;
// bitwise parity of the two integer tiers via the dispatch override; and
// packed-operand layout invariants (padding contributes nothing).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/kernels/gemm_packed.h"
#include "src/kernels/gemm_packed_int8.h"
#include "src/runtime/thread_engine.h"
#include "src/runtime/thread_pool.h"

namespace neocpu {
namespace {

std::vector<float> RandomVec(std::int64_t count, std::uint64_t seed, float lo = -1.0f,
                             float hi = 1.0f) {
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(count));
  for (auto& x : v) {
    x = rng.NextFloat(lo, hi);
  }
  return v;
}

// Naive f32 reference with the fused epilogue.
std::vector<float> ReferenceF32(std::int64_t m, std::int64_t n, std::int64_t k,
                                const std::vector<float>& a,
                                const std::vector<float>& b, const float* bias,
                                bool relu) {
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += a[i * k + p] * b[p * n + j];
      }
      if (bias != nullptr) {
        acc += bias[j];
      }
      if (relu && acc < 0.0f) {
        acc = 0.0f;
      }
      c[i * n + j] = acc;
    }
  }
  return c;
}

void ExpectClose(const std::vector<float>& got, const std::vector<float>& want,
                 double tol, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  double max_err = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    max_err = std::max(max_err, std::abs(static_cast<double>(got[i]) - want[i]));
  }
  EXPECT_LE(max_err, tol) << what;
}

struct F32Case {
  std::int64_t m, n, k;
  GemmSchedule s;
  bool bias, relu;
};

TEST(GemmPackedF32, MatchesReferenceAcrossShapesAndBlockings) {
  const std::vector<F32Case> cases = {
      // Transformer-ish shapes.
      {64, 256, 64, {64, 128, 64, 4, 16, DType::kF32}, true, true},
      {64, 64, 256, {32, 64, 128, 6, 16, DType::kF32}, true, false},
      {8, 10, 512, {64, 256, 256, 4, 8, DType::kF32}, false, false},
      // Tails everywhere: m % mr, n % nr, k % kc all nonzero.
      {13, 37, 71, {8, 32, 32, 4, 16, DType::kF32}, true, true},
      {5, 9, 3, {4, 8, 2, 2, 8, DType::kF32}, true, false},
      // Off-grid micro pair exercises the MicroEdge fallback.
      {17, 23, 29, {8, 16, 16, 3, 12, DType::kF32}, true, true},
      // mc/nc smaller than mr/nr rounding, multiple macro tiles.
      {33, 65, 17, {16, 32, 8, 8, 32, DType::kF32}, false, true},
  };
  for (const auto& c : cases) {
    const auto a = RandomVec(c.m * c.k, 7 * static_cast<std::uint64_t>(c.m + c.k));
    const auto b = RandomVec(c.k * c.n, 13 * static_cast<std::uint64_t>(c.n + c.k));
    const auto bias = RandomVec(c.n, 23);
    const auto want =
        ReferenceF32(c.m, c.n, c.k, a, b, c.bias ? bias.data() : nullptr, c.relu);

    std::vector<float> bp(PackedBF32Elems(c.n, c.k, c.s));
    PackBF32(b.data(), c.n, c.k, c.s, bp.data());
    std::vector<float> got(static_cast<std::size_t>(c.m * c.n), -1.0f);
    GemmPackedF32(c.m, c.n, c.k, a.data(), bp.data(),
                  c.bias ? bias.data() : nullptr, c.relu, got.data(), c.s);
    // K up to 512 at |a|,|b| <= 1: absolute error stays well under 1e-3.
    ExpectClose(got, want, 1e-3, "schedule " + c.s.ToString());
  }
}

TEST(GemmPackedF32, PackBFromTransposedMatchesPackB) {
  const std::int64_t n = 37, k = 29;
  GemmSchedule s;
  s.nr = 16;
  const auto w = RandomVec(n * k, 99);  // {n, k} a dense weight
  std::vector<float> b(static_cast<std::size_t>(k * n));
  for (std::int64_t j = 0; j < n; ++j) {
    for (std::int64_t p = 0; p < k; ++p) {
      b[p * n + j] = w[j * k + p];
    }
  }
  std::vector<float> packed_a(PackedBF32Elems(n, k, s)), packed_b(packed_a.size());
  PackBF32(b.data(), n, k, s, packed_a.data());
  PackBF32FromTransposed(w.data(), n, k, s, packed_b.data());
  EXPECT_EQ(packed_a, packed_b);
}

// -------------------------------------------------------------------- integer path

struct S8Case {
  std::int64_t m, n, k;
  GemmSchedule s;
  bool bias, relu, requant;
  std::int32_t out_zero;
};

std::vector<std::uint8_t> RandomU8(std::int64_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> v(static_cast<std::size_t>(count));
  for (auto& x : v) {
    x = static_cast<std::uint8_t>(static_cast<std::int64_t>(rng.NextFloat(0.0f, 256.0f)) & 0xFF);
  }
  return v;
}

std::vector<std::int8_t> RandomS8(std::int64_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int8_t> v(static_cast<std::size_t>(count));
  for (auto& x : v) {
    x = static_cast<std::int8_t>(static_cast<std::int64_t>(rng.NextFloat(-127.0f, 128.0f)));
  }
  return v;
}

// Naive u8·s8 reference with the integer epilogue, mirroring StoreTileS8.
void ReferenceU8S8(const S8Case& c, const std::vector<std::uint8_t>& a,
                   const std::vector<std::int8_t>& w,
                   const std::vector<std::int32_t>& bias,
                   const std::vector<float>& mult, void* out) {
  for (std::int64_t i = 0; i < c.m; ++i) {
    for (std::int64_t j = 0; j < c.n; ++j) {
      std::int32_t acc = 0;
      for (std::int64_t p = 0; p < c.k; ++p) {
        acc += static_cast<std::int32_t>(a[i * c.k + p]) *
               static_cast<std::int32_t>(w[j * c.k + p]);
      }
      if (c.bias) {
        acc += bias[j];
      }
      if (c.relu && acc < 0) {
        acc = 0;
      }
      const float scaled = static_cast<float>(acc) * mult[j];
      if (c.requant) {
        std::int32_t q = static_cast<std::int32_t>(std::lrintf(scaled)) + c.out_zero;
        q = q > 255 ? 255 : (q < 0 ? 0 : q);
        static_cast<std::uint8_t*>(out)[i * c.n + j] = static_cast<std::uint8_t>(q);
      } else {
        static_cast<float*>(out)[i * c.n + j] = scaled;
      }
    }
  }
}

TEST(GemmPackedU8S8, ExactAgainstReferenceAndBitwiseAcrossIsaTiers) {
  const std::vector<S8Case> cases = {
      {64, 256, 64, {64, 128, 64, 4, 16, DType::kU8}, true, true, false, 0},
      {8, 10, 512, {64, 256, 512, 4, 16, DType::kU8}, true, false, false, 0},
      // Requantizing u8 stores with and without a zero point; k % 4 != 0 exercises
      // quad padding.
      {13, 37, 70, {8, 32, 70, 4, 16, DType::kU8}, true, true, true, 0},
      {15, 33, 66, {8, 32, 66, 6, 32, DType::kU8}, true, false, true, 17},
      // Off-grid micro pair exercises the MicroEdgeU8 fallback.
      {9, 21, 35, {8, 16, 35, 3, 12, DType::kU8}, false, true, false, 0},
  };
  const std::vector<std::string> tiers = {"baseline", "avx512vnni"};
  for (const auto& c : cases) {
    const auto a = RandomU8(c.m * c.k, 5);
    const auto w = RandomS8(c.n * c.k, 11);
    std::vector<std::int32_t> bias(static_cast<std::size_t>(c.n));
    Rng rng(31);
    for (auto& b : bias) {
      b = static_cast<std::int32_t>(rng.NextFloat(-500.0f, 500.0f));
    }
    std::vector<float> mult(static_cast<std::size_t>(c.n));
    for (auto& mval : mult) {
      mval = rng.NextFloat(0.001f, 0.01f);
    }

    const std::size_t out_bytes = static_cast<std::size_t>(c.m * c.n) *
                                  (c.requant ? 1 : sizeof(float));
    std::vector<std::uint8_t> want(out_bytes);
    ReferenceU8S8(c, a, w, bias, mult, want.data());

    std::vector<std::int8_t> bp(PackedBS8Bytes(c.n, c.k, c.s));
    PackBS8FromTransposed(w.data(), c.n, c.k, c.s, bp.data());

    std::vector<std::uint8_t> first;
    for (const auto& tier : tiers) {
      if (!SetGemmPackedS8IsaOverride(tier.c_str())) {
        continue;  // tier not runnable on this CPU/build
      }
      std::vector<std::uint8_t> got(out_bytes, 0xAB);
      GemmPackedU8S8(c.m, c.n, c.k, a.data(), bp.data(),
                     c.bias ? bias.data() : nullptr, mult.data(), c.relu, c.requant,
                     c.out_zero, got.data(), c.s);
      EXPECT_EQ(got, want) << "tier " << tier << " schedule " << c.s.ToString();
      if (first.empty()) {
        first = got;
      } else {
        EXPECT_EQ(got, first) << "tier " << tier << " diverges bitwise";
      }
    }
    SetGemmPackedS8IsaOverride(nullptr);
  }
}

TEST(GemmPackedIsa, OverrideHooksRejectUnknownNames) {
  EXPECT_FALSE(SetGemmPackedIsaOverride("not-an-isa"));
  EXPECT_FALSE(SetGemmPackedS8IsaOverride("not-an-isa"));
  EXPECT_TRUE(SetGemmPackedIsaOverride("baseline"));
  EXPECT_STREQ(GemmPackedIsaName(), "baseline");
  EXPECT_TRUE(SetGemmPackedIsaOverride(""));
  EXPECT_TRUE(SetGemmPackedS8IsaOverride("baseline"));
  EXPECT_STREQ(GemmPackedS8IsaName(), "baseline");
  EXPECT_TRUE(SetGemmPackedS8IsaOverride(nullptr));
}

TEST(GemmPackedF32, MultiThreadedMatchesSerial) {
  const std::int64_t m = 67, n = 130, k = 45;
  GemmSchedule s;
  s.mc = 16;
  s.nc = 32;
  s.kc = 16;
  const auto a = RandomVec(m * k, 3);
  const auto b = RandomVec(k * n, 4);
  std::vector<float> bp(PackedBF32Elems(n, k, s));
  PackBF32(b.data(), n, k, s, bp.data());

  std::vector<float> serial_out(static_cast<std::size_t>(m * n));
  GemmPackedF32(m, n, k, a.data(), bp.data(), nullptr, false, serial_out.data(), s);
  // The fork-join split only changes which worker runs a macro tile, never the
  // per-tile arithmetic, so threaded output is bitwise equal.
  NeoThreadPool pool(4, /*bind_threads=*/false);
  std::vector<float> pooled(static_cast<std::size_t>(m * n));
  GemmPackedF32(m, n, k, a.data(), bp.data(), nullptr, false, pooled.data(), s, nullptr,
                &pool);
  EXPECT_EQ(serial_out, pooled);
}

}  // namespace
}  // namespace neocpu
