// Unit tests for src/base: stats, rng, strings, cpu detection, env knobs.
#include <gtest/gtest.h>

#include <cstdlib>

#include "src/base/align.h"
#include "src/base/cpu_info.h"
#include "src/base/rng.h"
#include "src/base/string_util.h"
#include "src/base/timer.h"
#include "src/core/target.h"
#include "src/kernels/conv_nchwc.h"

namespace neocpu {
namespace {

TEST(RunStats, EmptySamples) {
  RunStats s = RunStats::FromSamples({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(RunStats, SingleSample) {
  RunStats s = RunStats::FromSamples({4.0});
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 4.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.min, 4.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
}

TEST(RunStats, MeanAndStderr) {
  RunStats s = RunStats::FromSamples({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_NEAR(s.stddev, 1.2909944, 1e-6);
  EXPECT_NEAR(s.stderr_, 1.2909944 / 2.0, 1e-6);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
}

TEST(MeasureMillis, RunsRequestedCount) {
  int calls = 0;
  RunStats s = MeasureMillis([&] { ++calls; }, /*runs=*/3, /*warmup=*/2);
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(s.count, 3u);
  EXPECT_GE(s.mean, 0.0);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) {
    sink += i;
  }
  EXPECT_GE(t.Seconds(), 0.0);
  EXPECT_GE(t.Millis(), t.Seconds());  // ms value >= s value numerically
}

TEST(Rng, DeterministicGivenSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  EXPECT_NE(a.NextU64(), b.NextU64());
}

TEST(Rng, FloatRangeRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.NextFloat(-2.0f, 3.0f);
    EXPECT_GE(v, -2.0f);
    EXPECT_LT(v, 3.0f);
  }
}

TEST(Rng, BoundedRespectsBound) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
  EXPECT_EQ(rng.NextBounded(0), 0u);
}

TEST(StrFormat, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s-%.1f", 3, "x", 2.5), "3-x-2.5");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(Join, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(CpuInfo, DetectsSomethingSane) {
  const CpuInfo& info = HostCpuInfo();
  EXPECT_GE(info.physical_cores, 1);
  EXPECT_GE(info.vector_bits, 128);
  EXPECT_EQ(info.vector_bits % 32, 0);
  EXPECT_GT(info.l1d_bytes, 0u);
  EXPECT_STRNE(SimdIsaName(info.isa), "unknown");
}

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
TEST(CpuInfo, IsaAndFmaFollowCpuidNotCompileFlags) {
  __builtin_cpu_init();
  const bool fma = __builtin_cpu_supports("fma");
  const bool avx512 = __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
                      __builtin_cpu_supports("avx512vl") &&
                      __builtin_cpu_supports("avx512dq") && fma;
  const bool avx2 = __builtin_cpu_supports("avx2") && fma;
  const CpuInfo& info = HostCpuInfo();
  EXPECT_EQ(info.isa, avx512 ? SimdIsa::kAvx512 : avx2 ? SimdIsa::kAvx2 : SimdIsa::kScalar);
  EXPECT_EQ(info.VectorLanesF32(), avx512 ? 16 : avx2 ? 8 : 4);
  EXPECT_EQ(info.has_fma, fma);
  EXPECT_EQ(info.has_vnni, __builtin_cpu_supports("avx512vnni") != 0);
}
#endif

TEST(Target, HostDescribesTheDispatchedF32ConvTier) {
  const IsaTier tier = ConvNCHWcHostTier();
  EXPECT_TRUE(CpuSupportsTier(tier));
  const int lanes = tier == IsaTier::kAvx512 ? 16 : tier == IsaTier::kAvx2 ? 8 : 4;
  const Target host = Target::Host();
  EXPECT_EQ(host.vector_lanes, lanes) << IsaTierName(tier);
  EXPECT_LE(host.vector_lanes, HostCpuInfo().VectorLanesF32());
}

TEST(EnvSizeT, ParsesAndFallsBack) {
  ::setenv("NEOCPU_TEST_ENV_KNOB", "42", 1);
  EXPECT_EQ(EnvSizeT("NEOCPU_TEST_ENV_KNOB", 7), 42u);
  ::setenv("NEOCPU_TEST_ENV_KNOB", "junk", 1);
  EXPECT_EQ(EnvSizeT("NEOCPU_TEST_ENV_KNOB", 7), 7u);
  ::unsetenv("NEOCPU_TEST_ENV_KNOB");
  EXPECT_EQ(EnvSizeT("NEOCPU_TEST_ENV_KNOB", 9), 9u);
}

TEST(AlignedAlloc, ReturnsAlignedPointers) {
  for (std::size_t bytes : {1u, 63u, 64u, 100u, 4096u}) {
    void* p = AlignedAlloc(bytes);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kSimdAlignBytes, 0u);
    AlignedFree(p);
  }
  EXPECT_EQ(AlignedAlloc(0), nullptr);
}

}  // namespace
}  // namespace neocpu
