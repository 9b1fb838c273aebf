// Tests for the tuning stack: schedule space (paper §3.3.1 candidate lists), analytic
// cost model properties, measured search, and tuning-cache memoization. (The cache's
// own behaviour — keys, persistence, concurrency — lives in tuning_cache_test.cc.)
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "src/base/cpu_info.h"
#include "src/core/target.h"
#include "src/tuning/cost_model.h"
#include "src/tuning/local_search.h"
#include "src/tuning/schedule_space.h"
#include "src/tuning/tuning_cache.h"

namespace neocpu {
namespace {

TEST(Factors, AllFactorsAscending) {
  EXPECT_EQ(Factors(64, 64), (std::vector<std::int64_t>{1, 2, 4, 8, 16, 32, 64}));
  EXPECT_EQ(Factors(64, 16), (std::vector<std::int64_t>{1, 2, 4, 8, 16}));
  EXPECT_EQ(Factors(3, 64), (std::vector<std::int64_t>{1, 3}));
  EXPECT_EQ(Factors(1, 64), (std::vector<std::int64_t>{1}));
}

TEST(ScheduleSpace, MatchesPaperCandidateLists) {
  // Paper: "if the number of channels is 64, [32, 16, 8, 4, 2, 1] are listed as the
  // candidates" (plus 64 itself under our cap), reg_n from [32,16,8,4,2], unroll both.
  // oc_bn keeps only the templated blocks, so 1 and 2 drop out on the output side.
  Conv2dParams p{1, 64, 28, 28, 64, 3, 3, 1, 1, 1, 1};
  const Target t = Target::SkylakeAvx512();
  auto schedules = EnumerateSchedules(p, t, /*quick_space=*/false);
  // MaxBlock of avx512 = 2*16 = 32: 6 ic factors {1..32}, 4 templated oc {4..32}.
  EXPECT_EQ(schedules.size(), 6u * 4u * 5u * 2u);
  bool has_paper_tuple = false;
  for (const ConvSchedule& s : schedules) {
    EXPECT_EQ(64 % s.ic_bn, 0);
    EXPECT_EQ(64 % s.oc_bn, 0);
    EXPECT_LE(s.oc_bn, t.MaxBlock());
    EXPECT_TRUE(IsTemplated(s)) << s.ToString();
    if (s.ic_bn == 16 && s.oc_bn == 16 && s.reg_n == 8 && s.unroll_ker) {
      has_paper_tuple = true;
    }
  }
  EXPECT_TRUE(has_paper_tuple);
}

TEST(ScheduleSpace, QuickSpaceIsSubset) {
  Conv2dParams p{1, 256, 14, 14, 256, 3, 3, 1, 1, 1, 1};
  const Target t = Target::SkylakeAvx512();
  auto full = EnumerateSchedules(p, t, false);
  auto quick = EnumerateSchedules(p, t, true);
  EXPECT_LT(quick.size(), full.size());
  for (const ConvSchedule& s : quick) {
    EXPECT_NE(std::find(full.begin(), full.end(), s), full.end());
  }
}

TEST(ScheduleSpace, NeonProfileRestrictsBlocks) {
  Conv2dParams p{1, 256, 14, 14, 256, 3, 3, 1, 1, 1, 1};
  for (const ConvSchedule& s : EnumerateSchedules(p, Target::ArmA72Neon(), false)) {
    EXPECT_LE(s.oc_bn, 8);  // 2 * 4 lanes
    EXPECT_LE(s.ic_bn, 8);
  }
}

TEST(AnalyticCost, ScalesWithWork) {
  const Target t = Target::SkylakeAvx512();
  ConvSchedule s{16, 16, 8, true};
  Conv2dParams small{1, 64, 14, 14, 64, 3, 3, 1, 1, 1, 1};
  Conv2dParams big{1, 64, 28, 28, 64, 3, 3, 1, 1, 1, 1};
  EXPECT_GT(AnalyticConvMs(big, s, t), 2.0 * AnalyticConvMs(small, s, t));
}

TEST(AnalyticCost, PenalizesNonVectorBlocks) {
  const Target t = Target::SkylakeAvx512();
  Conv2dParams p{1, 64, 14, 14, 64, 3, 3, 1, 1, 1, 1};
  // Output blocks below one 16-lane vector leave lanes idle in every FMA.
  const double ms4 = AnalyticConvMs(p, ConvSchedule{16, 4, 8, true}, t);
  const double ms8 = AnalyticConvMs(p, ConvSchedule{16, 8, 8, true}, t);
  const double ms_lane = AnalyticConvMs(p, ConvSchedule{16, 16, 8, true}, t);
  EXPECT_GT(ms4, ms8);
  EXPECT_GT(ms8, ms_lane);
}

// The register tile needs enough independent accumulators to hide the FMA latency:
// 4 (reg_n 4, one vector) is slower than 16 (reg_n 8, two vectors).
TEST(AnalyticCost, PenalizesTooFewAccumulators) {
  const Target t = Target::SkylakeAvx512();
  Conv2dParams p{1, 64, 56, 56, 64, 3, 3, 1, 1, 1, 1};
  EXPECT_GT(AnalyticConvMs(p, ConvSchedule{16, 16, 4, true}, t),
            AnalyticConvMs(p, ConvSchedule{16, 32, 8, true}, t));
}

TEST(AnalyticCost, PenalizesRegisterSpill) {
  const Target t = Target::EpycAvx2();  // 16 vector registers
  Conv2dParams p{1, 64, 28, 28, 64, 3, 3, 1, 1, 1, 1};
  // reg_n=32 with oc_bn=16 needs 32*2+2 = 66 vector registers on AVX2: heavy spill.
  const double spill = AnalyticConvMs(p, ConvSchedule{16, 16, 32, true}, t);
  const double fit = AnalyticConvMs(p, ConvSchedule{16, 16, 8, true}, t);
  EXPECT_GT(spill, fit);
}

// The int8 row driver computes whole reg_n blocks, so the analytic model charges the
// positions the last block computes but does not store.
TEST(AnalyticCost, S8BlockRoundingWaste) {
  // 7-wide output (resnet stage 4): one block of 8 for reg_n 2, 4 and 8; 32 computes
  // 32 positions for 7.
  EXPECT_DOUBLE_EQ(BlockRoundingFactor(7, 2), 8.0 / 7.0);
  EXPECT_DOUBLE_EQ(BlockRoundingFactor(7, 4), 8.0 / 7.0);
  EXPECT_DOUBLE_EQ(BlockRoundingFactor(7, 8), 8.0 / 7.0);
  EXPECT_DOUBLE_EQ(BlockRoundingFactor(7, 32), 32.0 / 7.0);
  // 56-wide output: reg_n 8 tiles it exactly, reg_n 16 computes 64 positions.
  EXPECT_DOUBLE_EQ(BlockRoundingFactor(56, 8), 1.0);
  EXPECT_DOUBLE_EQ(BlockRoundingFactor(56, 16), 64.0 / 56.0);

  const Target t = Target::SkylakeAvx512();
  ConvSchedule fit{64, 64, 8, true};
  fit.dtype = DType::kU8;
  ConvSchedule wasteful = fit;
  wasteful.reg_n = 32;
  const Conv2dParams narrow{1, 512, 7, 7, 512, 3, 3, 1, 1, 1, 1};
  EXPECT_GT(AnalyticConvMs(narrow, wasteful, t), 3.0 * AnalyticConvMs(narrow, fit, t));
}

TEST(AnalyticCost, FasterTargetsPredictLowerTime) {
  Conv2dParams p{1, 64, 28, 28, 64, 3, 3, 1, 1, 1, 1};
  ConvSchedule avx512_s{16, 16, 8, true};
  ConvSchedule neon_s{4, 4, 8, true};
  EXPECT_LT(AnalyticConvMs(p, avx512_s, Target::SkylakeAvx512()),
            AnalyticConvMs(p, neon_s, Target::ArmA72Neon()));
}

TEST(MeasuredCost, ReturnsPositiveAndRepeatable) {
  Conv2dParams p{1, 32, 14, 14, 32, 3, 3, 1, 1, 1, 1};
  ConvSchedule s{16, 16, 8, true};
  const double ms = MeasureConvMs(p, s, nullptr, /*runs=*/2);
  EXPECT_GT(ms, 0.0);
  EXPECT_LT(ms, 1000.0);
}

TEST(MeasuredCost, PrefersRegisterBlockingOverNone) {
  // reg_n=8 should comfortably beat reg_n=2's weight-reload-per-two-outputs on a
  // compute-bound workload. (Measured on the real kernel: this is the core Figure 1
  // claim that register blocking matters.)
  if (HostCpuInfo().physical_cores < 2) {
    // On a single-core host every concurrently running test perturbs the measurement;
    // the ranking claim is unverifiable noise there, not a kernel property.
    GTEST_SKIP() << "measured-cost ranking is unreliable on single-core hosts";
  }
  Conv2dParams p{1, 64, 28, 28, 64, 3, 3, 1, 1, 1, 1};
  // Best-of-N: each MeasureConvMs already takes the min over its runs, and repeating
  // the whole measurement N times shakes off scheduler noise bursts (ctest runs suites
  // in parallel).
  double blocked = 1e30;
  double minimal = 1e30;
  for (int trial = 0; trial < 5; ++trial) {
    blocked = std::min(blocked, MeasureConvMs(p, ConvSchedule{16, 16, 8, true}, nullptr, 3));
    minimal = std::min(minimal, MeasureConvMs(p, ConvSchedule{16, 16, 2, true}, nullptr, 3));
  }
  EXPECT_LT(blocked, minimal * 1.15);  // allow noise; blocked must not be slower
}

TEST(TransformCost, MonotonicInBytes) {
  EXPECT_GT(TransformMs(1 << 22), TransformMs(1 << 20));
  EXPECT_GT(CalibratedCopyBytesPerMs(), 0.0);
}

TEST(LocalSearch, RankedAscendingAndComplete) {
  Conv2dParams p{1, 64, 14, 14, 64, 3, 3, 1, 1, 1, 1};
  LocalSearchResult r = LocalSearchConv(p, Target::SkylakeAvx512(), CostMode::kAnalytic,
                                        /*quick_space=*/false);
  ASSERT_FALSE(r.ranked.empty());
  for (std::size_t i = 1; i < r.ranked.size(); ++i) {
    EXPECT_LE(r.ranked[i - 1].ms, r.ranked[i].ms);
  }
  const ScheduleCost* pair_best = r.BestForPair(16, 16);
  ASSERT_NE(pair_best, nullptr);
  EXPECT_EQ(pair_best->schedule.ic_bn, 16);
  EXPECT_EQ(pair_best->schedule.oc_bn, 16);
  EXPECT_EQ(r.BestForPair(5, 5), nullptr);
}

TEST(LocalSearch, AnalyticBestIsReasonableUnderMeasurement) {
  // The analytic model's top choice must be within 2.5x of the measured-best schedule —
  // a loose sanity bound that catches gross model breakage without flaky tightness.
  Conv2dParams p{1, 64, 28, 28, 64, 3, 3, 1, 1, 1, 1};
  const Target t = Target::Host();
  LocalSearchResult analytic = LocalSearchConv(p, t, CostMode::kAnalytic, true);
  LocalSearchResult measured = LocalSearchConv(p, t, CostMode::kMeasured, true);
  const double analytic_choice_measured_ms =
      MeasureConvMs(p, analytic.best().schedule, nullptr, 3);
  EXPECT_LT(analytic_choice_measured_ms, 2.5 * measured.best().ms)
      << "analytic pick " << analytic.best().schedule.ToString() << " vs measured best "
      << measured.best().schedule.ToString();
}

TEST(LocalSearch, MemoizesThroughTuningCache) {
  TuningCache cache;
  Conv2dParams p{1, 32, 14, 14, 32, 3, 3, 1, 1, 1, 1};
  const Target t = Target::SkylakeAvx512();
  LocalSearchResult first =
      LocalSearchConv(p, t, CostMode::kAnalytic, true, nullptr, &cache);
  EXPECT_EQ(cache.size(), 1u);
  LocalSearchResult second =
      LocalSearchConv(p, t, CostMode::kAnalytic, true, nullptr, &cache);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(first.ranked.size(), second.ranked.size());
  EXPECT_EQ(first.best().schedule, second.best().schedule);
  const TuningCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(LocalSearch, BatchIsPartOfTheWorkloadIdentity) {
  // The same conv shape at batch 1 and batch 8 must occupy two cache entries: batch
  // changes the parallelism grain and footprint, so the tunings are not interchangeable.
  TuningCache cache;
  const Target t = Target::SkylakeAvx512();
  Conv2dParams batch1{1, 32, 14, 14, 32, 3, 3, 1, 1, 1, 1};
  Conv2dParams batch8 = batch1;
  batch8.batch = 8;
  LocalSearchConv(batch1, t, CostMode::kAnalytic, true, nullptr, &cache);
  LocalSearchConv(batch8, t, CostMode::kAnalytic, true, nullptr, &cache);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Stats().misses, 2u);
}

TEST(Target, ByNameRoundTrip) {
  EXPECT_EQ(Target::ByName("avx512").vector_lanes, 16);
  EXPECT_EQ(Target::ByName("avx2").vector_lanes, 8);
  EXPECT_EQ(Target::ByName("neon").vector_lanes, 4);
  EXPECT_EQ(Target::ByName("host").name, "host");
  EXPECT_EQ(Target::ArmA72Neon().PreferredBlock(), 4);
  EXPECT_EQ(Target::SkylakeAvx512().MaxBlock(), 32);
}

}  // namespace
}  // namespace neocpu
