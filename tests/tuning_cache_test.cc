// Tests for the batch-aware tuning subsystem: WorkloadKey identity and text
// round-trips, TuningCache hit/miss accounting, versioned persistence, concurrent
// access, and the compiler-level per-batch plumbing (CompileStats, RetuneForBatch,
// module serialization of multi-batch caches).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "src/base/rng.h"
#include "src/core/compiler.h"
#include "src/core/serialization.h"
#include "src/models/model_zoo.h"
#include "src/serve/batch_util.h"
#include "src/tuning/local_search.h"
#include "src/tuning/tuning_cache.h"
#include "src/tuning/workload_key.h"

namespace neocpu {
namespace {

Conv2dParams TestConv(std::int64_t batch = 1) {
  return Conv2dParams{batch, 32, 14, 14, 64, 3, 3, 1, 1, 1, 1};
}

LocalSearchResult SearchFor(const Conv2dParams& params, const Target& target) {
  return LocalSearchConv(params, target, CostMode::kAnalytic, /*quick_space=*/true);
}

TEST(WorkloadKey, DistinguishesEveryIdentityField) {
  const WorkloadKey base =
      WorkloadKey::Of(TestConv(1), Target::SkylakeAvx512(), CostMode::kAnalytic, true);
  WorkloadKey batch = base;
  batch.conv.batch = 8;
  WorkloadKey target = base;
  target.target = Target::EpycAvx2().name;
  WorkloadKey mode = base;
  mode.cost_mode = CostMode::kMeasured;
  WorkloadKey space = base;
  space.quick_space = false;
  for (const WorkloadKey& other : {batch, target, mode, space}) {
    EXPECT_NE(base, other);
    EXPECT_NE(base.ToString(), other.ToString());
  }
}

TEST(WorkloadKey, ToStringParseRoundTrip) {
  const WorkloadKey key =
      WorkloadKey::Of(TestConv(8), Target::ArmA72Neon(), CostMode::kMeasured, false);
  WorkloadKey parsed;
  ASSERT_TRUE(WorkloadKey::Parse(key.ToString(), &parsed));
  EXPECT_EQ(key, parsed);
}

TEST(WorkloadKey, ParseRejectsMalformedText) {
  WorkloadKey parsed;
  EXPECT_FALSE(WorkloadKey::Parse("", &parsed));
  EXPECT_FALSE(WorkloadKey::Parse("avx512|garbage|analytic|quick", &parsed));
  EXPECT_FALSE(WorkloadKey::Parse("avx512|1_32_14x14_64_3x3_1x1_1x1|warp|quick", &parsed));
  EXPECT_FALSE(WorkloadKey::Parse("avx512|1_32_14x14_64_3x3_1x1_1x1|analytic|sideways",
                                  &parsed));
  EXPECT_FALSE(WorkloadKey::Parse("too|many|fields|in|here", &parsed));
  // u8 is the only dtype token; s8 activations are gone.
  EXPECT_FALSE(
      WorkloadKey::Parse("avx512|1_32_14x14_64_3x3_1x1_1x1|analytic|quick|s8", &parsed));
  const WorkloadKey valid =
      WorkloadKey::Of(TestConv(), Target::SkylakeAvx512(), CostMode::kAnalytic, true);
  ASSERT_TRUE(WorkloadKey::Parse(valid.ToString(), &parsed));
}

TEST(TuningCache, HitMissAccounting) {
  TuningCache cache;
  const Target t = Target::SkylakeAvx512();
  const WorkloadKey key1 = WorkloadKey::Of(TestConv(1), t, CostMode::kAnalytic, true);
  const WorkloadKey key8 = WorkloadKey::Of(TestConv(8), t, CostMode::kAnalytic, true);

  EXPECT_EQ(cache.Find(key1), nullptr);
  cache.Insert(key1, SearchFor(TestConv(1), t));
  EXPECT_NE(cache.Find(key1), nullptr);
  EXPECT_EQ(cache.Find(key8), nullptr);  // batch 8 is a different workload

  const TuningCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_NEAR(stats.HitRate(), 1.0 / 3.0, 1e-12);
}

TEST(TuningCache, SaveLoadRoundTripAcrossBatches) {
  TuningCache cache;
  const Target t = Target::EpycAvx2();
  for (std::int64_t batch : {1, 4, 8}) {
    cache.Insert(WorkloadKey::Of(TestConv(batch), t, CostMode::kAnalytic, true),
                 SearchFor(TestConv(batch), t));
  }
  const std::string path = ::testing::TempDir() + "/neocpu_tuning_cache_test.txt";
  ASSERT_TRUE(cache.SaveToFile(path));

  TuningCache loaded;
  ASSERT_TRUE(loaded.LoadFromFile(path));
  EXPECT_EQ(loaded.size(), 3u);
  for (std::int64_t batch : {1, 4, 8}) {
    const WorkloadKey key = WorkloadKey::Of(TestConv(batch), t, CostMode::kAnalytic, true);
    auto original = cache.Find(key);
    auto restored = loaded.Find(key);
    ASSERT_NE(restored, nullptr) << "batch " << batch;
    EXPECT_EQ(restored->ranked.size(), original->ranked.size());
    EXPECT_EQ(restored->best().schedule, original->best().schedule);
    EXPECT_NEAR(restored->best().ms, original->best().ms, 1e-9);
  }
  std::remove(path.c_str());
}

TEST(TuningCache, HostEntriesFromANarrowerHostMiss) {
  // A cache persisted on a 4-lane host (or before the runtime ISA detection) must not
  // serve its schedules to a 16-lane host: host-derived keys spell the vector tier.
  Target narrow = Target::Host();
  narrow.vector_lanes = 4;
  narrow.num_vector_registers = 16;
  Target wide = Target::Host();
  wide.vector_lanes = 16;
  wide.num_vector_registers = 32;
  const WorkloadKey narrow_key =
      WorkloadKey::Of(TestConv(), narrow, CostMode::kAnalytic, true);
  const WorkloadKey wide_key = WorkloadKey::Of(TestConv(), wide, CostMode::kAnalytic, true);
  EXPECT_EQ(narrow_key.target, "host@baseline");
  EXPECT_EQ(wide_key.target, "host@avx512");
  WorkloadKey parsed;
  ASSERT_TRUE(WorkloadKey::Parse(wide_key.ToString(), &parsed));
  EXPECT_EQ(parsed, wide_key);

  TuningCache cache;
  cache.Insert(narrow_key, SearchFor(TestConv(), narrow));
  const std::string path = ::testing::TempDir() + "/neocpu_tuning_cache_host_tier.txt";
  ASSERT_TRUE(cache.SaveToFile(path));
  TuningCache loaded;
  ASSERT_TRUE(loaded.LoadFromFile(path));
  EXPECT_NE(loaded.Find(narrow_key), nullptr);
  EXPECT_EQ(loaded.Find(wide_key), nullptr);
  std::remove(path.c_str());
}

TEST(TuningCache, SaveIsCrashConsistentAtEveryKillPoint) {
  const Target t = Target::EpycAvx2();
  const std::string path = ::testing::TempDir() + "/neocpu_tuning_cache_crash_test.txt";
  const WorkloadKey key1 = WorkloadKey::Of(TestConv(1), t, CostMode::kAnalytic, true);
  const WorkloadKey key8 = WorkloadKey::Of(TestConv(8), t, CostMode::kAnalytic, true);

  // Establish a good on-disk generation with one entry.
  TuningCache v1;
  v1.Insert(key1, SearchFor(TestConv(1), t));
  ASSERT_TRUE(v1.SaveToFile(path));

  // A save of a bigger cache "crashes" at each kill point in turn. The destination
  // must still hold the complete first generation afterwards — never a torn file.
  TuningCache v2;
  v2.Insert(key1, SearchFor(TestConv(1), t));
  v2.Insert(key8, SearchFor(TestConv(8), t));
  for (TuningCache::SaveKillPoint point : {TuningCache::SaveKillPoint::kAfterTempWrite,
                                           TuningCache::SaveKillPoint::kBeforeRename}) {
    TuningCache::SetSaveKillPointForTest(point);
    EXPECT_FALSE(v2.SaveToFile(path));
    TuningCache::SetSaveKillPointForTest(TuningCache::SaveKillPoint::kNone);

    TuningCache survivor;
    ASSERT_TRUE(survivor.LoadFromFile(path));
    EXPECT_EQ(survivor.size(), 1u);  // old generation, intact
    EXPECT_NE(survivor.Find(key1), nullptr);
    EXPECT_EQ(survivor.Find(key8), nullptr);
  }

  // The next clean save recovers: it overwrites the orphaned temp and commits.
  ASSERT_TRUE(v2.SaveToFile(path));
  TuningCache recovered;
  ASSERT_TRUE(recovered.LoadFromFile(path));
  EXPECT_EQ(recovered.size(), 2u);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(TuningCache, RejectsWrongVersionAndGarbage) {
  TuningCache cache;
  std::istringstream wrong_version("neocpu-tuning-cache 1 0\n");
  EXPECT_FALSE(cache.Deserialize(wrong_version));
  std::istringstream garbage("not-a-cache at all\n");
  EXPECT_FALSE(cache.Deserialize(garbage));
  std::istringstream older_version("neocpu-tuning-cache 4 0\n");
  EXPECT_FALSE(cache.Deserialize(older_version));
  std::istringstream truncated(
      "neocpu-tuning-cache 5 1\nworkload avx512|1_32_14x14_64_3x3_1x1_1x1|analytic|quick "
      "3\n16 16 8 1 0 0 0.5\n");
  EXPECT_FALSE(cache.Deserialize(truncated));
  EXPECT_EQ(cache.size(), 0u);  // failures leave the cache untouched
}

// A cache saved by a build that still had s8 activations has the same v5 layout but
// `|s8` key tokens and dtype-1 schedule lines. Loading it fails cleanly — no abort, no
// entry — and so does a u8 entry carrying an s8 schedule line.
TEST(TuningCache, RejectsS8Entries) {
  const std::string path = ::testing::TempDir() + "/s8_cache.v5";
  {
    std::ofstream out(path);
    out << "neocpu-tuning-cache 5 1\n"
           "workload avx512|1_32_14x14_64_3x3_1x1_1x1|analytic|quick|s8 1\n"
           "16 64 8 1 0 1 0.5\n";
  }
  TuningCache cache;
  EXPECT_FALSE(cache.LoadFromFile(path));
  EXPECT_EQ(cache.size(), 0u);
  std::remove(path.c_str());

  std::istringstream mixed(
      "neocpu-tuning-cache 5 1\n"
      "workload avx512|1_32_14x14_64_3x3_1x1_1x1|analytic|quick|u8 1\n"
      "16 64 8 1 0 1 0.5\n");
  EXPECT_FALSE(cache.Deserialize(mixed));
  EXPECT_EQ(cache.size(), 0u);
}

// Earlier builds also ranked int8 blocks the kernel is not instantiated for (here
// oc_bn 12). Loading drops those schedule lines, and an entry left with none, so a
// warm start can never select one.
TEST(TuningCache, DropsUntemplatedInt8Schedules) {
  const Target t = Target::SkylakeAvx512();
  const WorkloadKey kept = WorkloadKey::Of(TestConv(1), t, CostMode::kAnalytic, true,
                                           DType::kU8);
  const WorkloadKey gone = WorkloadKey::Of(TestConv(2), t, CostMode::kAnalytic, true,
                                           DType::kU8);
  std::istringstream text("neocpu-tuning-cache 5 2\nworkload " + kept.ToString() +
                          " 2\n16 12 8 1 0 2 0.4\n16 16 8 1 0 2 0.5\nworkload " +
                          gone.ToString() + " 1\n16 12 8 1 0 2 0.4\n");
  TuningCache cache;
  ASSERT_TRUE(cache.Deserialize(text));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Find(gone), nullptr);
  const auto entry = cache.Find(kept);
  ASSERT_NE(entry, nullptr);
  ASSERT_EQ(entry->ranked.size(), 1u);
  EXPECT_EQ(entry->ranked[0].schedule.oc_bn, 16);
}

TEST(TuningCache, MergeFromFoldsEntriesAndReplacesDuplicates) {
  const Target t = Target::SkylakeAvx512();
  TuningCache a;
  TuningCache b;
  const LocalSearchResult result = SearchFor(TestConv(1), t);
  a.Insert(WorkloadKey::Of(TestConv(1), t, CostMode::kAnalytic, true), result);
  b.Insert(WorkloadKey::Of(TestConv(1), t, CostMode::kAnalytic, true), result);
  b.Insert(WorkloadKey::Of(TestConv(2), t, CostMode::kAnalytic, true), result);
  a.MergeFrom(b);
  EXPECT_EQ(a.size(), 2u);
  a.MergeFrom(a);  // self-merge is a no-op, not a deadlock
  EXPECT_EQ(a.size(), 2u);
}

TEST(TuningCache, ConcurrentLookupsAndInsertsAreSafe) {
  TuningCache cache;
  const Target t = Target::SkylakeAvx512();
  constexpr int kThreads = 8;
  constexpr int kBatchesPerThread = 16;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&cache, &t, i] {
      for (int b = 1; b <= kBatchesPerThread; ++b) {
        const WorkloadKey key = WorkloadKey::Of(TestConv(b), t, CostMode::kAnalytic, true);
        if (auto hit = cache.Find(key)) {
          EXPECT_FALSE(hit->ranked.empty());
        } else {
          cache.Insert(key, SearchFor(TestConv(b), t));
        }
        (void)i;
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  EXPECT_EQ(cache.size(), static_cast<std::size_t>(kBatchesPerThread));
  for (int b = 1; b <= kBatchesPerThread; ++b) {
    EXPECT_NE(cache.Find(WorkloadKey::Of(TestConv(b), t, CostMode::kAnalytic, true)),
              nullptr);
  }
}

TEST(Compile, RecordsTunedBatchAndCacheTraffic) {
  auto cache = std::make_shared<TuningCache>();
  CompileOptions opts;
  opts.tuning_cache = cache;
  CompiledModel first = Compile(BuildTinyCnn(), opts);
  EXPECT_EQ(first.stats().tuned_batch, 1);
  EXPECT_FALSE(first.stats().retuned);
  EXPECT_GT(first.stats().tuning_cache_misses, 0u);
  EXPECT_EQ(first.tuning().get(), cache.get());

  // Same model, same cache: every workload is already tuned.
  CompiledModel second = Compile(BuildTinyCnn(), opts);
  EXPECT_EQ(second.stats().tuning_cache_misses, 0u);
  EXPECT_GT(second.stats().tuning_cache_hits, 0u);
}

TEST(RetuneForBatch, ProducesBatchTunedModelFromSource) {
  CompiledModel base = Compile(BuildTinyCnn());
  EXPECT_EQ(base.stats().tuned_batch, 1);

  CompiledModel tuned;
  ASSERT_TRUE(RetuneForBatch(base, 8, nullptr, &tuned));
  EXPECT_EQ(tuned.stats().tuned_batch, 8);
  EXPECT_TRUE(tuned.stats().retuned);
  EXPECT_EQ(tuned.graph().node(0).out_dims[0], 8);

  // The batch-8 workloads landed in the shared cache; a second re-tune of the same
  // batch is a pure table lookup.
  CompiledModel again;
  ASSERT_TRUE(RetuneForBatch(base, 8, nullptr, &again));
  EXPECT_EQ(again.stats().tuning_cache_misses, 0u);

  // Correctness: the batch-8-tuned model computes the same function as N serial runs.
  Rng rng(3);
  std::vector<Tensor> samples;
  std::vector<Tensor> expected;
  for (int i = 0; i < 8; ++i) {
    samples.push_back(Tensor::Random({1, 3, 32, 32}, rng, 0.0f, 1.0f, Layout::NCHW()));
    expected.push_back(base.Run(samples.back()));
  }
  std::vector<Tensor> stacked_out = {tuned.Run(StackBatch(samples))};
  std::vector<Tensor> parts = SplitBatch(stacked_out[0], 8);
  for (int i = 0; i < 8; ++i) {
    EXPECT_LT(Tensor::MaxAbsDiff(parts[static_cast<std::size_t>(i)],
                                 expected[static_cast<std::size_t>(i)]),
              1e-4f)
        << "sample " << i;
  }
}

TEST(RetuneForBatch, RejectsInvalidBatch) {
  CompiledModel base = Compile(BuildTinyCnn());
  CompiledModel out;
  EXPECT_FALSE(RetuneForBatch(base, 0, nullptr, &out));
  EXPECT_FALSE(RetuneForBatch(CompiledModel(), 4, nullptr, &out));  // no source graph
}

TEST(Serialization, ModuleRoundTripsTuningStateForAllBatches) {
  auto cache = std::make_shared<TuningCache>();
  CompileOptions opts;
  opts.tuning_cache = cache;
  CompiledModel model = Compile(BuildTinyCnn(), opts);

  // Populate the cache with two more batch variants before saving.
  CompiledModel tuned4;
  CompiledModel tuned8;
  ASSERT_TRUE(RetuneForBatch(model, 4, nullptr, &tuned4));
  ASSERT_TRUE(RetuneForBatch(model, 8, nullptr, &tuned8));
  const std::size_t entries_before = cache->size();
  EXPECT_GT(entries_before, 0u);

  const std::string path = ::testing::TempDir() + "/tiny_cnn_tuning_state.neoc";
  ASSERT_TRUE(SaveModule(model, path));

  CompiledModel loaded;
  ASSERT_TRUE(LoadModule(path, &loaded));
  ASSERT_NE(loaded.tuning(), nullptr);
  EXPECT_EQ(loaded.tuning()->size(), entries_before);
  EXPECT_EQ(loaded.stats().tuned_batch, 1);
  EXPECT_EQ(loaded.config().layout_mode, model.config().layout_mode);
  EXPECT_EQ(loaded.config().target.name, model.config().target.name);
  EXPECT_EQ(loaded.config().quick_space, model.config().quick_space);

  // Warm start: re-tuning batch 8 out of the restored module re-searches nothing.
  CompiledModel warm8;
  ASSERT_TRUE(RetuneForBatch(loaded, 8, nullptr, &warm8));
  EXPECT_EQ(warm8.stats().tuning_cache_misses, 0u);
  EXPECT_GT(warm8.stats().tuning_cache_hits, 0u);
  EXPECT_EQ(warm8.stats().tuned_batch, 8);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace neocpu
