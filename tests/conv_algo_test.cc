// Per-layer convolution algorithm selection (graph-dispatched Winograd).
//
// Covers the selection loop end to end: the analytic cost model ranks algorithms per
// shape (the Winograd-vs-direct winner flips with layer geometry), the global search
// assigns Winograd to real zoo layers, the choice round-trips through TuningCache and
// module serialization, forced-algo overrides work, and graph-dispatched Winograd is
// numerically faithful and bitwise identical between the planned (zero-allocation) and
// allocating execution paths.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/core/compiler.h"
#include "src/core/presets.h"
#include "src/core/serialization.h"
#include "src/graph/builder.h"
#include "src/kernels/conv_winograd.h"
#include "src/models/model_zoo.h"
#include "src/tuning/local_search.h"
#include "src/tuning/tuning_cache.h"

namespace neocpu {
namespace {

constexpr double kRtol = 5e-3;  // deep fp32 chains with reassociation
constexpr double kAtol = 5e-3;

std::string TempPath(const char* name) { return ::testing::TempDir() + "/" + name; }

Tensor InputFor(const Graph& model, std::uint64_t seed = 23) {
  Rng rng(seed);
  for (int i = 0; i < model.num_nodes(); ++i) {
    if (model.node(i).type == OpType::kInput) {
      return Tensor::Random(model.node(i).out_dims, rng, -1.0f, 1.0f, Layout::NCHW());
    }
  }
  ADD_FAILURE() << "no input node";
  return {};
}

int CountConvAlgo(const Graph& g, ConvAlgo algo) {
  int n = 0;
  for (int id = 0; id < g.num_nodes(); ++id) {
    const Node& node = g.node(id);
    n += node.IsConv() && node.attrs.schedule.algo == algo;
  }
  return n;
}

// The workhorse for "Winograd actually got picked by global search": VGG-11 at image 64
// on the EPYC AVX2 profile — its large-channel mid-spatial 3x3 layers are squarely in
// Winograd's modelled sweet spot, while the stem and the L3-overflowing 512-channel
// layers are not.
CompiledModel CompileVggAvx2() {
  Graph model = BuildVgg(11, 1, 64);
  return Compile(model, NeoCpuOptions(Target::EpycAvx2()));
}

TEST(ConvAlgoCost, WinnerFlipsWithLayerShape) {
  const Target t = Target::EpycAvx2();
  // Large channels, mid spatial extent: Winograd's 2.25x MAC saving dominates.
  Conv2dParams big{1, 256, 16, 16, 256, 3, 3, 1, 1, 1, 1};
  EXPECT_LT(AnalyticConvMs(big, AlgoSchedule(ConvAlgo::kWinograd), t),
            AnalyticConvMs(big, ConvSchedule{8, 8, 8, true}, t));
  // Tiny channel count: tile transforms dominate, the blocked template wins.
  Conv2dParams small{1, 3, 64, 64, 8, 3, 3, 1, 1, 1, 1};
  EXPECT_GT(AnalyticConvMs(small, AlgoSchedule(ConvAlgo::kWinograd), t),
            AnalyticConvMs(small, ConvSchedule{3, 8, 8, true}, t));
  // Huge channel count: U falls out of the L3, Winograd pays DRAM per tile. (A tile of
  // 8 accumulators: two AVX2 vectors of output channels by reg_n 4.)
  Conv2dParams huge{1, 512, 8, 8, 512, 3, 3, 1, 1, 1, 1};
  EXPECT_GT(AnalyticConvMs(huge, AlgoSchedule(ConvAlgo::kWinograd), t),
            AnalyticConvMs(huge, ConvSchedule{8, 16, 4, true}, t));
  // The reference loop nest never wins.
  EXPECT_GT(AnalyticConvMs(big, AlgoSchedule(ConvAlgo::kReference), t),
            AnalyticConvMs(big, ConvSchedule{8, 8, 8, true}, t));
}

TEST(ConvAlgoSearch, LocalSearchRanksAlgorithmsAlongsideBlockings) {
  Conv2dParams p{1, 64, 28, 28, 64, 3, 3, 1, 1, 1, 1};
  LocalSearchResult r =
      LocalSearchConv(p, Target::SkylakeAvx512(), CostMode::kAnalytic, true);
  EXPECT_NE(r.BestForAlgo(ConvAlgo::kWinograd), nullptr);
  EXPECT_NE(r.BestForAlgo(ConvAlgo::kIm2col), nullptr);
  EXPECT_NE(r.BestForAlgo(ConvAlgo::kDirectNCHWc), nullptr);
  // 1x1 convolutions are outside Winograd's domain and must not rank it.
  Conv2dParams pointwise{1, 64, 28, 28, 64, 1, 1, 1, 1, 0, 0};
  LocalSearchResult r1 =
      LocalSearchConv(pointwise, Target::SkylakeAvx512(), CostMode::kAnalytic, true);
  EXPECT_EQ(r1.BestForAlgo(ConvAlgo::kWinograd), nullptr);
  EXPECT_NE(r1.BestForAlgo(ConvAlgo::kIm2col), nullptr);
}

TEST(ConvAlgoSearch, GlobalSearchSelectsWinogradOnVgg) {
  CompiledModel compiled = CompileVggAvx2();
  EXPECT_GE(CountConvAlgo(compiled.graph(), ConvAlgo::kWinograd), 1)
      << "no conv layer selected Winograd on the AVX2 profile";
  // Winograd convs read pre-transformed weights {4, 4, OC, IC} and stay NCHW.
  for (int id = 0; id < compiled.graph().num_nodes(); ++id) {
    const Node& node = compiled.graph().node(id);
    if (!node.IsConv() || node.attrs.schedule.algo != ConvAlgo::kWinograd) {
      continue;
    }
    const Tensor& w = compiled.graph().node(node.inputs[1]).payload;
    ASSERT_EQ(w.ndim(), 4);
    EXPECT_EQ(w.dim(0), 4);
    EXPECT_EQ(w.dim(1), 4);
    EXPECT_EQ(w.dim(2), node.attrs.conv.out_c);
    EXPECT_EQ(w.dim(3), node.attrs.conv.in_c);
    EXPECT_EQ(node.out_layout, Layout::NCHW());
  }
  // And the compiled model still matches the unoptimized reference numerically.
  Graph model = BuildVgg(11, 1, 64);
  Tensor input = InputFor(model);
  Tensor expected = Executor(&model).Run(input);
  EXPECT_LE(Tensor::AllCloseViolation(compiled.Run(input), expected, kRtol, kAtol), 0.0);
}

TEST(ConvAlgoSearch, ChoiceRoundTripsThroughModuleSerialization) {
  CompiledModel compiled = CompileVggAvx2();
  const int wino = CountConvAlgo(compiled.graph(), ConvAlgo::kWinograd);
  ASSERT_GE(wino, 1);

  const std::string path = TempPath("algo_roundtrip.neoc");
  ASSERT_TRUE(SaveModule(compiled, path));
  CompiledModel loaded;
  ASSERT_TRUE(LoadModule(path, &loaded));
  std::remove(path.c_str());

  EXPECT_EQ(CountConvAlgo(loaded.graph(), ConvAlgo::kWinograd), wino);
  for (int id = 0; id < compiled.graph().num_nodes(); ++id) {
    const Node& a = compiled.graph().node(id);
    const Node& b = loaded.graph().node(id);
    if (a.IsConv()) {
      EXPECT_EQ(a.attrs.schedule, b.attrs.schedule) << a.name;
    }
  }
  // Identical graphs + identical kernels: the loaded module reproduces the original
  // bit for bit.
  Tensor input = InputFor(compiled.graph());
  EXPECT_EQ(Tensor::MaxAbsDiff(compiled.Run(input), loaded.Run(input)), 0.0);
}

TEST(ConvAlgoSearch, ChoiceRoundTripsThroughTuningCache) {
  auto cache = std::make_shared<TuningCache>();
  Graph model = BuildVgg(11, 1, 64);
  CompileOptions opts = NeoCpuOptions(Target::EpycAvx2());
  opts.tuning_cache = cache;
  CompiledModel first = Compile(model, opts);
  const int wino = CountConvAlgo(first.graph(), ConvAlgo::kWinograd);
  ASSERT_GE(wino, 1);
  ASSERT_GT(first.stats().tuning_cache_misses, 0u);

  // Persist the algorithm-tagged entries and warm a fresh cache from disk.
  const std::string path = TempPath("algo_cache.tuning");
  ASSERT_TRUE(cache->SaveToFile(path));
  auto warmed = std::make_shared<TuningCache>();
  ASSERT_TRUE(warmed->LoadFromFile(path));
  std::remove(path.c_str());
  EXPECT_EQ(warmed->size(), cache->size());

  // A recompile against the warmed cache is pure hits and lands on the same kernels.
  CompileOptions opts2 = NeoCpuOptions(Target::EpycAvx2());
  opts2.tuning_cache = warmed;
  CompiledModel second = Compile(model, opts2);
  EXPECT_EQ(second.stats().tuning_cache_misses, 0u);
  EXPECT_EQ(second.stats().tuning_cache_hits, first.stats().tuning_cache_hits +
                                                  first.stats().tuning_cache_misses);
  EXPECT_EQ(CountConvAlgo(second.graph(), ConvAlgo::kWinograd), wino);
}

TEST(ConvAlgoSearch, PlannedWinogradExecutionStaysZeroAlloc) {
  CompiledModel compiled = CompileVggAvx2();
  ASSERT_GE(CountConvAlgo(compiled.graph(), ConvAlgo::kWinograd), 1);
  ASSERT_NE(compiled.plan(), nullptr);

  // Winograd convs must plan per-worker tile scratch in the arena.
  bool wino_workspace = false;
  for (int id = 0; id < compiled.graph().num_nodes(); ++id) {
    const Node& node = compiled.graph().node(id);
    if (node.IsConv() && node.attrs.schedule.algo == ConvAlgo::kWinograd) {
      wino_workspace |=
          compiled.plan()->nodes[static_cast<std::size_t>(id)].workspace_bytes > 0;
    }
  }
  EXPECT_TRUE(wino_workspace);

  Tensor input = InputFor(compiled.graph());
  const Executor planned(&compiled.graph(), nullptr, compiled.plan());
  const Tensor expected = Executor(&compiled.graph()).Run(input);
  planned.Run(input);  // warm-up: faults the pooled arena

  const std::uint64_t before = TensorHeapAllocCount();
  const Tensor got = planned.Run(input);
  EXPECT_EQ(TensorHeapAllocCount() - before,
            static_cast<std::uint64_t>(compiled.plan()->heap_nodes))
      << "winograd intermediates/workspaces must come from the arena\n"
      << compiled.plan()->ToString();
  EXPECT_EQ(Tensor::MaxAbsDiff(expected, got), 0.0);
}

TEST(ConvAlgoSearch, RetuneForBatchReselectsAlgorithms) {
  CompiledModel compiled = CompileVggAvx2();
  CompiledModel retuned;
  ASSERT_TRUE(RetuneForBatch(compiled, 2, nullptr, &retuned));
  EXPECT_EQ(retuned.stats().tuned_batch, 2);
  // The batch-2 variant made its own algorithm decisions; whatever it picked, every
  // conv runs at batch 2 and every Winograd conv reads Winograd-domain weights...
  for (int id = 0; id < retuned.graph().num_nodes(); ++id) {
    const Node& node = retuned.graph().node(id);
    if (!node.IsConv()) {
      continue;
    }
    EXPECT_EQ(node.attrs.conv.batch, 2) << node.name;
    if (node.attrs.schedule.algo == ConvAlgo::kWinograd) {
      EXPECT_EQ(retuned.graph().node(node.inputs[1]).payload.dims(),
                (std::vector<std::int64_t>{4, 4, node.attrs.conv.out_c,
                                           node.attrs.conv.in_c}))
          << node.name;
    }
  }
  // ...and the variant must execute correctly at its batch size.
  Rng rng(31);
  Tensor input = Tensor::Random({2, 3, 64, 64}, rng, -1.0f, 1.0f, Layout::NCHW());
  EXPECT_EQ(retuned.Run(input).dim(0), 2);
}

// ---------------------------------------------------------------- forced overrides

Graph ResidualNet() {
  GraphBuilder b("residual");
  int x = b.Input({1, 16, 16, 16});
  int shortcut = x;
  int y = b.Conv(x, 16, 3, 1, 1, false, "c1");
  y = b.Relu(y);
  y = b.Conv(y, 16, 3, 1, 1, false, "c2");  // fuses the residual add below
  y = b.Add(y, shortcut);
  y = b.Relu(y);
  int post = b.Conv(y, 16, 3, 1, 1, false, "post");
  return b.Finish({post});
}

TEST(ForcedAlgo, ForcesLegalConvsAndSkipsIllegalOnes) {
  Graph model = ResidualNet();
  CompileOptions opts = NeoCpuOptions(Target::SkylakeAvx512());
  opts.force_algo = true;
  opts.forced_algo = ConvAlgo::kWinograd;
  CompiledModel compiled = Compile(model, opts);

  int wino = 0, residual_wino = 0;
  for (int id = 0; id < compiled.graph().num_nodes(); ++id) {
    const Node& node = compiled.graph().node(id);
    if (!node.IsConv()) {
      continue;
    }
    if (node.attrs.schedule.algo == ConvAlgo::kWinograd) {
      ++wino;
      residual_wino += node.attrs.epilogue.residual_add;
    }
  }
  EXPECT_EQ(wino, 2) << "both non-residual 3x3 convs must be forced to winograd";
  EXPECT_EQ(residual_wino, 0) << "the fused-residual conv cannot run winograd";

  // The forced compile still matches the reference numerically.
  Tensor input = InputFor(model);
  Tensor expected = Executor(&model).Run(input);
  EXPECT_LE(Tensor::AllCloseViolation(compiled.Run(input), expected, kRtol, kAtol), 0.0);
}

TEST(ForcedAlgo, ForcedIm2colBindsEveryConv) {
  Graph model = BuildTinyCnn(1, 32);
  CompileOptions opts = NeoCpuOptions(Target::Host());
  opts.force_algo = true;
  opts.forced_algo = ConvAlgo::kIm2col;
  CompiledModel compiled = Compile(model, opts);
  const int convs = compiled.graph().CountNodes(OpType::kConv2d);
  EXPECT_EQ(CountConvAlgo(compiled.graph(), ConvAlgo::kIm2col), convs);

  Tensor input = InputFor(model);
  Tensor expected = Executor(&model).Run(input);
  EXPECT_LE(Tensor::AllCloseViolation(compiled.Run(input), expected, kRtol, kAtol), 0.0);
}

TEST(ForcedAlgo, RoundTripsThroughModuleConfig) {
  Graph model = BuildTinyCnn(1, 32);
  CompileOptions opts = NeoCpuOptions(Target::Host());
  opts.force_algo = true;
  opts.forced_algo = ConvAlgo::kIm2col;
  CompiledModel compiled = Compile(model, opts);

  const std::string path = TempPath("forced_algo.neoc");
  ASSERT_TRUE(SaveModule(compiled, path));
  CompiledModel loaded;
  ASSERT_TRUE(LoadModule(path, &loaded));
  std::remove(path.c_str());
  EXPECT_TRUE(loaded.config().force_algo);
  EXPECT_EQ(loaded.config().forced_algo, ConvAlgo::kIm2col);
}

// kNCHW runs no search: every conv gets the reference loop, and a forced NCHW
// algorithm replaces it wherever that algorithm is legal, its weights pre-transformed
// by the same lowering as under the NCHWc modes.
TEST(ForcedAlgo, NchwModeForcesWinogradOnlyWhereLegal) {
  GraphBuilder b("nchw_winograd");
  int x = b.Input({1, 16, 16, 16});
  int y = b.Conv(x, 16, 3, 1, 1, false, "plain");
  y = b.Relu(y);
  y = b.Conv(y, 16, 3, 1, 1, false, "residual");  // fuses the add below
  y = b.Add(y, x);
  Graph model = b.Finish({y});
  CompileOptions opts = AblationBaselineNchw(Target::Host());
  opts.force_algo = true;
  opts.forced_algo = ConvAlgo::kWinograd;
  CompiledModel compiled = Compile(model, opts);

  int legal = 0;
  for (int id = 0; id < compiled.graph().num_nodes(); ++id) {
    const Node& node = compiled.graph().node(id);
    if (!node.IsConv()) {
      continue;
    }
    const bool wino = WinogradLegal(node.attrs.conv, node.attrs.epilogue);
    legal += wino;
    EXPECT_EQ(node.attrs.schedule,
              AlgoSchedule(wino ? ConvAlgo::kWinograd : ConvAlgo::kReference))
        << node.name;
  }
  EXPECT_EQ(legal, 1);
  EXPECT_EQ(compiled.graph().CountNodes(OpType::kConv2d), 2);
  EXPECT_EQ(compiled.stats().num_layout_transforms, 0);

  Tensor input = InputFor(model);
  Tensor expected = Executor(&model).Run(input);
  EXPECT_LE(Tensor::AllCloseViolation(compiled.Run(input), expected, kRtol, kAtol), 0.0);
}

// ---------------------------------------------------------------- zoo-wide dispatch

struct AlgoZooCase {
  std::string label;
  Graph (*build)();
};

Graph TinyResNet18() { return BuildResNet(18, 1, 64); }
Graph TinyVgg11() { return BuildVgg(11, 1, 64); }
Graph TinyInception() { return BuildInceptionV3(1, 139); }
Graph TinyCnn() { return BuildTinyCnn(1, 32); }

class WinogradZooDispatch : public ::testing::TestWithParam<AlgoZooCase> {};

// Force Winograd onto every legal conv of real zoo graphs: the dispatched kernels must
// match the reference executor numerically, and the planned (zero-allocation) path must
// be bitwise identical to the allocating path — both executions run the same kernels in
// the same order, so any deviation is an arena placement or workspace bug.
TEST_P(WinogradZooDispatch, ForcedWinogradMatchesPlannedAndReference) {
  Graph model = GetParam().build();
  Tensor input = InputFor(model);
  CompileOptions opts = NeoCpuOptions(Target::Host());
  opts.force_algo = true;
  opts.forced_algo = ConvAlgo::kWinograd;
  CompiledModel compiled = Compile(model, opts);
  EXPECT_GE(CountConvAlgo(compiled.graph(), ConvAlgo::kWinograd), 1)
      << GetParam().label;

  const Executor allocating(&compiled.graph());
  const Tensor via_alloc = allocating.Run(input);

  ASSERT_NE(compiled.plan(), nullptr) << GetParam().label;
  const Executor planned(&compiled.graph(), nullptr, compiled.plan());
  const Tensor via_plan = planned.Run(input);
  EXPECT_EQ(Tensor::MaxAbsDiff(via_alloc, via_plan), 0.0)
      << GetParam().label << " (planned vs allocating)";
  const Tensor again = planned.Run(input);  // reused arena: stale bytes must not leak
  EXPECT_EQ(Tensor::MaxAbsDiff(via_alloc, again), 0.0)
      << GetParam().label << " (arena reuse)";

  Tensor expected = Executor(&model).Run(input);
  EXPECT_LE(Tensor::AllCloseViolation(via_alloc, expected, kRtol, kAtol), 0.0)
      << GetParam().label << " (vs reference)";
}

INSTANTIATE_TEST_SUITE_P(Zoo, WinogradZooDispatch,
                         ::testing::Values(AlgoZooCase{"tiny_cnn", &TinyCnn},
                                           AlgoZooCase{"resnet18", &TinyResNet18},
                                           AlgoZooCase{"vgg11", &TinyVgg11},
                                           AlgoZooCase{"inception", &TinyInception}),
                         [](const ::testing::TestParamInfo<AlgoZooCase>& info) {
                           return info.param.label;
                         });

}  // namespace
}  // namespace neocpu
