// Per-layer convolution algorithm selection: direct NCHW[x]c blockings and im2col.
//
// Covers the selection loop end to end: the analytic cost model ranks algorithms per
// shape, the global search assigns im2col to a conv no templated block divides (SSD's
// 126-channel class head), the choice round-trips through TuningCache and module
// serialization, forced-algo overrides work, and graph-dispatched im2col is numerically
// faithful and bitwise identical between the planned (zero-allocation) and allocating
// execution paths.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/core/compiler.h"
#include "src/core/presets.h"
#include "src/core/serialization.h"
#include "src/graph/builder.h"
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

// A graph whose search must pick im2col: its last conv has SSD's 126 class channels
// (6 anchors x 21 classes), which no templated oc block divides, so im2col is its only
// candidate on every target; the body conv before it runs direct.
Graph SsdHeadNet(std::int64_t batch = 1) {
  GraphBuilder b("ssd_head");
  int x = b.Input({batch, 32, 16, 16});
  int y = b.Conv(x, 64, 3, 1, 1, false, "body");
  y = b.Relu(y);
  const int cls = b.Conv(y, 126, 3, 1, 1, true, "head.cls");
  return b.Finish({cls});
}

CompiledModel CompileSsdHead() {
  return Compile(SsdHeadNet(), NeoCpuOptions(Target::Host()));
}

TEST(ConvAlgoCost, DirectBeatsNchwAlgorithmsOnTemplatedShapes) {
  for (const Target& t : {Target::EpycAvx2(), Target::SkylakeAvx512()}) {
    for (const Conv2dParams& p : {Conv2dParams{1, 256, 16, 16, 256, 3, 3, 1, 1, 1, 1},
                                  Conv2dParams{1, 64, 56, 56, 64, 1, 1, 1, 1, 0, 0}}) {
      const ConvSchedule direct{16, 16, 8, true};
      EXPECT_LT(AnalyticConvMs(p, direct, t),
                AnalyticConvMs(p, AlgoSchedule(ConvAlgo::kIm2col), t))
          << t.name << " " << p.ToString();
      // The reference loop nest never wins.
      EXPECT_LT(AnalyticConvMs(p, AlgoSchedule(ConvAlgo::kIm2col), t),
                AnalyticConvMs(p, AlgoSchedule(ConvAlgo::kReference), t))
          << t.name << " " << p.ToString();
    }
  }
}

TEST(ConvAlgoSearch, LocalSearchRanksAlgorithmsAlongsideBlockings) {
  Conv2dParams p{1, 64, 28, 28, 64, 3, 3, 1, 1, 1, 1};
  LocalSearchResult r =
      LocalSearchConv(p, Target::SkylakeAvx512(), CostMode::kAnalytic, true);
  EXPECT_NE(r.BestForAlgo(ConvAlgo::kIm2col), nullptr);
  EXPECT_NE(r.BestForAlgo(ConvAlgo::kDirectNCHWc), nullptr);
  EXPECT_EQ(r.BestForAlgo(ConvAlgo::kWinograd), nullptr) << "Winograd is retired";
  EXPECT_EQ(r.BestForAlgo(ConvAlgo::kReference), nullptr);
  // A conv no templated oc block divides ranks im2col alone.
  Conv2dParams head{1, 64, 16, 16, 126, 3, 3, 1, 1, 1, 1};
  LocalSearchResult r1 =
      LocalSearchConv(head, Target::SkylakeAvx512(), CostMode::kAnalytic, false);
  ASSERT_EQ(r1.ranked.size(), 1u);
  EXPECT_EQ(r1.best().schedule, AlgoSchedule(ConvAlgo::kIm2col));
}

TEST(ConvAlgoSearch, GlobalSearchSelectsIm2colOnSsdHead) {
  CompiledModel compiled = CompileSsdHead();
  EXPECT_EQ(CountConvAlgo(compiled.graph(), ConvAlgo::kIm2col), 1);
  EXPECT_EQ(CountConvAlgo(compiled.graph(), ConvAlgo::kDirectNCHWc), 1);
  // The im2col conv reads its plain OIHW weight and stays NCHW.
  for (int id = 0; id < compiled.graph().num_nodes(); ++id) {
    const Node& node = compiled.graph().node(id);
    if (!node.IsConv() || node.attrs.schedule.algo != ConvAlgo::kIm2col) {
      continue;
    }
    EXPECT_EQ(compiled.graph().node(node.inputs[1]).payload.dims(),
              (std::vector<std::int64_t>{126, 64, 3, 3}));
    EXPECT_EQ(node.out_layout, Layout::NCHW());
  }
  // And the compiled model still matches the unoptimized reference numerically.
  Graph model = SsdHeadNet();
  Tensor input = InputFor(model);
  Tensor expected = Executor(&model).Run(input);
  EXPECT_LE(Tensor::AllCloseViolation(compiled.Run(input), expected, kRtol, kAtol), 0.0);
}

TEST(ConvAlgoSearch, ChoiceRoundTripsThroughModuleSerialization) {
  CompiledModel compiled = CompileSsdHead();
  const int im2col = CountConvAlgo(compiled.graph(), ConvAlgo::kIm2col);
  ASSERT_GE(im2col, 1);

  const std::string path = TempPath("algo_roundtrip.neoc");
  ASSERT_TRUE(SaveModule(compiled, path));
  CompiledModel loaded;
  ASSERT_TRUE(LoadModule(path, &loaded));
  std::remove(path.c_str());

  EXPECT_EQ(CountConvAlgo(loaded.graph(), ConvAlgo::kIm2col), im2col);
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
  Graph model = SsdHeadNet();
  CompileOptions opts = NeoCpuOptions(Target::Host());
  opts.tuning_cache = cache;
  CompiledModel first = Compile(model, opts);
  const int im2col = CountConvAlgo(first.graph(), ConvAlgo::kIm2col);
  ASSERT_GE(im2col, 1);
  ASSERT_GT(first.stats().tuning_cache_misses, 0u);

  // Persist the algorithm-tagged entries and warm a fresh cache from disk.
  const std::string path = TempPath("algo_cache.tuning");
  ASSERT_TRUE(cache->SaveToFile(path));
  auto warmed = std::make_shared<TuningCache>();
  ASSERT_TRUE(warmed->LoadFromFile(path));
  std::remove(path.c_str());
  EXPECT_EQ(warmed->size(), cache->size());

  // A recompile against the warmed cache is pure hits and lands on the same kernels.
  CompileOptions opts2 = NeoCpuOptions(Target::Host());
  opts2.tuning_cache = warmed;
  CompiledModel second = Compile(model, opts2);
  EXPECT_EQ(second.stats().tuning_cache_misses, 0u);
  EXPECT_EQ(second.stats().tuning_cache_hits, first.stats().tuning_cache_hits +
                                                  first.stats().tuning_cache_misses);
  EXPECT_EQ(CountConvAlgo(second.graph(), ConvAlgo::kIm2col), im2col);
}

TEST(ConvAlgoSearch, PlannedIm2colExecutionStaysZeroAlloc) {
  CompiledModel compiled = CompileSsdHead();
  ASSERT_GE(CountConvAlgo(compiled.graph(), ConvAlgo::kIm2col), 1);
  ASSERT_NE(compiled.plan(), nullptr);

  // im2col convs must plan their column buffer in the arena.
  bool im2col_workspace = false;
  for (int id = 0; id < compiled.graph().num_nodes(); ++id) {
    const Node& node = compiled.graph().node(id);
    if (node.IsConv() && node.attrs.schedule.algo == ConvAlgo::kIm2col) {
      im2col_workspace |=
          compiled.plan()->nodes[static_cast<std::size_t>(id)].workspace_bytes > 0;
    }
  }
  EXPECT_TRUE(im2col_workspace);

  Tensor input = InputFor(compiled.graph());
  const Executor planned(&compiled.graph(), nullptr, compiled.plan());
  const Tensor expected = Executor(&compiled.graph()).Run(input);
  planned.Run(input);  // warm-up: faults the pooled arena

  const std::uint64_t before = TensorHeapAllocCount();
  const Tensor got = planned.Run(input);
  EXPECT_EQ(TensorHeapAllocCount() - before,
            static_cast<std::uint64_t>(compiled.plan()->heap_nodes))
      << "im2col intermediates/workspaces must come from the arena\n"
      << compiled.plan()->ToString();
  EXPECT_EQ(Tensor::MaxAbsDiff(expected, got), 0.0);
}

TEST(ConvAlgoSearch, RetuneForBatchReselectsAlgorithms) {
  CompiledModel compiled = CompileSsdHead();
  CompiledModel retuned;
  ASSERT_TRUE(RetuneForBatch(compiled, 2, nullptr, &retuned));
  EXPECT_EQ(retuned.stats().tuned_batch, 2);
  // The batch-2 variant made its own algorithm decisions: every conv runs at batch 2,
  // and the class head, which has no direct schedule, runs im2col on its OIHW weight...
  int im2col = 0;
  for (int id = 0; id < retuned.graph().num_nodes(); ++id) {
    const Node& node = retuned.graph().node(id);
    if (!node.IsConv()) {
      continue;
    }
    EXPECT_EQ(node.attrs.conv.batch, 2) << node.name;
    if (node.attrs.schedule.algo == ConvAlgo::kIm2col) {
      ++im2col;
      EXPECT_EQ(retuned.graph().node(node.inputs[1]).payload.dims(),
                (std::vector<std::int64_t>{node.attrs.conv.out_c, node.attrs.conv.in_c,
                                           3, 3}))
          << node.name;
    }
  }
  EXPECT_EQ(im2col, 1);
  // ...and the variant must execute correctly at its batch size.
  const Graph model = SsdHeadNet(2);
  Tensor input = InputFor(model);
  Tensor expected = Executor(&model).Run(input);
  EXPECT_LE(Tensor::AllCloseViolation(retuned.Run(input), expected, kRtol, kAtol), 0.0);
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

// im2col runs every fused epilogue, so forcing it binds the conv that absorbed the
// residual add too.
TEST(ForcedAlgo, ForcedIm2colRunsFusedResidualConvs) {
  Graph model = ResidualNet();
  CompileOptions opts = NeoCpuOptions(Target::SkylakeAvx512());
  opts.force_algo = true;
  opts.forced_algo = ConvAlgo::kIm2col;
  CompiledModel compiled = Compile(model, opts);

  int im2col = 0, residual_im2col = 0;
  for (int id = 0; id < compiled.graph().num_nodes(); ++id) {
    const Node& node = compiled.graph().node(id);
    if (node.IsConv() && node.attrs.schedule.algo == ConvAlgo::kIm2col) {
      ++im2col;
      residual_im2col += node.attrs.epilogue.residual_add;
    }
  }
  EXPECT_EQ(im2col, 3);
  EXPECT_EQ(residual_im2col, 1);

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
// algorithm replaces it on every conv, the fused-residual one included, its weights
// lowered by the same pass as under the NCHWc modes.
TEST(ForcedAlgo, NchwModeForcesIm2colOnEveryConv) {
  GraphBuilder b("nchw_im2col");
  int x = b.Input({1, 16, 16, 16});
  int y = b.Conv(x, 16, 3, 1, 1, false, "plain");
  y = b.Relu(y);
  y = b.Conv(y, 16, 3, 1, 1, false, "residual");  // fuses the add below
  y = b.Add(y, x);
  Graph model = b.Finish({y});
  CompileOptions opts = AblationBaselineNchw(Target::Host());
  opts.force_algo = true;
  opts.forced_algo = ConvAlgo::kIm2col;
  CompiledModel compiled = Compile(model, opts);

  for (int id = 0; id < compiled.graph().num_nodes(); ++id) {
    const Node& node = compiled.graph().node(id);
    if (node.IsConv()) {
      EXPECT_EQ(node.attrs.schedule, AlgoSchedule(ConvAlgo::kIm2col)) << node.name;
    }
  }
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

class Im2colZooDispatch : public ::testing::TestWithParam<AlgoZooCase> {};

// Force im2col onto every conv of real zoo graphs: the dispatched kernels must match
// the reference executor numerically, and the planned (zero-allocation) path, whose
// column buffers live in the arena, must be bitwise identical to the allocating path —
// both executions run the same kernels in the same order, so any deviation is an arena
// placement or workspace bug.
TEST_P(Im2colZooDispatch, ForcedIm2colMatchesPlannedAndReference) {
  Graph model = GetParam().build();
  Tensor input = InputFor(model);
  CompileOptions opts = NeoCpuOptions(Target::Host());
  opts.force_algo = true;
  opts.forced_algo = ConvAlgo::kIm2col;
  CompiledModel compiled = Compile(model, opts);
  EXPECT_EQ(CountConvAlgo(compiled.graph(), ConvAlgo::kIm2col),
            compiled.graph().CountNodes(OpType::kConv2d))
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

INSTANTIATE_TEST_SUITE_P(Zoo, Im2colZooDispatch,
                         ::testing::Values(AlgoZooCase{"tiny_cnn", &TinyCnn},
                                           AlgoZooCase{"resnet18", &TinyResNet18},
                                           AlgoZooCase{"vgg11", &TinyVgg11},
                                           AlgoZooCase{"inception", &TinyInception}),
                         [](const ::testing::TestParamInfo<AlgoZooCase>& info) {
                           return info.param.label;
                         });

}  // namespace
}  // namespace neocpu
