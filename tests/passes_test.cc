// Graph-pass tests: inference simplification, operator fusion, and the layout
// alteration / transform elimination pass (paper §3.2, Figure 2). Every structural
// assertion is paired with a numerical equivalence check through the executor.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/core/compiler.h"
#include "src/core/executor.h"
#include "src/core/presets.h"
#include "src/graph/builder.h"
#include "src/graph/passes/passes.h"
#include "src/models/model_zoo.h"
#include "src/tuning/tuning_cache.h"

namespace neocpu {
namespace {

Tensor RandomInput(const Graph& g, std::uint64_t seed = 1) {
  Rng rng(seed);
  const Node* input = nullptr;
  for (int i = 0; i < g.num_nodes(); ++i) {
    if (g.node(i).type == OpType::kInput) {
      input = &g.node(i);
      break;
    }
  }
  return Tensor::Random(input->out_dims, rng, -1.0f, 1.0f, Layout::NCHW());
}

// AllClose violation (<= 0 means equivalent within fp32 reassociation tolerance).
double DiffAfter(const Graph& before, const Graph& after) {
  Tensor in = RandomInput(before);
  Tensor a = Executor(&before).Run(in);
  Tensor b = Executor(&after).Run(in);
  return Tensor::AllCloseViolation(b, a, 1e-3, 2e-3);
}

// A ResNet-style block: conv-bn-relu -> conv-bn -> add(shortcut) -> relu.
Graph ResidualBlockGraph() {
  GraphBuilder b("resblock");
  int x = b.Input({1, 16, 10, 10});
  int shortcut = x;
  x = b.ConvBnRelu(x, 16, 3, 1, 1, "c1");
  x = b.Conv(x, 16, 3, 1, 1, false, "c2");
  x = b.BatchNorm(x);
  x = b.Add(x, shortcut);
  x = b.Relu(x);
  return b.Finish({x});
}

// DenseNet-style pre-activation: bn-relu-conv (BN cannot fold into a producer conv).
Graph PreActivationGraph() {
  GraphBuilder b("preact");
  int x = b.Input({1, 16, 8, 8});
  x = b.Conv(x, 16, 3, 1, 1, false, "c0");
  x = b.MaxPool(x, 2, 2, 0);  // non-conv producer: the BN below cannot fold upstream
  int bn = b.BatchNorm(x);
  int r = b.Relu(bn);
  int c = b.Conv(r, 16, 3, 1, 1, false, "c1");
  return b.Finish({c});
}

TEST(SimplifyInference, RemovesDropout) {
  GraphBuilder b("d");
  int x = b.Input({1, 8, 4, 4});
  x = b.Conv(x, 8, 3, 1, 1);
  x = b.Dropout(x);
  x = b.Relu(x);
  Graph g = b.Finish({x});
  Graph simplified = SimplifyInference(g);
  EXPECT_EQ(simplified.CountNodes(OpType::kDropout), 0);
  EXPECT_LE(DiffAfter(g, simplified), 0.0);
}

TEST(SimplifyInference, FoldsBnIntoProducingConv) {
  Graph g = ResidualBlockGraph();
  EXPECT_EQ(g.CountNodes(OpType::kBatchNorm), 2);
  Graph simplified = SimplifyInference(g);
  // Both BNs sit directly after single-consumer convs: both fold away entirely.
  EXPECT_EQ(simplified.CountNodes(OpType::kBatchNorm), 0);
  EXPECT_EQ(simplified.CountNodes(OpType::kScaleShift), 0);
  // Folded convs gained a bias.
  for (int i = 0; i < simplified.num_nodes(); ++i) {
    if (simplified.node(i).IsConv()) {
      EXPECT_TRUE(simplified.node(i).attrs.epilogue.bias);
    }
  }
  EXPECT_LE(DiffAfter(g, simplified), 0.0);
}

TEST(SimplifyInference, PreActivationBnBecomesScaleShift) {
  Graph g = PreActivationGraph();
  Graph simplified = SimplifyInference(g);
  EXPECT_EQ(simplified.CountNodes(OpType::kBatchNorm), 0);
  EXPECT_EQ(simplified.CountNodes(OpType::kScaleShift), 1);
  EXPECT_LE(DiffAfter(g, simplified), 0.0);
}

TEST(FuseOps, ConvAddReluCollapse) {
  Graph g = SimplifyInference(ResidualBlockGraph());
  Graph fused = FuseOps(g);
  // conv1 absorbs its relu; conv2 absorbs the add and the final relu.
  EXPECT_EQ(fused.CountNodes(OpType::kRelu), 0);
  EXPECT_EQ(fused.CountNodes(OpType::kElemAdd), 0);
  int residual_convs = 0;
  for (int i = 0; i < fused.num_nodes(); ++i) {
    const Node& n = fused.node(i);
    if (n.IsConv() && n.attrs.epilogue.residual_add) {
      ++residual_convs;
      EXPECT_TRUE(n.attrs.epilogue.relu);
      // Residual operand arrives as the extra last input.
      EXPECT_EQ(n.inputs.size(), 4u);  // data, weight, bias(folded BN), residual
    }
  }
  EXPECT_EQ(residual_convs, 1);
  EXPECT_LE(DiffAfter(g, fused), 0.0);
}

TEST(FuseOps, ScaleShiftAbsorbsRelu) {
  Graph g = SimplifyInference(PreActivationGraph());
  Graph fused = FuseOps(g);
  EXPECT_EQ(fused.CountNodes(OpType::kRelu), 0);
  bool found = false;
  for (int i = 0; i < fused.num_nodes(); ++i) {
    if (fused.node(i).type == OpType::kScaleShift) {
      EXPECT_TRUE(fused.node(i).attrs.relu);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_LE(DiffAfter(g, fused), 0.0);
}

TEST(FuseOps, DoesNotFuseMultiConsumerConv) {
  GraphBuilder b("multi");
  int x = b.Input({1, 8, 6, 6});
  int c = b.Conv(x, 8, 3, 1, 1);
  int r = b.Relu(c);
  int r2 = b.Relu(c);  // second consumer: relu cannot be absorbed
  int add = b.Add(r, r2);
  Graph g = b.Finish({add});
  Graph fused = FuseOps(SimplifyInference(g));
  EXPECT_EQ(fused.CountNodes(OpType::kRelu), 2);
  EXPECT_LE(DiffAfter(g, fused), 0.0);
}

TEST(AlterConvLayout, PerOpInsertsTransformsAroundEveryConv) {
  // Two chained convs, per-op placement: NCHW->NCHWc before each conv and back after
  // each conv = 4 runtime transforms (Figure 2 left-hand side behaviour).
  GraphBuilder b("chain");
  int x = b.Input({1, 16, 10, 10});
  x = b.Conv(x, 16, 3, 1, 1, false, "c1");
  x = b.Conv(x, 16, 3, 1, 1, false, "c2");
  Graph g = b.Finish({x});
  Graph fused = FuseOps(SimplifyInference(g));
  std::map<int, ConvSchedule> schedules;
  for (int i = 0; i < fused.num_nodes(); ++i) {
    if (fused.node(i).IsConv()) {
      schedules[i] = ConvSchedule{16, 16, 8, true};
    }
  }
  Graph per_op = AlterConvLayout(fused, schedules, LayoutPlacement::kPerOp);
  EXPECT_EQ(per_op.CountNodes(OpType::kLayoutTransform), 4);
  Graph propagated = AlterConvLayout(fused, schedules, LayoutPlacement::kPropagate);
  // Right-hand side of Figure 2: one transform in, one transform out.
  EXPECT_EQ(propagated.CountNodes(OpType::kLayoutTransform), 2);
  EXPECT_LE(DiffAfter(g, per_op), 0.0);
  EXPECT_LE(DiffAfter(g, propagated), 0.0);
}

TEST(AlterConvLayout, MismatchedBlocksInsertReblockTransform) {
  GraphBuilder b("mismatch");
  int x = b.Input({1, 16, 10, 10});
  x = b.Conv(x, 32, 3, 1, 1, false, "c1");
  x = b.Conv(x, 32, 3, 1, 1, false, "c2");
  Graph g = b.Finish({x});
  Graph fused = FuseOps(SimplifyInference(g));
  std::map<int, ConvSchedule> schedules;
  bool first = true;
  for (int i = 0; i < fused.num_nodes(); ++i) {
    if (fused.node(i).IsConv()) {
      // c1 outputs blocks of 16 but c2 consumes blocks of 8: a re-block transform must
      // appear between them.
      schedules[i] = first ? ConvSchedule{16, 16, 8, true} : ConvSchedule{8, 8, 8, true};
      first = false;
    }
  }
  Graph out = AlterConvLayout(fused, schedules, LayoutPlacement::kPropagate);
  EXPECT_EQ(out.CountNodes(OpType::kLayoutTransform), 3);  // in, re-block, out
  EXPECT_LE(DiffAfter(g, out), 0.0);
}

TEST(AlterConvLayout, WeightsArePreTransformed) {
  GraphBuilder b("weights");
  int x = b.Input({1, 16, 8, 8});
  x = b.Conv(x, 32, 3, 1, 1, false, "c1");
  Graph g = b.Finish({x});
  Graph fused = FuseOps(SimplifyInference(g));
  std::map<int, ConvSchedule> schedules;
  for (int i = 0; i < fused.num_nodes(); ++i) {
    if (fused.node(i).IsConv()) {
      schedules[i] = ConvSchedule{16, 16, 4, true};
    }
  }
  Graph out = AlterConvLayout(fused, schedules, LayoutPlacement::kPropagate);
  for (int i = 0; i < out.num_nodes(); ++i) {
    const Node& n = out.node(i);
    if (n.IsConv()) {
      const Node& w = out.node(n.inputs[1]);
      // Figure 2: the kernel constant is already OIHW[x]i[y]o at compile time.
      EXPECT_EQ(w.payload.layout(), Layout::OIHWio(16, 16));
      EXPECT_EQ(w.payload.ndim(), 6);
    }
  }
}

TEST(AlterConvLayout, ResidualInputsAgreeOnLayout) {
  Graph g = FuseOps(SimplifyInference(ResidualBlockGraph()));
  std::map<int, ConvSchedule> schedules;
  for (int i = 0; i < g.num_nodes(); ++i) {
    if (g.node(i).IsConv()) {
      schedules[i] = ConvSchedule{16, 16, 8, true};
    }
  }
  Graph out = AlterConvLayout(g, schedules, LayoutPlacement::kPropagate);
  EXPECT_LE(DiffAfter(ResidualBlockGraph(), out), 0.0);
}

TEST(AlterConvLayout, ConcatFallsBackWhenBlockDoesNotDivide) {
  // 8-channel branch cannot carry NCHW16c: the concat group must fall back to NCHW.
  GraphBuilder b("concat");
  int x = b.Input({1, 16, 6, 6});
  int a = b.Conv(x, 16, 1, 1, 0, false, "a");
  int c = b.Conv(x, 8, 1, 1, 0, false, "c");
  int cat = b.Concat({a, c});
  Graph g = b.Finish({cat});
  Graph fused = FuseOps(SimplifyInference(g));
  std::map<int, ConvSchedule> schedules;
  for (int i = 0; i < fused.num_nodes(); ++i) {
    if (fused.node(i).IsConv()) {
      const auto& p = fused.node(i).attrs.conv;
      schedules[i] = ConvSchedule{16, p.out_c >= 16 ? 16 : 8, 4, true};
    }
  }
  Graph out = AlterConvLayout(fused, schedules, LayoutPlacement::kPropagate);
  EXPECT_LE(DiffAfter(g, out), 0.0);
  // Output of concat is NCHW (logical), equivalence is the main assertion.
}

// Passes copy a constant only when a rewritten node reads it, so a compiled model keeps
// no weight it no longer uses: not a folded BatchNorm's statistics, not a conv or dense
// weight replaced by its pre-transformed, pre-quantized or pre-packed copy.
TEST(GraphRewriter, CompiledGraphsKeepOnlyReadConstants) {
  for (const char* name : {"tiny-cnn", "resnet18", "transformer-encoder"}) {
    for (const bool u8 : {false, true}) {
      CompileOptions opts = NeoCpuOptions(Target::SkylakeAvx512());
      if (u8) {
        opts.quantize = true;
        opts.force_quantize = true;
      }
      const CompiledModel model = Compile(BuildModel(name), opts);
      for (const Graph* g : {&model.graph(), &model.source_graph()}) {
        const std::vector<std::vector<int>> consumers = g->BuildConsumerIndex();
        int unread = 0;
        for (int id = 0; id < g->num_nodes(); ++id) {
          unread += g->node(id).type == OpType::kConstant &&
                    consumers[static_cast<std::size_t>(id)].empty();
        }
        EXPECT_EQ(unread, 0) << name << (u8 ? " u8 " : " f32 ")
                             << (g == &model.graph() ? "graph" : "source graph");
      }
    }
  }
}

// Every constant of `g`, deep-copied: what the caller's graph held before a compile.
std::vector<Tensor> SnapshotConstants(const Graph& g) {
  std::vector<Tensor> out;
  for (int id = 0; id < g.num_nodes(); ++id) {
    out.push_back(g.node(id).type == OpType::kConstant ? g.node(id).payload.Clone()
                                                       : Tensor());
  }
  return out;
}

void ExpectConstantsUnchanged(const Graph& g, const std::vector<Tensor>& before,
                              const std::string& label) {
  for (int id = 0; id < g.num_nodes(); ++id) {
    const Tensor& now = g.node(id).payload;
    const Tensor& was = before[static_cast<std::size_t>(id)];
    if (!was.defined()) {
      continue;
    }
    EXPECT_EQ(now.dims(), was.dims()) << label << " " << g.node(id).name;
    EXPECT_EQ(now.layout(), was.layout()) << label << " " << g.node(id).name;
    EXPECT_EQ(std::memcmp(now.data(), was.data(), was.SizeBytes()), 0)
        << label << " " << g.node(id).name;
  }
}

// A conv with no BatchNorm: nothing folds, so its weight is the caller's buffer.
Graph ConvWithoutBn() {
  GraphBuilder b("no_bn");
  int x = b.Input({1, 16, 14, 14});
  x = b.Conv(x, 32, 3, 1, 1, true, "c1");
  x = b.Relu(x);
  x = b.Conv(x, 32, 1, 1, 0, false, "c2");
  return b.Finish({x});
}

// The weights a compile reblocks in place are its own (BatchNorm-folded) copies: the
// caller's constants keep their bytes, dims and layout, f32 and quantized.
TEST(WeightOwnership, CompileLeavesCallerConstantsUnchanged) {
  for (const bool u8 : {false, true}) {
    for (const bool resnet : {true, false}) {
      const Graph model = resnet ? BuildModel("resnet18") : ConvWithoutBn();
      const std::vector<Tensor> before = SnapshotConstants(model);
      CompileOptions opts = NeoCpuOptions(Target::SkylakeAvx512());
      opts.quantize = u8;
      opts.force_quantize = u8;
      const CompiledModel compiled = Compile(model, opts);
      ExpectConstantsUnchanged(model, before,
                               std::string(resnet ? "resnet18" : "no_bn") +
                                   (u8 ? " u8" : " f32"));
    }
  }
}

// Index of the conv named `name` in `g`.
int ConvNamed(const Graph& g, const std::string& name) {
  for (int id = 0; id < g.num_nodes(); ++id) {
    if (g.node(id).IsConv() && g.node(id).name == name) {
      return id;
    }
  }
  ADD_FAILURE() << "no conv " << name;
  return -1;
}

// A direct f32 conv's weight is stored once: its BatchNorm-folded weight is reblocked
// to the conv's blocks in the retained source graph, and the executable graph reads
// that same buffer. A weight the caller owns (no BatchNorm) is copied instead.
TEST(WeightOwnership, DirectConvWeightIsStoredOnce) {
  const Graph model = BuildModel("resnet18");
  const CompiledModel compiled = Compile(model, NeoCpuOptions(Target::SkylakeAvx512()));
  const Graph& g = compiled.graph();
  const Graph& source = compiled.source_graph();
  int direct = 0;
  for (int id = 0; id < g.num_nodes(); ++id) {
    const Node& conv = g.node(id);
    if (!conv.IsConv() || !conv.attrs.schedule.IsDirect()) {
      continue;
    }
    ++direct;
    const Tensor& w = g.node(conv.inputs[1]).payload;
    const Tensor& src_w =
        source.node(source.node(ConvNamed(source, conv.name)).inputs[1]).payload;
    EXPECT_EQ(w.data(), src_w.data()) << conv.name;
    EXPECT_EQ(src_w.layout(),
              Layout::OIHWio(conv.attrs.schedule.ic_bn, conv.attrs.schedule.oc_bn))
        << conv.name;
  }
  EXPECT_EQ(direct, 20) << "every resnet18 conv runs the direct template on avx512";

  const Graph no_bn = ConvWithoutBn();
  const CompiledModel plain = Compile(no_bn, NeoCpuOptions(Target::SkylakeAvx512()));
  const int c1 = ConvNamed(plain.graph(), "c1");
  EXPECT_NE(plain.graph().node(plain.graph().node(c1).inputs[1]).payload.data(),
            no_bn.node(no_bn.node(ConvNamed(no_bn, "c1")).inputs[1]).payload.data());
}

// A re-tune runs beside a serving model and reads the weights that model executes: it
// copies whatever it reblocks, so the live model's outputs stay bitwise the same even
// when the re-tuned search picks other blocks.
TEST(WeightOwnership, RetuneLeavesLiveModelBitwiseUnchanged) {
  const Graph model = BuildModel("resnet18");
  const CompiledModel live = Compile(model, NeoCpuOptions(Target::SkylakeAvx512()));
  Rng rng(5);
  const Tensor input = Tensor::Random({1, 3, 224, 224}, rng, -1, 1, Layout::NCHW());
  const Tensor before = live.Run(input);
  const std::vector<Tensor> source_before = SnapshotConstants(live.source_graph());

  // Seed the shared cache so that the batch-8 search can only pick 16-channel output
  // blocks (and 16-channel input blocks where they divide), which no live conv uses.
  const CompileConfig& config = live.config();
  for (int id = 0; id < live.source_graph().num_nodes(); ++id) {
    const Node& node = live.source_graph().node(id);
    if (!node.IsConv()) {
      continue;
    }
    Conv2dParams p = node.attrs.conv;
    p.batch = 8;
    LocalSearchResult only16;
    only16.ranked.push_back(
        {ConvSchedule{p.in_c % 16 == 0 ? 16 : p.in_c, 16, 8, true}, 1.0});
    live.tuning()->Insert(
        WorkloadKey::Of(p, config.target, config.cost_mode, config.quick_space),
        std::move(only16));
  }
  CompiledModel retuned;
  ASSERT_TRUE(RetuneForBatch(live, 8, nullptr, &retuned));
  int reblocked = 0;
  for (int id = 0; id < retuned.graph().num_nodes(); ++id) {
    const Node& conv = retuned.graph().node(id);
    if (!conv.IsConv()) {
      continue;
    }
    const Node& old = live.graph().node(ConvNamed(live.graph(), conv.name));
    reblocked += conv.attrs.schedule != old.attrs.schedule;
  }
  EXPECT_EQ(reblocked, 20) << "the batch-8 search picks other blocks for every conv";

  const Tensor after = live.Run(input);
  EXPECT_EQ(std::memcmp(after.data(), before.data(), before.SizeBytes()), 0);
  ExpectConstantsUnchanged(live.source_graph(), source_before, "live source");
}

}  // namespace
}  // namespace neocpu
