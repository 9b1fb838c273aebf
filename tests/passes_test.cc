// Graph-pass tests: inference simplification, operator fusion, and the layout
// alteration / transform elimination pass (paper §3.2, Figure 2). Every structural
// assertion is paired with a numerical equivalence check through the executor.
#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/core/executor.h"
#include "src/core/presets.h"
#include "src/graph/builder.h"
#include "src/graph/passes/passes.h"
#include "src/models/model_zoo.h"

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

TEST(BindNchwKernels, SetsKernelKind) {
  GraphBuilder b("bind");
  int x = b.Input({1, 8, 6, 6});
  x = b.Conv(x, 8, 3, 1, 1);
  Graph g = b.Finish({x});
  Graph bound = BindNchwKernels(g, ConvKernelKind::kIm2col);
  for (int i = 0; i < bound.num_nodes(); ++i) {
    if (bound.node(i).IsConv()) {
      EXPECT_EQ(bound.node(i).attrs.kernel, ConvKernelKind::kIm2col);
    }
  }
  EXPECT_LE(DiffAfter(g, bound), 0.0);
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

}  // namespace
}  // namespace neocpu
