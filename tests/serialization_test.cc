// Standalone-module serialization round trips: the deployment artifact (paper §1's
// "standalone module with minimal size") must reload and produce identical outputs
// without recompiling or retuning.
#include <gtest/gtest.h>

#include <cstdio>

#include "src/base/rng.h"
#include "src/core/presets.h"
#include "src/core/serialization.h"
#include "src/graph/builder.h"
#include "src/graph/shape_infer.h"
#include "src/models/model_zoo.h"

namespace neocpu {
namespace {

std::string TempPath(const char* name) { return ::testing::TempDir() + "/" + name; }

Graph SmallNet() {
  GraphBuilder b("small");
  int x = b.Input({1, 8, 16, 16});
  x = b.ConvBnRelu(x, 16, 3, 1, 1, "c1");
  int shortcut = x;
  x = b.Conv(x, 16, 3, 1, 1, false, "c2");
  x = b.BatchNorm(x);
  x = b.Add(x, shortcut);
  x = b.Relu(x);
  x = b.MaxPool(x, 2, 2, 0);
  x = b.GlobalAvgPool(x);
  x = b.Flatten(x);
  x = b.Dense(x, 10);
  x = b.Softmax(x);
  return b.Finish({x});
}

TEST(Serialization, RoundTripPreservesOutputsExactly) {
  Graph model = SmallNet();
  CompiledModel compiled = Compile(model, NeoCpuOptions(Target::Host()));
  Rng rng(1);
  Tensor input = Tensor::Random({1, 8, 16, 16}, rng, -1, 1, Layout::NCHW());
  Tensor expected = compiled.Run(input);

  const std::string path = TempPath("module_roundtrip.neoc");
  ASSERT_TRUE(SaveModule(compiled, path));
  CompiledModel loaded;
  ASSERT_TRUE(LoadModule(path, &loaded));
  Tensor got = loaded.Run(input);
  // Same kernels, same schedules, same weights: bit-identical.
  EXPECT_EQ(Tensor::MaxAbsDiff(expected, got), 0.0);
  std::remove(path.c_str());
}

TEST(Serialization, PreservesGraphStructureAndSchedules) {
  Graph model = SmallNet();
  CompiledModel compiled = Compile(model, NeoCpuOptions(Target::Host()));
  const std::string path = TempPath("module_structure.neoc");
  ASSERT_TRUE(SaveModule(compiled, path));
  CompiledModel loaded;
  ASSERT_TRUE(LoadModule(path, &loaded));

  const Graph& a = compiled.graph();
  const Graph& b = loaded.graph();
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.outputs(), b.outputs());
  for (int i = 0; i < a.num_nodes(); ++i) {
    EXPECT_EQ(a.node(i).type, b.node(i).type) << i;
    EXPECT_EQ(a.node(i).inputs, b.node(i).inputs) << i;
    EXPECT_EQ(a.node(i).out_dims, b.node(i).out_dims) << i;
    EXPECT_EQ(a.node(i).out_layout, b.node(i).out_layout) << i;
    if (a.node(i).IsConv()) {
      EXPECT_EQ(a.node(i).attrs.schedule, b.node(i).attrs.schedule) << i;
      EXPECT_EQ(a.node(i).attrs.kernel, b.node(i).attrs.kernel) << i;
      EXPECT_EQ(a.node(i).attrs.epilogue, b.node(i).attrs.epilogue) << i;
    }
    if (a.node(i).type == OpType::kConstant) {
      EXPECT_EQ(Tensor::MaxAbsDiff(a.node(i).payload, b.node(i).payload), 0.0) << i;
    }
  }
  EXPECT_EQ(loaded.stats().num_convs, compiled.stats().num_convs);
  std::remove(path.c_str());
}

TEST(Serialization, RoundTripsZooModelWithDetectionHead) {
  // SSD exercises every serialized attribute family: multibox params, reshape dims,
  // flatten variants, and flat concats.
  Graph model = BuildSsdResNet50(1, 128, 5);
  CompiledModel compiled = Compile(model, NeoCpuOptions(Target::Host()));
  Rng rng(2);
  Tensor input = Tensor::Random({1, 3, 128, 128}, rng, 0.f, 1.f, Layout::NCHW());
  Tensor expected = compiled.Run(input);
  const std::string path = TempPath("module_ssd.neoc");
  ASSERT_TRUE(SaveModule(compiled, path));
  CompiledModel loaded;
  ASSERT_TRUE(LoadModule(path, &loaded));
  EXPECT_EQ(Tensor::MaxAbsDiff(expected, loaded.Run(input)), 0.0);
  std::remove(path.c_str());
}

TEST(Serialization, MissingFileReturnsFalse) {
  CompiledModel model;
  EXPECT_FALSE(LoadModule("/nonexistent/path/module.neoc", &model));
}

// Modules saved with quantize_dense before the u8 GEMM became the only quantized dense
// kernel hold s8 dense nodes: qconv set, no tuned GEMM, s8 weight, s32 bias and an f32
// multiplier. Loading one fails cleanly instead of running those bytes through the f32
// Dense kernel.
TEST(Serialization, RejectsLegacyS8DenseModule) {
  Graph g;
  g.name = "legacy_s8_dense";
  const int x = g.AddInput({1, 8});
  NodeAttrs qattrs;
  qattrs.qscale = 0.05f;
  qattrs.qdtype = DType::kS8;
  const int q = g.AddNode(OpType::kQuantize, {x}, qattrs, "fc.q");
  const int w8 =
      g.AddConstant(Tensor::Zeros({4, 8}, Layout::Flat(), DType::kS8), "fc.w8");
  const int b32 =
      g.AddConstant(Tensor::Zeros({4}, Layout::Flat(), DType::kS32), "fc.b32");
  const int m = g.AddConstant(Tensor::Zeros({4}, Layout::Flat()), "fc.m");
  NodeAttrs attrs;
  attrs.qconv.enabled = true;
  attrs.qconv.in_scale = 0.05f;
  attrs.qconv.adtype = DType::kS8;
  const int fc = g.AddNode(OpType::kDense, {q, w8, b32, m}, attrs, "fc");
  g.SetOutputs({fc});
  InferShapes(&g);

  const std::string path = TempPath("legacy_s8_dense.neoc");
  ASSERT_TRUE(SaveModule(CompiledModel(std::move(g), CompileStats()), path));
  CompiledModel model;
  EXPECT_FALSE(LoadModule(path, &model));
  std::remove(path.c_str());
}

// Earlier builds could select int8 conv blocks the kernel has no instantiation for and
// ran them on a scalar edge loop that no longer exists. A module holding one fails to
// load instead of aborting in the kernel; the same module with a templated block loads.
TEST(Serialization, RejectsUntemplatedInt8ConvModule) {
  for (const std::int64_t oc_bn : {12, 4}) {
    GraphBuilder b("int8_conv");
    int x = b.Input({1, 4, 6, 6});
    x = b.Conv(x, 12, 3, 1, 1, /*bias=*/false, "conv");
    Graph g = b.Finish({x});
    for (int id = 0; id < g.num_nodes(); ++id) {
      if (g.node(id).IsConv()) {
        ConvSchedule s{4, oc_bn, 8, true};
        s.dtype = DType::kS8;
        g.node(id).attrs.schedule = s;
      }
    }
    const std::string path = TempPath("int8_block.neoc");
    ASSERT_TRUE(SaveModule(CompiledModel(std::move(g), CompileStats()), path));
    CompiledModel model;
    EXPECT_EQ(LoadModule(path, &model), oc_bn == 4) << "oc_bn=" << oc_bn;
    std::remove(path.c_str());
  }
}

TEST(Serialization, RejectsForeignFiles) {
  const std::string path = TempPath("not_a_module.neoc");
  {
    FILE* f = std::fopen(path.c_str(), "wb");
    std::fwrite("JUNKJUNKJUNK", 1, 12, f);
    std::fclose(f);
  }
  CompiledModel model;
  EXPECT_DEATH(LoadModule(path, &model), "not a NeoCPU module");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace neocpu
