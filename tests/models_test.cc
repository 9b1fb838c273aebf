// Structural tests for the 15-network zoo: construction succeeds, conv/output counts
// match the published architectures, and the factory agrees with the input-dim table.
#include <gtest/gtest.h>

#include "src/models/model_zoo.h"

namespace neocpu {
namespace {

std::vector<std::int64_t> OutputDims(const Graph& g) {
  return g.node(g.outputs()[0]).out_dims;
}

TEST(ModelZoo, FifteenModels) {
  EXPECT_EQ(ModelZooNames().size(), 15u);
}

TEST(ModelZoo, InputDimsFollowPaperConventions) {
  EXPECT_EQ(ModelInputDims("resnet50"), (std::vector<std::int64_t>{1, 3, 224, 224}));
  EXPECT_EQ(ModelInputDims("inception-v3"), (std::vector<std::int64_t>{1, 3, 299, 299}));
  EXPECT_EQ(ModelInputDims("ssd-resnet50"), (std::vector<std::int64_t>{1, 3, 512, 512}));
  EXPECT_EQ(ModelInputDims("vgg16", 4), (std::vector<std::int64_t>{4, 3, 224, 224}));
}

struct ConvCountCase {
  const char* name;
  int depth;
  int expected_convs;
};

class ResNetStructure : public ::testing::TestWithParam<ConvCountCase> {};

TEST_P(ResNetStructure, ConvCountMatchesArchitecture) {
  Graph g = BuildResNet(GetParam().depth, 1, 64);
  EXPECT_EQ(g.CountNodes(OpType::kConv2d), GetParam().expected_convs) << GetParam().name;
  EXPECT_EQ(OutputDims(g), (std::vector<std::int64_t>{1, 1000}));
}

// Conv counts include projection shortcuts: r18: 17+3=20, r34: 33+3=36,
// r50: 49+4=53, r101: 100+4=104, r152: 151+4=155.
INSTANTIATE_TEST_SUITE_P(Depths, ResNetStructure,
                         ::testing::Values(ConvCountCase{"r18", 18, 20},
                                           ConvCountCase{"r34", 34, 36},
                                           ConvCountCase{"r50", 50, 53},
                                           ConvCountCase{"r101", 101, 104},
                                           ConvCountCase{"r152", 152, 155}));

class VggStructure : public ::testing::TestWithParam<ConvCountCase> {};

TEST_P(VggStructure, ConvAndDenseCounts) {
  Graph g = BuildVgg(GetParam().depth, 1, 64);
  EXPECT_EQ(g.CountNodes(OpType::kConv2d), GetParam().expected_convs);
  EXPECT_EQ(g.CountNodes(OpType::kDense), 3);
  EXPECT_EQ(g.CountNodes(OpType::kBatchNorm), 0);  // original VGG has no BN
  EXPECT_EQ(OutputDims(g), (std::vector<std::int64_t>{1, 1000}));
}

INSTANTIATE_TEST_SUITE_P(Depths, VggStructure,
                         ::testing::Values(ConvCountCase{"v11", 11, 8},
                                           ConvCountCase{"v13", 13, 10},
                                           ConvCountCase{"v16", 16, 13},
                                           ConvCountCase{"v19", 19, 16}));

class DenseNetStructure : public ::testing::TestWithParam<ConvCountCase> {};

TEST_P(DenseNetStructure, ConvCountMatchesArchitecture) {
  Graph g = BuildDenseNet(GetParam().depth, 1, 64);
  EXPECT_EQ(g.CountNodes(OpType::kConv2d), GetParam().expected_convs);
  EXPECT_EQ(OutputDims(g), (std::vector<std::int64_t>{1, 1000}));
}

// stem + 2 convs per dense layer + 3 transitions:
// 121: 1 + 2*58 + 3 = 120; 161: 1 + 2*78 + 3 = 160; 169: 1+2*82+3 = 168;
// 201: 1 + 2*98 + 3 = 200.
INSTANTIATE_TEST_SUITE_P(Depths, DenseNetStructure,
                         ::testing::Values(ConvCountCase{"d121", 121, 120},
                                           ConvCountCase{"d161", 161, 160},
                                           ConvCountCase{"d169", 169, 168},
                                           ConvCountCase{"d201", 201, 200}));

TEST(InceptionStructure, ConvCountAndOutput) {
  Graph g = BuildInceptionV3(1, 139);
  // Canonical Inception-v3 has 94 convolutions (without the aux head).
  EXPECT_EQ(g.CountNodes(OpType::kConv2d), 94);
  EXPECT_EQ(g.CountNodes(OpType::kConcat), 15);  // 11 block concats + 2x2 inner C splits
  EXPECT_EQ(OutputDims(g), (std::vector<std::int64_t>{1, 1000}));
}

TEST(SsdStructure, HeadsAndDetection) {
  Graph g = BuildSsdResNet50(128, 5);
  // Backbone (53 incl. projections) + 8 extra-feature convs + 6 cls + 6 loc heads = 73.
  EXPECT_EQ(g.CountNodes(OpType::kConv2d), 73);
  EXPECT_EQ(g.CountNodes(OpType::kMultiboxDetection), 1);
  EXPECT_EQ(g.CountNodes(OpType::kFlattenNHWC), 12);
  EXPECT_EQ(OutputDims(g), (std::vector<std::int64_t>{100, 6}));
}

TEST(ModelZoo, FactoryBuildsEveryName) {
  // Build the structural graphs at full resolution: this only allocates weights, it
  // does not execute, but it verifies every layer's shape arithmetic end to end.
  for (const std::string& name : ModelZooNames()) {
    if (name.rfind("vgg", 0) == 0 || name == "ssd-resnet50") {
      continue;  // skipped here to keep the test's memory footprint small (~GBs)
    }
    Graph g = BuildModel(name);
    EXPECT_GT(g.num_nodes(), 10) << name;
    EXPECT_EQ(g.outputs().size(), 1u) << name;
  }
}

TEST(ModelZoo, UnknownNameDies) { EXPECT_DEATH(BuildModel("alexnet"), "unknown model"); }

// SSD's head reshapes the class scores to {anchors, classes}, so the builder only makes
// batch 1; a larger batch is refused by name instead of failing in shape inference.
TEST(ModelZoo, BatchedSsdDiesNamingTheBatchRule) {
  EXPECT_DEATH(BuildModel("ssd-resnet50", 2), "ssd-resnet50 is built for batch 1 only");
}

TEST(ModelZoo, BuildErrorIsEmptyExactlyForBuildableInputs) {
  for (const std::string& name : BuildModelNames()) {
    EXPECT_EQ(ModelBuildError(name, 1), "") << name;
  }
  EXPECT_EQ(BuildModelNames().size(), ModelZooNames().size() + 2);
  EXPECT_EQ(ModelBuildError("resnet18", 4), "");
  EXPECT_NE(ModelBuildError("alexnet", 1), "");
  EXPECT_NE(ModelBuildError("ssd-resnet50", 2), "");
}

TEST(ModelZoo, DeterministicWeights) {
  Graph a = BuildResNet(18, 1, 64);
  Graph b = BuildResNet(18, 1, 64);
  // Same seed: first conv weight constants must match bit-for-bit.
  for (int i = 0; i < a.num_nodes(); ++i) {
    if (a.node(i).type == OpType::kConstant) {
      ASSERT_EQ(b.node(i).type, OpType::kConstant);
      EXPECT_EQ(Tensor::MaxAbsDiff(a.node(i).payload, b.node(i).payload), 0.0);
      break;
    }
  }
}

}  // namespace
}  // namespace neocpu
