// Standalone-module serialization: the artifact (paper §1's "standalone module with
// minimal size") stores the fused source graph and the tuning state, and LoadModule
// re-derives the executable graph from them. A loaded model must be the saved one node
// by node, run bit-identically and re-lower without searching; bad bytes must fail the
// load, not the process.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/core/presets.h"
#include "src/core/serialization.h"
#include "src/graph/builder.h"
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

Tensor InputFor(const Graph& g) {
  Rng rng(17);
  for (int id = 0; id < g.num_nodes(); ++id) {
    const Node& node = g.node(id);
    if (node.type == OpType::kInput) {
      return Tensor::Random(node.out_dims, rng, -1.0f, 1.0f,
                            node.out_dims.size() == 4 ? Layout::NCHW() : Layout::Flat());
    }
  }
  ADD_FAILURE() << "no input node";
  return {};
}

// Node-by-node identity: structure, lowering decisions and payload bytes.
void ExpectSameGraph(const Graph& a, const Graph& b, const std::string& label) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes()) << label;
  EXPECT_EQ(a.name, b.name) << label;
  EXPECT_EQ(a.outputs(), b.outputs()) << label;
  for (int id = 0; id < a.num_nodes(); ++id) {
    const Node& x = a.node(id);
    const Node& y = b.node(id);
    const std::string where = label + " node " + std::to_string(id) + " " + x.name;
    EXPECT_EQ(x.type, y.type) << where;
    EXPECT_EQ(x.name, y.name) << where;
    EXPECT_EQ(x.inputs, y.inputs) << where;
    EXPECT_EQ(x.out_dims, y.out_dims) << where;
    EXPECT_EQ(x.out_layout, y.out_layout) << where;
    EXPECT_EQ(x.out_dtype, y.out_dtype) << where;
    EXPECT_EQ(x.attrs.schedule, y.attrs.schedule) << where;
    EXPECT_EQ(x.attrs.has_gemm, y.attrs.has_gemm) << where;
    EXPECT_EQ(x.attrs.gemm, y.attrs.gemm) << where;
    ASSERT_EQ(x.payload.defined(), y.payload.defined()) << where;
    if (x.payload.defined()) {
      EXPECT_EQ(x.payload.dtype(), y.payload.dtype()) << where;
      EXPECT_EQ(x.payload.dims(), y.payload.dims()) << where;
      EXPECT_EQ(x.payload.layout(), y.payload.layout()) << where;
      ASSERT_EQ(x.payload.SizeBytes(), y.payload.SizeBytes()) << where;
      EXPECT_EQ(std::memcmp(x.payload.data(), y.payload.data(), x.payload.SizeBytes()), 0)
          << where;
    }
  }
}

struct RoundTripCase {
  std::string label;
  Graph (*build)();
  CompileOptions (*options)();
  std::int64_t rebind_batch;  // > 0: save the RebindBatch derivative at this batch
};

Graph TinyCnn() { return BuildTinyCnn(1, 32); }
Graph Encoder() { return BuildTransformerEncoder(); }
Graph TinyInception() { return BuildInceptionV3(1, 139); }
Graph TinyResNet18() { return BuildResNet(18, 1, 64); }
Graph ResNet18() { return BuildModel("resnet18"); }

CompileOptions F32Global() { return NeoCpuOptions(Target::Host()); }
CompileOptions NchwIm2col() { return FrameworkDefaultOptions(Target::Host()); }
CompileOptions NchwcFixed() {
  CompileOptions opts = NeoCpuOptions(Target::Host());
  opts.layout_mode = LayoutMode::kNCHWcFixed;
  return opts;
}
CompileOptions ForcedWinograd() {
  CompileOptions opts = NeoCpuOptions(Target::Host());
  opts.force_algo = true;
  opts.forced_algo = ConvAlgo::kWinograd;
  return opts;
}
CompileOptions EntropyQuantize() {
  CompileOptions opts = NeoCpuOptions(Target::SkylakeAvx512());
  opts.quantize = true;
  opts.force_quantize = true;
  opts.calibration_policy = CalibrationPolicy::kEntropy;
  return opts;
}
CompileOptions QuantizeDense() {
  CompileOptions opts = EntropyQuantize();
  opts.calibration_policy = CalibrationPolicy::kMinMax;
  opts.quantize_dense = true;
  return opts;
}
CompileOptions MinMaxQuantize() {
  CompileOptions opts = EntropyQuantize();
  opts.calibration_policy = CalibrationPolicy::kMinMax;
  return opts;
}

class ModuleRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

// The loaded model is the saved one: the same executable and source graphs, the same
// outputs bit for bit, the same tuned batch — and re-lowering it took no search.
TEST_P(ModuleRoundTrip, ReLowersTheSavedModelWithoutSearch) {
  const RoundTripCase& c = GetParam();
  CompiledModel saved = Compile(c.build(), c.options());
  if (c.rebind_batch > 0) {
    CompiledModel rebound;
    ASSERT_TRUE(RebindBatch(saved, c.rebind_batch, &rebound));
    saved = std::move(rebound);
  }
  const Tensor input = InputFor(saved.graph());
  const Tensor expected = saved.Run(input);

  const std::string path = TempPath("module_roundtrip.neoc");
  ASSERT_TRUE(SaveModule(saved, path));
  CompiledModel loaded;
  ASSERT_TRUE(LoadModule(path, &loaded));
  std::remove(path.c_str());

  ExpectSameGraph(saved.graph(), loaded.graph(), c.label + " graph");
  ExpectSameGraph(saved.source_graph(), loaded.source_graph(), c.label + " source");
  EXPECT_EQ(Tensor::MaxAbsDiff(expected, loaded.Run(input)), 0.0);
  EXPECT_EQ(loaded.stats().tuned_batch, saved.stats().tuned_batch);
  EXPECT_EQ(loaded.stats().tuning_cache_misses, 0u);
  EXPECT_EQ(loaded.calibration().size(), saved.calibration().size());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ModuleRoundTrip,
    ::testing::Values(RoundTripCase{"f32_global", &SmallNet, &F32Global, 0},
                      RoundTripCase{"resnet18_f32", &ResNet18, &F32Global, 0},
                      RoundTripCase{"nchw_im2col", &SmallNet, &NchwIm2col, 0},
                      RoundTripCase{"nchwc_fixed", &TinyCnn, &NchwcFixed, 0},
                      RoundTripCase{"forced_winograd", &SmallNet, &ForcedWinograd, 0},
                      RoundTripCase{"entropy_quantize", &TinyCnn, &EntropyQuantize, 0},
                      RoundTripCase{"transformer_quantize_dense", &Encoder,
                                    &QuantizeDense, 0},
                      RoundTripCase{"inception_quantize", &TinyInception, &MinMaxQuantize,
                                    0},
                      RoundTripCase{"resnet18_rebind_1_to_4", &TinyResNet18, &F32Global,
                                    4}),
    [](const ::testing::TestParamInfo<RoundTripCase>& info) { return info.param.label; });

TEST(Serialization, RoundTripsZooModelWithDetectionHead) {
  // SSD exercises every serialized attribute family: multibox params, reshape dims,
  // flatten variants, and flat concats.
  Graph model = BuildSsdResNet50(128, 5);
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

// No module config aborts the process. An NCHWc compile reblocks its source weights in
// place; rewrapped under every layout mode and forced algorithm, such a model saves,
// loads and re-lowers (every weight read through ReblockWeight), and each lowering
// computes the original model's function.
TEST(Serialization, EveryLayoutModeAndForcedAlgoReLowersABlockedSource) {
  const CompiledModel compiled =
      Compile(BuildTinyCnn(1, 32), NeoCpuOptions(Target::Host()));
  int blocked_weights = 0;
  const Graph& source = compiled.source_graph();
  for (int id = 0; id < source.num_nodes(); ++id) {
    if (source.node(id).IsConv()) {
      blocked_weights += source.node(source.node(id).inputs[1]).payload.ndim() == 6;
    }
  }
  ASSERT_GT(blocked_weights, 0) << "no source weight was reblocked in place";
  const Tensor input = InputFor(compiled.graph());
  const Tensor expected = compiled.Run(input);

  struct Forced {
    const char* label;
    bool force;
    ConvAlgo algo;
  };
  const Forced forced[] = {{"searched", false, ConvAlgo::kDirectNCHWc},
                           {"direct", true, ConvAlgo::kDirectNCHWc},
                           {"im2col", true, ConvAlgo::kIm2col},
                           {"winograd", true, ConvAlgo::kWinograd},
                           {"reference", true, ConvAlgo::kReference}};
  const std::string path = TempPath("rewrapped.neoc");
  for (const LayoutMode mode :
       {LayoutMode::kNCHW, LayoutMode::kNCHWcPerOp, LayoutMode::kNCHWcFixed,
        LayoutMode::kNCHWcLocal, LayoutMode::kNCHWcGlobal}) {
    for (const Forced& f : forced) {
      const std::string label = std::string(LayoutModeName(mode)) + "/" + f.label;
      CompileConfig config = compiled.config();
      config.layout_mode = mode;
      config.force_algo = f.force;
      config.forced_algo = f.algo;
      const CompiledModel rewrapped(compiled.graph(), compiled.stats(),
                                    compiled.source_graph(), config, compiled.tuning());
      ASSERT_TRUE(SaveModule(rewrapped, path)) << label;
      CompiledModel loaded;
      ASSERT_TRUE(LoadModule(path, &loaded)) << label;
      EXPECT_LE(Tensor::AllCloseViolation(loaded.Run(input), expected, 5e-3, 5e-3), 0.0)
          << label;
    }
  }
  std::remove(path.c_str());
}

TEST(Serialization, MissingFileReturnsFalse) {
  CompiledModel model;
  EXPECT_FALSE(LoadModule("/nonexistent/path/module.neoc", &model));
}

TEST(Serialization, RejectsForeignFiles) {
  const std::string path = TempPath("not_a_module.neoc");
  {
    FILE* f = std::fopen(path.c_str(), "wb");
    std::fwrite("JUNKJUNKJUNK", 1, 12, f);
    std::fclose(f);
  }
  CompiledModel model;
  EXPECT_FALSE(LoadModule(path, &model));
  std::remove(path.c_str());
}

std::string SaveToBytes(const CompiledModel& model, const std::string& path) {
  EXPECT_TRUE(SaveModule(model, path));
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

bool LoadBytes(const std::string& bytes, const std::string& path) {
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  CompiledModel model;
  return LoadModule(path, &model);
}

template <typename T>
void Patch(std::string* bytes, std::size_t offset, T value) {
  ASSERT_LE(offset + sizeof(T), bytes->size());
  std::memcpy(bytes->data() + offset, &value, sizeof(T));
}

// A module written before u8 became the only activation dtype is format v8, whose
// config record still carried the int8_dot and force_quant_dtype fields. Loading one
// fails with the version message instead of misreading the record.
TEST(Serialization, RejectsV8ModuleWithVersionMessage) {
  const CompiledModel model = Compile(BuildTinyCnn(1, 32), NeoCpuOptions(Target::Host()));
  const std::string path = TempPath("v8.neoc");
  std::string bytes = SaveToBytes(model, path);
  Patch<std::uint32_t>(&bytes, 4, 8);
  ::testing::internal::CaptureStderr();
  const bool loaded = LoadBytes(bytes, path);
  const std::string log = ::testing::internal::GetCapturedStderr();
  EXPECT_FALSE(loaded);
  EXPECT_NE(log.find("module format v8 is not supported"), std::string::npos) << log;
  std::remove(path.c_str());
}

// Every proper prefix of a module is a truncated module: each one fails the load.
TEST(Serialization, RejectsEveryTruncation) {
  const CompiledModel model = Compile(BuildTinyCnn(1, 32), NeoCpuOptions(Target::Host()));
  const std::string path = TempPath("truncated.neoc");
  ASSERT_TRUE(SaveModule(model, path));
  const auto size = std::filesystem::file_size(path);
  CompiledModel loaded;
  ASSERT_TRUE(LoadModule(path, &loaded));
  int accepted = 0;
  const LogSeverity severity = MinLogSeverity();
  SetMinLogSeverity(LogSeverity::kFatal);  // one rejection line per length otherwise
  for (auto len = size; len-- > 0;) {
    std::filesystem::resize_file(path, len);
    accepted += LoadModule(path, &loaded) ? 1 : 0;
  }
  SetMinLogSeverity(severity);
  EXPECT_EQ(accepted, 0) << "of " << size << " truncation lengths";
  std::remove(path.c_str());
}

// Hand-placed damage in a two-node module (input -> relu): each fails the load.
TEST(Serialization, RejectsMalformedRecords) {
  GraphBuilder b("g");
  const int relu = b.Relu(b.Input({1, 4, 4, 4}));
  const CompiledModel model = Compile(b.Finish({relu}), NeoCpuOptions(Target::Host()));
  const Graph& src = model.source_graph();
  ASSERT_EQ(src.num_nodes(), 2);
  const std::string path = TempPath("malformed.neoc");
  const std::string good = SaveToBytes(model, path);
  ASSERT_TRUE(LoadBytes(good, path));

  // Offsets follow docs/module_format.md.
  const std::size_t name_len = 8;
  const std::size_t outputs = name_len + 4 + src.name.size();
  const std::size_t output0 = outputs + 4;
  const std::size_t node0 = output0 + 8 + 4;
  const std::size_t node0_end =
      node0 + 4 + 4 + src.node(0).name.size() + 4 + 4 + 8 * src.node(0).out_dims.size();
  const std::size_t node1_input0 = node0_end + 4 + 4 + src.node(1).name.size() + 4;

  std::string bytes = good;
  Patch<std::uint32_t>(&bytes, 4, 7);
  EXPECT_FALSE(LoadBytes(bytes, path)) << "older format version";
  bytes = good;
  Patch<std::uint32_t>(&bytes, name_len, 0xFFFFFFFFu);
  EXPECT_FALSE(LoadBytes(bytes, path)) << "string length past the end";
  bytes = good;
  Patch<std::int64_t>(&bytes, output0, 2);
  EXPECT_FALSE(LoadBytes(bytes, path)) << "output id out of range";
  bytes = good;
  Patch<std::uint32_t>(&bytes, node0, 1000);
  EXPECT_FALSE(LoadBytes(bytes, path)) << "op type out of range";
  bytes = good;
  Patch<std::int64_t>(&bytes, node1_input0, 1);
  EXPECT_FALSE(LoadBytes(bytes, path)) << "input id not below the node's own";
  bytes = good;
  Patch<std::int64_t>(&bytes, node1_input0, -1);
  EXPECT_FALSE(LoadBytes(bytes, path)) << "negative input id";
  bytes = good;
  Patch<std::uint32_t>(&bytes, node0_end - 4 - 8 * src.node(0).out_dims.size(),
                       0xFFFFFFFFu);
  EXPECT_FALSE(LoadBytes(bytes, path)) << "dims count past the end";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace neocpu
