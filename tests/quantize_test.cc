// The int8 quantized inference path: kernel-level exactness, graph-pass structure
// (Q/DQ insertion and cancellation), zoo-wide accuracy vs fp32, planned-vs-allocating
// bitwise equality, module + tuning-cache round trips, serving re-tunes, and the
// Target::vnni_dot gating. All tuning-dependent tests pin explicit Target profiles
// (CI hosts can be 1-core/4-lane).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/core/compiler.h"
#include "src/core/memory_plan.h"
#include "src/core/presets.h"
#include "src/core/serialization.h"
#include "src/graph/builder.h"
#include "src/kernels/conv_nchwc_int8.h"
#include "src/kernels/quantize.h"
#include "src/models/model_zoo.h"
#include "src/tuning/tuning_cache.h"

namespace neocpu {
namespace {

Tensor InputFor(const Graph& model, std::uint64_t seed = 17) {
  Rng rng(seed);
  for (int i = 0; i < model.num_nodes(); ++i) {
    if (model.node(i).type == OpType::kInput) {
      return Tensor::Random(model.node(i).out_dims, rng, -1.0f, 1.0f, Layout::NCHW());
    }
  }
  ADD_FAILURE() << "no input node";
  return {};
}

CompileOptions QuantizedOptions(const Target& target, bool force = true) {
  CompileOptions opts = NeoCpuOptions(target);
  opts.quantize = true;
  opts.force_quantize = force;
  return opts;
}

// ------------------------------------------------------------------ kernel level

// The requantizing u8 store is the dequantizing f32 store snapped to the u8 grid of
// the output scale and zero point (within clamping).
TEST(ConvNCHWcS8, RequantAndDequantOutputsAgree) {
  const Conv2dParams p{1, 16, 14, 14, 32, 3, 3, 1, 1, 1, 1};
  ConvSchedule s{16, 32, 8, true};
  s.dtype = DType::kU8;
  Tensor in = Tensor::Empty({1, 1, 14, 14, 16}, Layout::NCHWc(16), DType::kU8);
  Tensor w = Tensor::Empty({1, 1, 3, 3, 16, 32}, Layout::OIHWio(16, 32), DType::kS8);
  for (std::int64_t i = 0; i < in.NumElements(); ++i) {
    in.data_as<std::uint8_t>()[i] = static_cast<std::uint8_t>((i * 7) % 200);
  }
  for (std::int64_t i = 0; i < w.NumElements(); ++i) {
    w.data_as<std::int8_t>()[i] = static_cast<std::int8_t>((i * 13) % 180 - 90);
  }
  w = PackWeightsVnni(w);
  const float out_scale = 0.37f;
  const std::int32_t out_zero = 100;
  Tensor mult_deq = Tensor::Full({32}, 1e-4f);
  Tensor mult_req = Tensor::Full({32}, 1e-4f / out_scale);

  Tensor out_f32 = Tensor::Empty({1, 1, 14, 14, 32}, Layout::NCHWc(32), DType::kF32);
  ConvNCHWcS8(p, s, in, w, nullptr, mult_deq, {}, /*requant=*/false, &out_f32);
  Tensor out_u8 = Tensor::Empty({1, 1, 14, 14, 32}, Layout::NCHWc(32), DType::kU8);
  ConvNCHWcS8(p, s, in, w, nullptr, mult_req, {}, /*requant=*/true, &out_u8, nullptr,
              out_zero);

  Tensor dequant = Tensor::Empty(out_u8.dims(), out_u8.layout());
  Dequantize(out_u8, out_scale, out_zero, &dequant);
  EXPECT_LE(Tensor::MaxAbsDiff(out_f32, dequant), out_scale * 0.5 + 1e-6);
  EXPECT_STRNE(ConvNCHWcS8IsaName(), "");
}

// Every quantizing store rounds with rint and clamps in float (RoundClamp). On ties,
// negatives and values beyond the s32 range it gives the bytes lrintf followed by an
// integer clamp gives; values beyond +-2^31 saturate instead of wrapping.
TEST(Quantize, RoundClampMatchesLrintfAndSaturates) {
  std::vector<float> xs;
  for (int k = -300; k <= 300; ++k) {
    for (const float frac : {0.0f, 0.25f, 0.5f, 0.75f}) {
      xs.push_back(static_cast<float>(k) + frac);  // every ±k.5 is a tie
    }
  }
  for (const float big : {2147483648.0f, 3e9f, 1e12f, 5e18f}) {
    xs.push_back(big);
    xs.push_back(-big);
  }
  const auto lrintf_clamp = [](float x, std::int32_t zero, long lo, long hi) {
    const long q = std::lrintf(x) + zero;
    return q < lo ? lo : (q > hi ? hi : q);
  };
  Tensor in = Tensor::Empty({static_cast<std::int64_t>(xs.size())}, Layout::Flat());
  std::copy(xs.begin(), xs.end(), in.data());
  Tensor out = Tensor::Empty(in.dims(), in.layout(), DType::kU8);
  for (const std::int32_t zero : {0, 3, 128, 255}) {
    Quantize(in, 1.0f, zero, &out);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      ASSERT_EQ(out.data_as<std::uint8_t>()[i], lrintf_clamp(xs[i], zero, 0, 255))
          << "x=" << xs[i] << " zero=" << zero;
    }
  }
  for (const float x : xs) {  // the s8 weight range
    ASSERT_EQ(RoundClamp(x, 0, -kS8QuantMax, kS8QuantMax),
              lrintf_clamp(x, 0, -kS8QuantMax, kS8QuantMax))
        << "x=" << x;
  }
  const float inf = std::numeric_limits<float>::infinity();
  for (const float x : {1e30f, inf}) {
    EXPECT_EQ(RoundClamp(x, 128, 0.0f, 255.0f), 255) << x;
    EXPECT_EQ(RoundClamp(-x, 128, 0.0f, 255.0f), 0) << -x;
  }
}

// ------------------------------------------------------------------ pass structure

// A chain of quantizable convs stays in int8: exactly one kQuantize at entry, one
// fp32 exit (fused dequant), and NO Q/DQ pair between the convs.
TEST(QuantizeGraph, ChainStaysInInt8) {
  GraphBuilder b("chain");
  int x = b.Input({1, 32, 16, 16});
  x = b.Conv(x, 32, 3, 1, 1, /*bias=*/true, "c1");
  x = b.Relu(x);
  x = b.Conv(x, 32, 3, 1, 1, /*bias=*/true, "c2");
  x = b.Relu(x);
  x = b.Conv(x, 32, 1, 1, 0, /*bias=*/true, "c3");
  Graph model = b.Finish({x});

  CompiledModel compiled = Compile(model, QuantizedOptions(Target::SkylakeAvx512()));
  EXPECT_EQ(compiled.stats().num_quantized_convs, 3);
  const Graph& g = compiled.graph();
  EXPECT_EQ(g.CountNodes(OpType::kQuantize), 1);
  EXPECT_EQ(g.CountNodes(OpType::kDequantize), 0);  // exit dequant fuses into c3
  int requant_convs = 0;
  for (int id = 0; id < g.num_nodes(); ++id) {
    const Node& node = g.node(id);
    if (node.IsConv() && node.attrs.qconv.enabled) {
      EXPECT_TRUE(node.attrs.schedule.IsQuantized()) << node.name;
      requant_convs += node.attrs.qconv.requant ? 1 : 0;
    }
  }
  EXPECT_EQ(requant_convs, 2);  // c1, c2 feed u8 consumers; c3 dequantizes

  Tensor input = InputFor(model);
  const Tensor expected = Executor(&model).Run(input);
  EXPECT_LE(Tensor::AllCloseViolation(compiled.Run(input), expected, 0.05, 0.05), 0.0);
}

// A conv with both a u8 consumer and an fp32 consumer requantizes AND emits one
// explicit dequantize for the fp32 side.
TEST(QuantizeGraph, MixedConsumersEmitOneDequantize) {
  GraphBuilder b("mixed");
  int x = b.Input({1, 32, 16, 16});
  int c1 = b.Conv(x, 32, 3, 1, 1, /*bias=*/true, "c1");
  int c2 = b.Conv(c1, 32, 3, 1, 1, /*bias=*/true, "c2");  // u8 consumer of c1
  int pool = b.GlobalAvgPool(c1);                          // fp32 consumer of c1
  int flat = b.Flatten(pool);
  int flat2 = b.Flatten(b.GlobalAvgPool(c2));
  int cat = b.Concat({flat, flat2});
  Graph model = b.Finish({cat});

  CompiledModel compiled = Compile(model, QuantizedOptions(Target::SkylakeAvx512()));
  EXPECT_EQ(compiled.stats().num_quantized_convs, 2);
  EXPECT_EQ(compiled.graph().CountNodes(OpType::kDequantize), 1);

  Tensor input = InputFor(model);
  const Tensor expected = Executor(&model).Run(input);
  EXPECT_LE(Tensor::AllCloseViolation(compiled.Run(input), expected, 0.05, 0.05), 0.0);
}

// Two quantized convs reading the SAME fp32 tensor share one kQuantize (and one u8
// buffer) instead of re-converting the feature map per branch.
TEST(QuantizeGraph, BranchesShareOneQuantizeNode) {
  GraphBuilder b("branches");
  int x = b.Input({1, 32, 16, 16});
  int a = b.Conv(x, 32, 1, 1, 0, /*bias=*/true, "a");
  int c = b.Conv(x, 32, 3, 1, 1, /*bias=*/true, "c");
  int cat = b.Concat({a, c});
  Graph model = b.Finish({cat});

  CompiledModel compiled = Compile(model, QuantizedOptions(Target::SkylakeAvx512()));
  EXPECT_EQ(compiled.stats().num_quantized_convs, 2);
  EXPECT_EQ(compiled.graph().CountNodes(OpType::kQuantize), 1);

  Tensor input = InputFor(model);
  const Tensor expected = Executor(&model).Run(input);
  EXPECT_LE(Tensor::AllCloseViolation(compiled.Run(input), expected, 0.05, 0.05), 0.0);
}

// The u8 template fuses a residual add (sum fusion), so under force_quantize every
// residual conv runs kNCHWcS8, and so does every other conv: the 3-channel stem runs
// on its input channels padded to a quad.
TEST(QuantizeGraph, ResidualConvsRunNCHWcS8) {
  Graph model = BuildResNet(18, 1, 32);
  CompiledModel compiled = Compile(model, QuantizedOptions(Target::SkylakeAvx512()));
  EXPECT_EQ(compiled.stats().num_quantized_convs, compiled.stats().num_convs);
  int residual_convs = 0;
  for (int id = 0; id < compiled.graph().num_nodes(); ++id) {
    const Node& node = compiled.graph().node(id);
    if (node.IsConv() && node.attrs.epilogue.residual_add) {
      EXPECT_TRUE(node.attrs.qconv.enabled) << node.name;
      EXPECT_TRUE(node.attrs.schedule.IsQuantized()) << node.name;
      ++residual_convs;
    }
  }
  EXPECT_EQ(residual_convs, 8);
}

// "ISA gated by Target": int8 beats f32 only through VNNI, so a target without it
// offers no int8 schedule unless quantization is forced; forced, the portable tier
// runs the quantized graph within the zoo tolerance.
TEST(QuantizeGraph, Int8NeedsVnniUnlessForced) {
  Graph model = BuildTinyCnn(1, 32);
  CompiledModel unforced =
      Compile(model, QuantizedOptions(Target::SkylakeAvx512(), /*force=*/false));
  EXPECT_EQ(unforced.stats().num_quantized_convs, 0);
  EXPECT_EQ(unforced.graph().CountNodes(OpType::kQuantize), 0);

  CompiledModel forced = Compile(model, QuantizedOptions(Target::SkylakeAvx512()));
  EXPECT_GT(forced.stats().num_quantized_convs, 0);
  EXPECT_GT(forced.graph().CountNodes(OpType::kQuantize), 0);
  Tensor input = InputFor(model);
  const Tensor expected = Executor(&model).Run(input);
  EXPECT_LE(Tensor::MaxAbsDiff(forced.Run(input), expected), 0.05);
}

// Cost-chosen (non-forced) selection: on a resnet-style model with wide channels on a
// VNNI target the DP assigns int8 to part of the net.
TEST(QuantizeGraph, GlobalSearchChoosesInt8WhereItPays) {
  Graph model = BuildResNet(18, 1, 64);
  CompiledModel compiled =
      Compile(model, QuantizedOptions(Target::CascadeLakeVnni(), /*force=*/false));
  EXPECT_TRUE(compiled.stats().used_global_search);
  EXPECT_GT(compiled.stats().num_quantized_convs, 0);

  Tensor input = InputFor(model);
  const Tensor expected = Executor(&model).Run(input);
  EXPECT_LE(Tensor::AllCloseViolation(compiled.Run(input), expected, 0.05, 0.05), 0.0);
}

// ------------------------------------------------------------------ zoo accuracy

struct ZooCase {
  std::string label;
  Graph (*build)();
};

Graph TinyResNet18() { return BuildResNet(18, 1, 64); }
Graph TinyResNet50() { return BuildResNet(50, 1, 64); }
Graph TinyVgg11() { return BuildVgg(11, 1, 64); }
Graph TinyDenseNet121() { return BuildDenseNet(121, 1, 64); }
Graph TinyInception() { return BuildInceptionV3(1, 139); }
Graph TinyCnn() { return BuildTinyCnn(1, 32); }

class ZooQuantized : public ::testing::TestWithParam<ZooCase> {};

// Forced-int8 compiles across the zoo: output within the documented max-abs-error
// tolerance of the fp32 reference, bitwise-identical planned-vs-allocating execution,
// and the zero-heap-alloc planned steady state.
TEST_P(ZooQuantized, TracksFp32WithinToleranceAndStaysZeroAlloc) {
  Graph model = GetParam().build();
  Tensor input = InputFor(model);
  const Tensor expected = Executor(&model).Run(input);

  CompiledModel compiled = Compile(model, QuantizedOptions(Target::SkylakeAvx512()));
  EXPECT_GT(compiled.stats().num_quantized_convs, 0) << GetParam().label;

  // Documented int8 accuracy bound: 0.05 max-abs-error against fp32 for the zoo's
  // softmax/flat outputs (per-layer affine u8 calibration, s32 accumulation).
  const Tensor got = compiled.Run(input);
  EXPECT_LE(Tensor::MaxAbsDiff(got, expected), 0.05) << GetParam().label;

  // Planned-vs-allocating bitwise equality for the int8 graph.
  ASSERT_NE(compiled.plan(), nullptr) << GetParam().label;
  std::vector<std::string> errors;
  EXPECT_TRUE(ValidatePlan(compiled.graph(), *compiled.plan(), &errors))
      << GetParam().label << ": " << (errors.empty() ? "" : errors.front());
  const Executor allocating(&compiled.graph());
  const Tensor alloc_out = allocating.Run(input);
  EXPECT_EQ(Tensor::MaxAbsDiff(alloc_out, got), 0.0) << GetParam().label;

  // Zero-heap-alloc planned steady state (TensorHeapAllocCount delta == escaping
  // outputs only).
  const Executor planned(&compiled.graph(), nullptr, compiled.plan());
  planned.Run(input);  // warm the pooled arena
  const std::uint64_t before = TensorHeapAllocCount();
  planned.Run(input);
  EXPECT_EQ(TensorHeapAllocCount() - before,
            static_cast<std::uint64_t>(compiled.plan()->heap_nodes))
      << GetParam().label;
}

INSTANTIATE_TEST_SUITE_P(Zoo, ZooQuantized,
                         ::testing::Values(ZooCase{"tiny_cnn", &TinyCnn},
                                           ZooCase{"resnet18", &TinyResNet18},
                                           ZooCase{"resnet50", &TinyResNet50},
                                           ZooCase{"vgg11", &TinyVgg11},
                                           ZooCase{"densenet121", &TinyDenseNet121},
                                           ZooCase{"inception", &TinyInception}),
                         [](const ::testing::TestParamInfo<ZooCase>& info) {
                           return info.param.label;
                         });

// The default calibration is one synthetic batch from [-1, 1], and the image itself is
// quantized against its range, so accuracy must hold on inputs it never saw: three
// held-out seeded images each from [0, 1] (perfbench's image range) and from [-1, 1],
// on the full-size resnet18 (every conv u8, the stem included) and on tiny-cnn. The
// reference is the f32 compile of the same graph.
TEST(ZooQuantizedHeldOut, DefaultCalibrationHoldsOnUnseenInputs) {
  const Target target = Target::SkylakeAvx512();
  for (const char* name : {"resnet18", "tiny-cnn"}) {
    const Graph model = BuildModel(name);
    CompiledModel quantized = Compile(model, QuantizedOptions(target));
    ASSERT_EQ(quantized.stats().num_quantized_convs, quantized.stats().num_convs) << name;
    const CompiledModel reference = Compile(model, NeoCpuOptions(target));
    int input_id = 0;
    while (model.node(input_id).type != OpType::kInput) {
      ++input_id;
    }
    for (const float lo : {0.0f, -1.0f}) {
      for (const std::uint64_t seed : {101, 202, 303}) {
        Rng rng(seed);
        const Tensor input = Tensor::Random(model.node(input_id).out_dims, rng, lo, 1.0f,
                                            Layout::NCHW());
        EXPECT_LE(Tensor::MaxAbsDiff(quantized.Run(input), reference.Run(input)), 0.05)
            << name << " input in [" << lo << ", 1], seed " << seed;
      }
    }
  }
}

// ------------------------------------------------------------------ persistence

// A quantized model's module (calibration table, dtype-tagged cache entries) re-lowers
// to the same int8 graph, runs bit-exactly, and the loaded model can re-tune new batch
// sizes with int8 re-selected.
TEST(QuantizeSerialization, ModuleV5RoundTripsAndRetunes) {
  Graph model = BuildTinyCnn(1, 32);
  Tensor input = InputFor(model);
  CompiledModel compiled = Compile(model, QuantizedOptions(Target::SkylakeAvx512()));
  ASSERT_GT(compiled.stats().num_quantized_convs, 0);
  const Tensor expected = compiled.Run(input);

  const std::string path = ::testing::TempDir() + "/quantized_module.neoc";
  ASSERT_TRUE(SaveModule(compiled, path));
  CompiledModel loaded;
  ASSERT_TRUE(LoadModule(path, &loaded));
  EXPECT_TRUE(loaded.config().quantize);
  EXPECT_TRUE(loaded.config().force_quantize);
  EXPECT_EQ(loaded.stats().num_quantized_convs, compiled.stats().num_quantized_convs);
  EXPECT_EQ(loaded.calibration().size(), compiled.calibration().size());
  EXPECT_EQ(Tensor::MaxAbsDiff(loaded.Run(input), expected), 0.0);

  // Warm re-tune at a new batch size keeps the quantized path (calibration rides in
  // the artifact; ranges are batch-independent).
  CompiledModel retuned;
  ASSERT_TRUE(RetuneForBatch(loaded, 3, nullptr, &retuned));
  EXPECT_EQ(retuned.stats().tuned_batch, 3);
  EXPECT_GT(retuned.stats().num_quantized_convs, 0);
  Rng rng(23);
  Tensor batch3 = Tensor::Random({3, 3, 32, 32}, rng, -1.0f, 1.0f, Layout::NCHW());
  const Tensor ref = Executor(&retuned.graph()).Run(batch3);
  EXPECT_EQ(Tensor::MaxAbsDiff(retuned.Run(batch3), ref), 0.0);
}

// u8 cache entries persist under u8-tagged keys and reload next to the fp32 entries of
// the same shape.
TEST(QuantizeSerialization, TuningCacheRoundTripsDtypeEntries) {
  const Conv2dParams conv{1, 64, 14, 14, 64, 3, 3, 1, 1, 1, 1};
  const Target target = Target::SkylakeAvx512();
  TuningCache cache;
  LocalSearchConv(conv, target, CostMode::kAnalytic, true, nullptr, &cache);
  LocalSearchConv(conv, target, CostMode::kAnalytic, true, nullptr, &cache, nullptr,
                  DType::kU8);
  EXPECT_EQ(cache.size(), 2u);

  const std::string path = ::testing::TempDir() + "/quantized_cache.v4";
  ASSERT_TRUE(cache.SaveToFile(path));
  TuningCache reloaded;
  ASSERT_TRUE(reloaded.LoadFromFile(path));
  EXPECT_EQ(reloaded.size(), 2u);

  const WorkloadKey f32_key =
      WorkloadKey::Of(conv, target, CostMode::kAnalytic, true);
  const WorkloadKey u8_key =
      WorkloadKey::Of(conv, target, CostMode::kAnalytic, true, DType::kU8);
  auto f32_entry = reloaded.Find(f32_key);
  auto u8_entry = reloaded.Find(u8_key);
  ASSERT_NE(f32_entry, nullptr);
  ASSERT_NE(u8_entry, nullptr);
  EXPECT_EQ(f32_entry->best().schedule.dtype, DType::kF32);
  EXPECT_EQ(u8_entry->best().schedule.dtype, DType::kU8);
  EXPECT_EQ(u8_entry->best().schedule.ic_bn % 4, 0);
  // The int8 space leans on the full 8-bit vector: its best block exceeds the fp32 cap.
  EXPECT_EQ(u8_entry->best().schedule.oc_bn, target.PreferredBlockS8());

  // Key text round trip, including the dtype token.
  WorkloadKey parsed;
  ASSERT_TRUE(WorkloadKey::Parse(u8_key.ToString(), &parsed));
  EXPECT_EQ(parsed, u8_key);
  ASSERT_TRUE(WorkloadKey::Parse(f32_key.ToString(), &parsed));
  EXPECT_EQ(parsed, f32_key);
}

// ------------------------------------------------------------------ batch rebinding

// RebindBatch on a quantized model preserves the int8 graph structure and executes
// exactly (the derivative reuses pre-quantized weights; only shapes re-infer).
TEST(QuantizeBatch, RebindKeepsInt8AndMatchesAllocating) {
  Graph model = BuildTinyCnn(1, 32);
  CompiledModel compiled = Compile(model, QuantizedOptions(Target::SkylakeAvx512()));
  ASSERT_GT(compiled.stats().num_quantized_convs, 0);

  CompiledModel rebound;
  ASSERT_TRUE(RebindBatch(compiled, 4, &rebound));
  int quantized = 0;
  for (int id = 0; id < rebound.graph().num_nodes(); ++id) {
    quantized += rebound.graph().node(id).attrs.schedule.IsQuantized();
  }
  EXPECT_EQ(quantized, compiled.stats().num_quantized_convs);

  Rng rng(29);
  Tensor input = Tensor::Random({4, 3, 32, 32}, rng, -1.0f, 1.0f, Layout::NCHW());
  const Tensor expected = Executor(&rebound.graph()).Run(input);
  EXPECT_EQ(Tensor::MaxAbsDiff(rebound.Run(input), expected), 0.0);
}

}  // namespace
}  // namespace neocpu
