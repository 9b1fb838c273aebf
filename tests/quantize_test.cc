// The int8 quantized inference path: kernel-level exactness, graph-pass structure
// (Q/DQ insertion and cancellation), zoo-wide accuracy vs fp32, planned-vs-allocating
// bitwise equality, module + tuning-cache round trips, serving re-tunes, and the
// Target::int8_dot gating. All tuning-dependent tests pin explicit Target profiles
// (CI hosts can be 1-core/4-lane).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/core/compiler.h"
#include "src/core/memory_plan.h"
#include "src/core/presets.h"
#include "src/core/serialization.h"
#include "src/graph/builder.h"
#include "src/kernels/conv_nchwc_int8.h"
#include "src/kernels/conv_ref.h"
#include "src/kernels/quantize.h"
#include "src/models/model_zoo.h"
#include "src/tensor/layout_transform.h"
#include "src/tuning/schedule_space.h"
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

// The s8 NCHWc kernel against a scalar integer reference: identical s32 accumulation
// and identical epilogue arithmetic must agree BIT FOR BIT (integer math is exact).
TEST(ConvNCHWcS8, MatchesScalarIntegerReference) {
  const Conv2dParams p{2, 8, 9, 11, 12, 3, 3, 1, 1, 1, 1};
  ConvSchedule s{4, 4, 8, true};
  s.dtype = DType::kS8;
  Rng rng(5);

  Tensor in = Tensor::Empty({p.batch, p.in_c / s.ic_bn, p.in_h, p.in_w, s.ic_bn},
                            Layout::NCHWc(s.ic_bn), DType::kS8);
  Tensor w = Tensor::Empty(
      {p.out_c / s.oc_bn, p.in_c / s.ic_bn, p.kernel_h, p.kernel_w, s.ic_bn, s.oc_bn},
      Layout::OIHWio(s.ic_bn, s.oc_bn), DType::kS8);
  for (std::int64_t i = 0; i < in.NumElements(); ++i) {
    in.data_as<std::int8_t>()[i] = static_cast<std::int8_t>(rng.NextBounded(255)) - 127;
  }
  for (std::int64_t i = 0; i < w.NumElements(); ++i) {
    w.data_as<std::int8_t>()[i] = static_cast<std::int8_t>(rng.NextBounded(255)) - 127;
  }
  Tensor bias = Tensor::Empty({p.out_c}, Layout::Flat(), DType::kS32);
  for (std::int64_t o = 0; o < p.out_c; ++o) {
    bias.data_as<std::int32_t>()[o] = static_cast<std::int32_t>(rng.NextBounded(2000)) - 1000;
  }
  Tensor mult = Tensor::Empty({p.out_c}, Layout::Flat());
  for (std::int64_t o = 0; o < p.out_c; ++o) {
    mult.data()[o] = 1e-4f * (1.0f + static_cast<float>(o));
  }

  ConvEpilogue epi;
  epi.bias = true;
  epi.relu = true;
  Tensor out = Tensor::Empty({p.batch, p.out_c / s.oc_bn, p.OutH(), p.OutW(), s.oc_bn},
                             Layout::NCHWc(s.oc_bn), DType::kF32);
  ConvNCHWcS8(p, s, in, w, &bias, mult, epi, /*requant=*/false, &out);

  // Scalar reference: dequantize nothing, accumulate in s32 exactly.
  const std::int64_t icb = s.ic_bn, ocb = s.oc_bn;
  const std::int64_t oh_n = p.OutH(), ow_n = p.OutW();
  for (std::int64_t n = 0; n < p.batch; ++n) {
    for (std::int64_t oc = 0; oc < p.out_c; ++oc) {
      for (std::int64_t oh = 0; oh < oh_n; ++oh) {
        for (std::int64_t ow = 0; ow < ow_n; ++ow) {
          std::int64_t acc = 0;
          for (std::int64_t ic = 0; ic < p.in_c; ++ic) {
            for (std::int64_t kh = 0; kh < p.kernel_h; ++kh) {
              for (std::int64_t kw = 0; kw < p.kernel_w; ++kw) {
                const std::int64_t ih = oh * p.stride_h - p.pad_h + kh;
                const std::int64_t iw = ow * p.stride_w - p.pad_w + kw;
                if (ih < 0 || ih >= p.in_h || iw < 0 || iw >= p.in_w) {
                  continue;
                }
                const std::int64_t in_at =
                    ((((n * (p.in_c / icb) + ic / icb) * p.in_h + ih) * p.in_w + iw) * icb) +
                    ic % icb;
                const std::int64_t w_at =
                    ((((((oc / ocb) * (p.in_c / icb) + ic / icb) * p.kernel_h + kh) *
                           p.kernel_w +
                       kw) *
                          icb +
                      ic % icb) *
                     ocb) +
                    oc % ocb;
                acc += static_cast<std::int32_t>(in.data_as<std::int8_t>()[in_at]) *
                       static_cast<std::int32_t>(w.data_as<std::int8_t>()[w_at]);
              }
            }
          }
          acc += bias.data_as<std::int32_t>()[oc];
          if (acc < 0) {
            acc = 0;  // integer-domain ReLU
          }
          const float expect = static_cast<float>(acc) * mult.data()[oc];
          const std::int64_t out_at =
              ((((n * (p.out_c / ocb) + oc / ocb) * oh_n + oh) * ow_n + ow) * ocb) +
              oc % ocb;
          ASSERT_EQ(out.data()[out_at], expect)
              << "n=" << n << " oc=" << oc << " oh=" << oh << " ow=" << ow;
        }
      }
    }
  }
}

// Every ISA variant must compute the same integers; at minimum the dispatcher must
// name a variant and produce requantized output consistent with the fused dequant one.
TEST(ConvNCHWcS8, RequantAndDequantOutputsAgree) {
  const Conv2dParams p{1, 16, 14, 14, 32, 3, 3, 1, 1, 1, 1};
  ConvSchedule s{16, 32, 8, true};
  s.dtype = DType::kS8;
  Tensor in = Tensor::Empty({1, 1, 14, 14, 16}, Layout::NCHWc(16), DType::kS8);
  Tensor w = Tensor::Empty({1, 1, 3, 3, 16, 32}, Layout::OIHWio(16, 32), DType::kS8);
  for (std::int64_t i = 0; i < in.NumElements(); ++i) {
    in.data_as<std::int8_t>()[i] = static_cast<std::int8_t>((i * 7) % 200 - 100);
  }
  for (std::int64_t i = 0; i < w.NumElements(); ++i) {
    w.data_as<std::int8_t>()[i] = static_cast<std::int8_t>((i * 13) % 180 - 90);
  }
  const float out_scale = 0.37f;
  Tensor mult_deq = Tensor::Full({32}, 1e-4f);
  Tensor mult_req = Tensor::Full({32}, 1e-4f / out_scale);

  Tensor out_f32 = Tensor::Empty({1, 1, 14, 14, 32}, Layout::NCHWc(32), DType::kF32);
  ConvNCHWcS8(p, s, in, w, nullptr, mult_deq, {}, /*requant=*/false, &out_f32);
  Tensor out_s8 = Tensor::Empty({1, 1, 14, 14, 32}, Layout::NCHWc(32), DType::kS8);
  ConvNCHWcS8(p, s, in, w, nullptr, mult_req, {}, /*requant=*/true, &out_s8);

  Tensor dequant = Dequantize(out_s8, out_scale, 0);
  // The requantized value is the f32 value snapped to the s8 grid (within clamping).
  EXPECT_LE(Tensor::MaxAbsDiff(out_f32, dequant), out_scale * 0.5 + 1e-6);
  EXPECT_STRNE(ConvNCHWcS8IsaName(), "");
}

// s8 feature maps relayout exactly like fp32 ones (pure index permutation).
TEST(LayoutTransformS8, BlockedRoundTrip) {
  Tensor x = Tensor::Empty({2, 8, 5, 5}, Layout::NCHW(), DType::kS8);
  for (std::int64_t i = 0; i < x.NumElements(); ++i) {
    x.data_as<std::int8_t>()[i] = static_cast<std::int8_t>(i % 251 - 125);
  }
  Tensor blocked = NCHWToNCHWc(x, 4);
  EXPECT_EQ(blocked.dtype(), DType::kS8);
  Tensor reblocked = NCHWcToNCHWc(blocked, 8);
  Tensor back = NCHWcToNCHW(reblocked);
  ASSERT_EQ(back.NumElements(), x.NumElements());
  for (std::int64_t i = 0; i < x.NumElements(); ++i) {
    ASSERT_EQ(back.data_as<std::int8_t>()[i], x.data_as<std::int8_t>()[i]) << i;
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
      EXPECT_EQ(node.attrs.kernel, ConvKernelKind::kNCHWcS8) << node.name;
      requant_convs += node.attrs.qconv.requant ? 1 : 0;
    }
  }
  EXPECT_EQ(requant_convs, 2);  // c1, c2 feed s8 consumers; c3 dequantizes

  Tensor input = InputFor(model);
  const Tensor expected = Executor(&model).Run(input);
  EXPECT_LE(Tensor::AllCloseViolation(compiled.Run(input), expected, 0.05, 0.05), 0.0);
}

// A conv with both an s8 consumer and an fp32 consumer requantizes AND emits one
// explicit dequantize for the fp32 side.
TEST(QuantizeGraph, MixedConsumersEmitOneDequantize) {
  GraphBuilder b("mixed");
  int x = b.Input({1, 32, 16, 16});
  int c1 = b.Conv(x, 32, 3, 1, 1, /*bias=*/true, "c1");
  int c2 = b.Conv(c1, 32, 3, 1, 1, /*bias=*/true, "c2");  // s8 consumer of c1
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

// Two quantized convs reading the SAME fp32 tensor share one kQuantize (and one s8
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

// Residual-add epilogues are outside int8's legality window: those convs stay fp32
// even under force_quantize (exactly like Winograd's legality filtering).
TEST(QuantizeGraph, ResidualConvsStayFp32) {
  Graph model = BuildResNet(18, 1, 32);
  CompiledModel compiled = Compile(model, QuantizedOptions(Target::SkylakeAvx512()));
  EXPECT_GT(compiled.stats().num_quantized_convs, 0);
  EXPECT_LT(compiled.stats().num_quantized_convs, compiled.stats().num_convs);
  for (int id = 0; id < compiled.graph().num_nodes(); ++id) {
    const Node& node = compiled.graph().node(id);
    if (node.IsConv() && node.attrs.epilogue.residual_add) {
      EXPECT_FALSE(node.attrs.qconv.enabled) << node.name;
      EXPECT_NE(node.attrs.kernel, ConvKernelKind::kNCHWcS8) << node.name;
    }
  }
}

// "ISA gated by Target": a profile with int8_dot disabled never quantizes.
TEST(QuantizeGraph, Int8DisabledTargetStaysFp32) {
  Target no_int8 = Target::SkylakeAvx512();
  no_int8.int8_dot = false;
  EXPECT_TRUE(EnumerateS8Schedules({1, 64, 28, 28, 64, 3, 3, 1, 1, 1, 1}, no_int8).empty());
  Graph model = BuildTinyCnn(1, 32);
  CompiledModel compiled = Compile(model, QuantizedOptions(no_int8));
  EXPECT_EQ(compiled.stats().num_quantized_convs, 0);
  EXPECT_EQ(compiled.graph().CountNodes(OpType::kQuantize), 0);
}

// Cost-chosen (non-forced) selection: on a resnet-style model with wide channels the
// DP assigns int8 to part of the net; on targets it never helps, nothing breaks.
TEST(QuantizeGraph, GlobalSearchChoosesInt8WhereItPays) {
  Graph model = BuildResNet(18, 1, 64);
  CompiledModel compiled =
      Compile(model, QuantizedOptions(Target::SkylakeAvx512(), /*force=*/false));
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
  // softmax/flat outputs (per-layer symmetric calibration, s32 accumulation).
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

// ------------------------------------------------------------------ persistence

// A quantized model's module (calibration table, dtype-tagged cache entries) re-lowers
// to the same s8 graph, runs bit-exactly, and the loaded model can re-tune new batch
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

// s8 cache entries persist under dtype-tagged keys and reload next to the fp32 entries
// of the same shape.
TEST(QuantizeSerialization, TuningCacheV4RoundTripsDtypeEntries) {
  const Conv2dParams conv{1, 64, 14, 14, 64, 3, 3, 1, 1, 1, 1};
  const Target target = Target::SkylakeAvx512();
  TuningCache cache;
  LocalSearchConv(conv, target, CostMode::kAnalytic, true, nullptr, &cache);
  LocalSearchConv(conv, target, CostMode::kAnalytic, true, nullptr, &cache, nullptr,
                  DType::kS8);
  EXPECT_EQ(cache.size(), 2u);

  const std::string path = ::testing::TempDir() + "/quantized_cache.v4";
  ASSERT_TRUE(cache.SaveToFile(path));
  TuningCache reloaded;
  ASSERT_TRUE(reloaded.LoadFromFile(path));
  EXPECT_EQ(reloaded.size(), 2u);

  const WorkloadKey f32_key =
      WorkloadKey::Of(conv, target, CostMode::kAnalytic, true);
  const WorkloadKey s8_key =
      WorkloadKey::Of(conv, target, CostMode::kAnalytic, true, DType::kS8);
  auto f32_entry = reloaded.Find(f32_key);
  auto s8_entry = reloaded.Find(s8_key);
  ASSERT_NE(f32_entry, nullptr);
  ASSERT_NE(s8_entry, nullptr);
  EXPECT_EQ(f32_entry->best().schedule.dtype, DType::kF32);
  EXPECT_EQ(s8_entry->best().schedule.dtype, DType::kS8);
  // The s8 space leans on the full s8 vector: its best block exceeds the fp32 cap.
  EXPECT_EQ(s8_entry->best().schedule.oc_bn, target.PreferredBlockS8());

  // Key text round trip, including the dtype token.
  WorkloadKey parsed;
  ASSERT_TRUE(WorkloadKey::Parse(s8_key.ToString(), &parsed));
  EXPECT_EQ(parsed, s8_key);
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
    quantized += rebound.graph().node(id).attrs.kernel == ConvKernelKind::kNCHWcS8;
  }
  EXPECT_EQ(quantized, compiled.stats().num_quantized_convs);

  Rng rng(29);
  Tensor input = Tensor::Random({4, 3, 32, 32}, rng, -1.0f, 1.0f, Layout::NCHW());
  const Tensor expected = Executor(&rebound.graph()).Run(input);
  EXPECT_EQ(Tensor::MaxAbsDiff(rebound.Run(input), expected), 0.0);
}

}  // namespace
}  // namespace neocpu
