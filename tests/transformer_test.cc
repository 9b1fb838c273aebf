// The transformer-encoder workload end to end: graph structure, compiled-vs-reference
// parity for the tuned GEMM path, int8 dense accuracy, zero-alloc planned serving,
// and dense-schedule round trips through both the TuningCache file format and the
// compiled-module format. Tuning-dependent tests pin explicit Target profiles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/core/compiler.h"
#include "src/core/executor.h"
#include "src/core/memory_plan.h"
#include "src/core/presets.h"
#include "src/core/serialization.h"
#include "src/graph/builder.h"
#include "src/models/model_zoo.h"
#include "src/serve/inference_server.h"
#include "src/tuning/local_search.h"
#include "src/tuning/tuning_cache.h"

namespace neocpu {
namespace {

Tensor EncoderInput(std::int64_t batch = 1, std::uint64_t seed = 17) {
  Rng rng(seed);
  return Tensor::Random({batch, 8 * 64}, rng, -1.0f, 1.0f);
}

CompileOptions EncoderOptions(bool quantize = false) {
  CompileOptions opts = NeoCpuOptions(Target::SkylakeAvx512());
  if (quantize) {
    opts.quantize = true;
    opts.force_quantize = true;
    opts.quantize_dense = true;
  }
  return opts;
}

TEST(TransformerEncoder, StructureAndInputDims) {
  Graph g = BuildTransformerEncoder();
  // 6 dense per layer (q/k/v, attention proj, 2 FFN) x 2 layers + the head.
  EXPECT_EQ(g.CountNodes(OpType::kDense), 13);
  EXPECT_EQ(g.CountNodes(OpType::kMultiHeadAttention), 2);
  EXPECT_EQ(g.CountNodes(OpType::kLayerNorm), 4);
  EXPECT_EQ(g.CountNodes(OpType::kConv2d), 0);
  EXPECT_EQ(g.node(g.outputs()[0]).out_dims, (std::vector<std::int64_t>{1, 10}));
  EXPECT_EQ(ModelInputDims("transformer-encoder", 3),
            (std::vector<std::int64_t>{3, 512}));
  Graph by_name = BuildModel("transformer-encoder", 2);
  EXPECT_EQ(by_name.node(by_name.outputs()[0]).out_dims,
            (std::vector<std::int64_t>{2, 10}));
}

TEST(TransformerEncoder, CompiledMatchesReference) {
  Graph model = BuildTransformerEncoder();
  CompiledModel compiled = Compile(model, EncoderOptions());
  // Every dense must have been assigned a tuned GEMM schedule with a pre-packed B.
  EXPECT_EQ(compiled.stats().num_dense, 13);
  int packed = 0;
  for (int id = 0; id < compiled.graph().num_nodes(); ++id) {
    const Node& node = compiled.graph().node(id);
    if (node.type == OpType::kDense) {
      EXPECT_TRUE(node.attrs.has_gemm);
      packed += node.attrs.has_gemm ? 1 : 0;
    }
  }
  EXPECT_EQ(packed, 13);

  Tensor input = EncoderInput();
  Tensor expected = Executor(&model).Run(input);  // reference kernels, 2-D weights
  Tensor got = compiled.Run(input);
  EXPECT_LT(Tensor::MaxAbsDiff(expected, got), 1e-3)
      << "tuned GEMM encoder diverged from the reference executor";
}

TEST(TransformerEncoder, QuantizedEncoderStaysAccurate) {
  Graph model = BuildTransformerEncoder();
  CompiledModel f32 = Compile(model, EncoderOptions());
  CompiledModel int8 = Compile(model, EncoderOptions(/*quantize=*/true));
  EXPECT_GE(int8.stats().num_quantized_dense, 1);

  Tensor input = EncoderInput();
  Tensor expected = f32.Run(input);
  Tensor got = int8.Run(input);
  EXPECT_LE(Tensor::MaxAbsDiff(expected, got), 0.05)
      << "int8 encoder drifted beyond the accuracy budget";
}

TEST(TransformerEncoder, PlannedSteadyStateIsZeroAlloc) {
  CompiledModel compiled = Compile(BuildTransformerEncoder(), EncoderOptions());
  ASSERT_NE(compiled.plan(), nullptr);

  Tensor input = EncoderInput();
  const Executor planned(&compiled.graph(), nullptr, compiled.plan());
  const Tensor expected = Executor(&compiled.graph()).Run(input);
  planned.Run(input);  // warm-up: faults the pooled arena

  const std::uint64_t before = TensorHeapAllocCount();
  const Tensor got = planned.Run(input);
  EXPECT_EQ(TensorHeapAllocCount() - before,
            static_cast<std::uint64_t>(compiled.plan()->heap_nodes))
      << "attention/GEMM workspaces must come from the arena\n"
      << compiled.plan()->ToString();
  EXPECT_EQ(Tensor::MaxAbsDiff(expected, got), 0.0);
}

TEST(TransformerEncoder, ModuleRoundTripPreservesTunedDense) {
  CompiledModel compiled = Compile(BuildTransformerEncoder(), EncoderOptions());
  Tensor input = EncoderInput();
  Tensor expected = compiled.Run(input);

  const std::string path = "transformer_roundtrip.neoc";
  ASSERT_TRUE(SaveModule(compiled, path));
  CompiledModel loaded;
  ASSERT_TRUE(LoadModule(path, &loaded));
  std::remove(path.c_str());

  EXPECT_EQ(loaded.stats().num_dense, compiled.stats().num_dense);
  for (int id = 0; id < compiled.graph().num_nodes(); ++id) {
    const Node& a = compiled.graph().node(id);
    const Node& b = loaded.graph().node(id);
    EXPECT_EQ(a.attrs.has_gemm, b.attrs.has_gemm);
    if (a.attrs.has_gemm) {
      EXPECT_EQ(a.attrs.gemm, b.attrs.gemm);
      EXPECT_EQ(a.attrs.dense.m, b.attrs.dense.m);
      EXPECT_EQ(a.attrs.dense.n, b.attrs.dense.n);
      EXPECT_EQ(a.attrs.dense.k, b.attrs.dense.k);
    }
    EXPECT_EQ(a.attrs.heads, b.attrs.heads);
    EXPECT_EQ(a.attrs.seq, b.attrs.seq);
  }
  // Same graph, same packed weights, same schedules: bitwise-equal execution.
  EXPECT_EQ(Tensor::MaxAbsDiff(expected, loaded.Run(input)), 0.0);
}

TEST(TransformerEncoder, RebindBatchMatchesSerialRuns) {
  // Serving forms multi-request batches by rebinding: the {B, S*D} -> {B*S, D}
  // reshape scales proportionally and every tuned dense patches its GEMM M. The
  // pre-packed B panels are batch-invariant, so results must match per-sample runs.
  CompiledModel compiled = Compile(BuildTransformerEncoder(), EncoderOptions());
  CompiledModel rebound;
  ASSERT_TRUE(RebindBatch(compiled, 2, &rebound));
  for (int id = 0; id < rebound.graph().num_nodes(); ++id) {
    const Node& node = rebound.graph().node(id);
    if (node.type == OpType::kDense && node.attrs.has_gemm &&
        node.attrs.dense.k == 64 && node.attrs.dense.n == 64) {
      EXPECT_EQ(node.attrs.dense.m, 16);  // 2 * S rows after rebinding
    }
  }

  Tensor one_a = EncoderInput(1, 3);
  Tensor one_b = EncoderInput(1, 4);
  Tensor both = Tensor::Empty({2, 8 * 64}, Layout::Flat());
  std::copy_n(one_a.data(), one_a.NumElements(), both.data());
  std::copy_n(one_b.data(), one_b.NumElements(), both.data() + one_a.NumElements());
  Tensor batched = rebound.Run(both);
  Tensor ref_a = compiled.Run(one_a);
  Tensor ref_b = compiled.Run(one_b);
  for (std::int64_t i = 0; i < ref_a.NumElements(); ++i) {
    EXPECT_NEAR(batched.data()[i], ref_a.data()[i], 1e-5);
    EXPECT_NEAR(batched.data()[ref_a.NumElements() + i], ref_b.data()[i], 1e-5);
  }
}

TEST(TransformerEncoder, ServesWithZeroSteadyStateAllocs) {
  // The acceptance cut for the workload: the encoder behind InferenceServer, planned
  // path, steady-state per-request allocations collapsed to the escaping output.
  CompiledModel compiled = Compile(BuildTransformerEncoder(), EncoderOptions());
  ASSERT_NE(compiled.plan(), nullptr);
  const Tensor input = EncoderInput();
  const Tensor expected = compiled.Run(input);

  ServerOptions options;
  options.num_executors = 1;
  options.batching.max_batch_size = 1;
  options.bind_threads = false;
  options.background_retune = false;
  InferenceServer server(options);
  server.RegisterModel("encoder", std::move(compiled));
  SubmitTicket first = server.TrySubmit("encoder", input);
  ASSERT_TRUE(first.ok()) << SubmitStatusName(first.status);
  EXPECT_EQ(Tensor::MaxAbsDiff(first.result.get(), expected), 0.0);

  const std::uint64_t before = TensorHeapAllocCount();
  constexpr std::uint64_t kRequests = 8;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    SubmitTicket ticket = server.TrySubmit("encoder", input);
    ASSERT_TRUE(ticket.ok()) << SubmitStatusName(ticket.status);
    ticket.result.get();
  }
  EXPECT_LE(TensorHeapAllocCount() - before, kRequests)
      << "per-request allocations beyond the escaping output";
}

TEST(DenseTuning, ScheduleRoundTripsThroughTuningCache) {
  const DenseParams params{16, 256, 64};
  const Target target = Target::SkylakeAvx512();
  TuningCache cache;
  auto result = LocalSearchDenseShared(params, target, CostMode::kAnalytic,
                                       /*quick_space=*/true, nullptr, &cache);
  ASSERT_FALSE(result->dense_ranked.empty());
  const GemmSchedule best = result->BestDense()->schedule;

  // File round trip.
  const std::string path = "dense_cache_roundtrip.txt";
  ASSERT_TRUE(cache.SaveToFile(path));
  TuningCache from_file;
  ASSERT_TRUE(from_file.LoadFromFile(path));
  std::remove(path.c_str());
  const WorkloadKey key =
      WorkloadKey::OfDense(params, target, CostMode::kAnalytic, /*quick_space=*/true);
  auto hit = from_file.Find(key);
  ASSERT_NE(hit, nullptr);
  ASSERT_NE(hit->BestDense(), nullptr);
  EXPECT_EQ(hit->BestDense()->schedule, best);
  EXPECT_EQ(hit->dense_ranked.size(), result->dense_ranked.size());

  // Stream (module-embedding) round trip.
  std::ostringstream text;
  cache.Serialize(text);
  std::istringstream in(text.str());
  TuningCache from_stream;
  ASSERT_TRUE(from_stream.Deserialize(in));
  auto hit2 = from_stream.Find(key);
  ASSERT_NE(hit2, nullptr);
  ASSERT_NE(hit2->BestDense(), nullptr);
  EXPECT_EQ(hit2->BestDense()->schedule, best);
}

}  // namespace
}  // namespace neocpu
