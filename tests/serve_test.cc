// Serving-subsystem tests: batch stacking/splitting, core partition planning, the
// dynamic batcher's flush rules, compiled-model batch rebinding, and the end-to-end
// concurrent server (many client threads, results bit-identical to serial execution).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <thread>

#include "src/base/rng.h"
#include "src/base/timer.h"
#include "src/core/serialization.h"
#include "src/models/model_zoo.h"
#include "src/neocpu.h"

namespace neocpu {
namespace {

Tensor SampleInput(std::uint64_t seed, std::vector<std::int64_t> dims = {1, 3, 32, 32}) {
  Rng rng(seed);
  return Tensor::Random(std::move(dims), rng, 0.0f, 1.0f, Layout::NCHW());
}

// Every server here is sized for its load, so a shed or a rejection is a test failure.
std::future<Tensor> SubmitOk(InferenceServer& server, const std::string& model,
                             Tensor input) {
  SubmitTicket ticket = server.TrySubmit(model, std::move(input));
  EXPECT_TRUE(ticket.ok()) << SubmitStatusName(ticket.status);
  return std::move(ticket.result);
}

ServeRequest MakeRequest(const std::string& model, Tensor input, bool batchable = true) {
  ServeRequest r;
  r.model = model;
  r.input = std::move(input);
  r.batchable = batchable;
  r.enqueue_time = std::chrono::steady_clock::now();
  return r;
}

TEST(BatchUtil, StackSplitRoundTrip) {
  std::vector<Tensor> samples;
  for (int i = 0; i < 3; ++i) {
    samples.push_back(SampleInput(static_cast<std::uint64_t>(i), {1, 2, 4, 4}));
  }
  Tensor stacked = StackBatch(samples);
  EXPECT_EQ(stacked.dims(), (std::vector<std::int64_t>{3, 2, 4, 4}));
  std::vector<Tensor> parts = SplitBatch(stacked, 3);
  ASSERT_EQ(parts.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(parts[static_cast<std::size_t>(i)].dims(),
              (std::vector<std::int64_t>{1, 2, 4, 4}));
    EXPECT_EQ(Tensor::MaxAbsDiff(parts[static_cast<std::size_t>(i)],
                                 samples[static_cast<std::size_t>(i)]),
              0.0);
  }
}

TEST(BatchUtil, StackRejectsMismatchedSampleDims) {
  std::vector<Tensor> samples;
  samples.push_back(SampleInput(1, {1, 2, 4, 4}));
  samples.push_back(SampleInput(2, {1, 2, 4, 5}));
  EXPECT_DEATH(StackBatch(samples), "mismatch");
}

TEST(Partition, PlanSplitsCoresDisjointly) {
  const std::vector<CorePartition> plan =
      PlanCorePartitions(3, 8, CpuTopology::SingleNode(8));
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].cpus, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(plan[1].cpus, (std::vector<int>{3, 4, 5}));
  EXPECT_EQ(plan[2].cpus, (std::vector<int>{6, 7}));
}

TEST(Partition, PlanClampsToCoreCount) {
  const std::vector<CorePartition> plan =
      PlanCorePartitions(4, 2, CpuTopology::SingleNode(4));
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].cpus, (std::vector<int>{0}));
  EXPECT_EQ(plan[1].cpus, (std::vector<int>{1}));
}

TEST(DynamicBatcher, FullBatchFlushesWithoutDelay) {
  DynamicBatcher batcher({/*max_batch_size=*/3, /*max_delay_ms=*/60000.0});
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t seed = static_cast<std::uint64_t>(i);
    EXPECT_EQ(batcher.TryPush(MakeRequest("m", SampleInput(seed))),
              AdmitResult::kAccepted);
  }
  std::vector<ServeRequest> batch;
  ASSERT_TRUE(batcher.PopBatch(&batch));  // would block for a minute if delay applied
  EXPECT_EQ(batch.size(), 3u);
  EXPECT_EQ(batcher.PendingCount(), 0u);
}

TEST(DynamicBatcher, MaxDelayFlushesPartialBatch) {
  const double delay_ms = 50.0;
  DynamicBatcher batcher({/*max_batch_size=*/8, delay_ms});
  EXPECT_EQ(batcher.TryPush(MakeRequest("m", SampleInput(1))), AdmitResult::kAccepted);
  Timer timer;
  std::vector<ServeRequest> batch;
  ASSERT_TRUE(batcher.PopBatch(&batch));
  EXPECT_EQ(batch.size(), 1u);
  // The single request cannot flush before its deadline.
  EXPECT_GE(timer.Millis(), delay_ms * 0.8);
}

TEST(DynamicBatcher, IncompatibleShapeBypassesImmediately) {
  DynamicBatcher batcher({/*max_batch_size=*/8, /*max_delay_ms=*/60000.0});
  EXPECT_EQ(batcher.TryPush(MakeRequest("m", SampleInput(1, {1, 3, 32, 32}))),
            AdmitResult::kAccepted);
  EXPECT_EQ(batcher.TryPush(MakeRequest("m", SampleInput(2, {1, 3, 24, 24}))),
            AdmitResult::kAccepted);
  std::vector<ServeRequest> batch;
  // The front run is blocked by the incompatible successor, so it flushes immediately
  // as a singleton despite the minute-long delay budget; FIFO order is preserved. The
  // remaining request then waits for mates of its own shape (it flushes on shutdown).
  ASSERT_TRUE(batcher.PopBatch(&batch));
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].input.dim(2), 32);
  EXPECT_EQ(batcher.PendingCount(), 1u);
  batcher.Shutdown();
  ASSERT_TRUE(batcher.PopBatch(&batch));
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].input.dim(2), 24);
}

TEST(DynamicBatcher, NonBatchableRequestsRunAlone) {
  DynamicBatcher batcher({/*max_batch_size=*/8, /*max_delay_ms=*/60000.0});
  EXPECT_EQ(batcher.TryPush(MakeRequest("m", SampleInput(1), /*batchable=*/false)),
            AdmitResult::kAccepted);
  EXPECT_EQ(batcher.TryPush(MakeRequest("m", SampleInput(2), /*batchable=*/false)),
            AdmitResult::kAccepted);
  std::vector<ServeRequest> batch;
  ASSERT_TRUE(batcher.PopBatch(&batch));
  EXPECT_EQ(batch.size(), 1u);
  ASSERT_TRUE(batcher.PopBatch(&batch));
  EXPECT_EQ(batch.size(), 1u);
}

TEST(DynamicBatcher, ShutdownFlushesAndDrains) {
  DynamicBatcher batcher({/*max_batch_size=*/8, /*max_delay_ms=*/60000.0});
  EXPECT_EQ(batcher.TryPush(MakeRequest("m", SampleInput(1))), AdmitResult::kAccepted);
  EXPECT_EQ(batcher.TryPush(MakeRequest("m", SampleInput(2))), AdmitResult::kAccepted);
  batcher.Shutdown();
  std::vector<ServeRequest> batch;
  ASSERT_TRUE(batcher.PopBatch(&batch));
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_FALSE(batcher.PopBatch(&batch));
}

TEST(RebindBatch, BatchedRunMatchesSerialRuns) {
  CompiledModel compiled = Compile(BuildTinyCnn());
  CompiledModel batched;
  ASSERT_TRUE(RebindBatch(compiled, 3, &batched));
  EXPECT_EQ(batched.graph().node(0).out_dims[0], 3);

  std::vector<Tensor> samples;
  std::vector<Tensor> expected;
  for (int i = 0; i < 3; ++i) {
    samples.push_back(SampleInput(100 + static_cast<std::uint64_t>(i)));
    expected.push_back(compiled.Run(samples.back()));
  }
  Tensor out = batched.Run(StackBatch(samples));
  std::vector<Tensor> parts = SplitBatch(out, 3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(Tensor::MaxAbsDiff(parts[static_cast<std::size_t>(i)],
                                 expected[static_cast<std::size_t>(i)]),
              0.0)
        << "sample " << i;
  }
}

TEST(RebindBatch, RejectsInvalidBatch) {
  CompiledModel compiled = Compile(BuildTinyCnn());
  CompiledModel out;
  EXPECT_FALSE(RebindBatch(compiled, 0, &out));
}

TEST(ModelRegistry, WarmStartFromSerializedModule) {
  CompiledModel compiled = Compile(BuildTinyCnn());
  const std::string path = ::testing::TempDir() + "/tiny_cnn_serve.neoc";
  ASSERT_TRUE(SaveModule(compiled, path));

  ModelRegistry registry;
  ModelEntry* entry = registry.RegisterFromFile("tiny", path);
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->batchable());
  EXPECT_EQ(entry->sample_dims(), (std::vector<std::int64_t>{1, 3, 32, 32}));

  Tensor input = SampleInput(7);
  Tensor expected = compiled.Run(input);
  Tensor served = entry->VariantFor(1)->executor->Run(input, nullptr);
  EXPECT_EQ(Tensor::MaxAbsDiff(served, expected), 0.0);
  std::remove(path.c_str());
}

TEST(RebindBatch, ScalesBatchMergingReshape) {
  // A reshape that merges the batch into its leading dim ({B, 3, 4, 4} -> {3B, 16})
  // rebinds by scaling that dim proportionally: the flat buffer is batch-major, so
  // per-sample row blocks stay contiguous and rowwise downstream ops see the same
  // data as B independent runs. This is the shape the transformer encoder relies on
  // ({B, S*D} -> {B*S, D}).
  GraphBuilder b("odd_reshape");
  int in = b.Input({1, 3, 4, 4});
  int r = b.Reshape(in, {3, 16});
  Graph g = b.Finish({b.Softmax(r)});
  CompiledModel compiled = Compile(g);

  CompiledModel rebound;
  ASSERT_TRUE(RebindBatch(compiled, 2, &rebound));
  Rng rng(11);
  Tensor one_a = Tensor::Random({1, 3, 4, 4}, rng, -1.0f, 1.0f, Layout::NCHW());
  Tensor one_b = Tensor::Random({1, 3, 4, 4}, rng, -1.0f, 1.0f, Layout::NCHW());
  Tensor both = Tensor::Empty({2, 3, 4, 4}, Layout::NCHW());
  std::copy_n(one_a.data(), one_a.NumElements(), both.data());
  std::copy_n(one_b.data(), one_b.NumElements(), both.data() + one_a.NumElements());
  Tensor batched = rebound.Run(both);
  Tensor ref_a = compiled.Run(one_a);
  Tensor ref_b = compiled.Run(one_b);
  ASSERT_EQ(batched.NumElements(), ref_a.NumElements() + ref_b.NumElements());
  for (std::int64_t i = 0; i < ref_a.NumElements(); ++i) {
    EXPECT_FLOAT_EQ(batched.data()[i], ref_a.data()[i]);
    EXPECT_FLOAT_EQ(batched.data()[ref_a.NumElements() + i], ref_b.data()[i]);
  }
}

TEST(RebindBatch, RefusesIndivisibleReshape) {
  // When the leading reshape dim is not a multiple of the batch there is no
  // proportional scaling that preserves per-sample blocks; the registry must mark
  // such a model non-batchable instead of crashing mid-serve when the first
  // multi-request batch forms.
  GraphBuilder b("indivisible_reshape");
  int in = b.Input({2, 3, 4, 4});
  int r = b.Reshape(in, {3, 32});
  Graph g = b.Finish({b.Softmax(r)});
  CompiledModel compiled = Compile(g);

  CompiledModel out;
  EXPECT_FALSE(RebindBatch(compiled, 4, &out));
  EXPECT_FALSE(RebindBatch(compiled, 1, &out));
}

TEST(ServingStats, ReservoirKeepsCountAndBoundsMemory) {
  LatencyRecorder recorder;
  const std::size_t total = LatencyRecorder::kMaxSamples + 5000;
  for (std::size_t i = 0; i < total; ++i) {
    recorder.Record(1.0);
  }
  const LatencySnapshot snap = recorder.Snapshot();
  EXPECT_EQ(snap.count, total);  // every request counted, even displaced ones
  EXPECT_EQ(snap.p50_ms, 1.0);
  EXPECT_EQ(snap.p99_ms, 1.0);
  EXPECT_EQ(snap.max_ms, 1.0);
}

TEST(ModelRegistry, MissingFileReturnsNull) {
  ModelRegistry registry;
  EXPECT_EQ(registry.RegisterFromFile("nope", "/nonexistent/path.neoc"), nullptr);
}

TEST(ModelRegistry, UnservableModuleReturnsNullInsteadOfAborting) {
  // A well-formed module the serving tier cannot serve (two outputs) loads fine; the
  // registry must reject it with a logged reason, not take the server down.
  GraphBuilder b("two_outputs");
  const int in = b.Input({1, 3, 4, 4});
  CompiledModel compiled = Compile(b.Finish({b.Relu(in), b.Relu(in)}));
  const std::string path = ::testing::TempDir() + "/two_outputs_serve.neoc";
  ASSERT_TRUE(SaveModule(compiled, path));

  ModelRegistry registry;
  EXPECT_EQ(registry.RegisterFromFile("two", path), nullptr);
  EXPECT_EQ(registry.Find("two"), nullptr);
  std::remove(path.c_str());
}

TEST(ModelEntry, ServableErrorNamesWhatServingNeeds) {
  EXPECT_EQ(ModelEntry::ServableError(Compile(BuildTinyCnn())), "");

  GraphBuilder two("two_outputs");
  const int in = two.Input({1, 3, 4, 4});
  const std::string outputs =
      ModelEntry::ServableError(Compile(two.Finish({two.Relu(in), two.Relu(in)})));
  EXPECT_NE(outputs.find("single-output"), std::string::npos) << outputs;

  // Registered at batch 2 and not rebindable to batch 1.
  GraphBuilder odd("indivisible_reshape");
  const int odd_in = odd.Input({2, 3, 4, 4});
  const std::string batch = ModelEntry::ServableError(
      Compile(odd.Finish({odd.Softmax(odd.Reshape(odd_in, {3, 32}))})));
  EXPECT_NE(batch.find("batch 2"), std::string::npos) << batch;
}

TEST(ModelEntry, ServesReboundVariantThenHotSwapsBatchTunedOne) {
  // The acceptance scenario: compiled at batch 1, first served at batch 8 via the
  // instant rebound variant (still batch-1-tuned), then hot-swapped to a variant whose
  // schedules were searched for batch 8.
  ModelRegistry registry;
  ModelEntry* entry = registry.Register("tiny", Compile(BuildTinyCnn()));

  ModelEntry::VariantPtr first = entry->VariantFor(8);
  EXPECT_EQ(first->model->graph().node(0).out_dims[0], 8);
  EXPECT_EQ(first->model->stats().tuned_batch, 1);  // rebound stopgap

  entry->WaitForRetunes();
  ModelEntry::VariantPtr tuned = entry->VariantFor(8);
  EXPECT_EQ(tuned->model->stats().tuned_batch, 8);
  EXPECT_TRUE(tuned->model->stats().retuned);

  const EntryTuningStats stats = entry->TuningStats();
  EXPECT_EQ(stats.retunes_started, 1u);
  EXPECT_EQ(stats.retunes_completed, 1u);
  EXPECT_EQ(stats.retunes_failed, 0u);

  // The pinned first variant stays usable after the hot swap, and both variants
  // compute the same function.
  Tensor input = SampleInput(55);
  std::vector<Tensor> batch_in(8, input);
  Tensor stacked = StackBatch(batch_in);
  Tensor from_old = first->executor->Run(stacked, nullptr);
  Tensor from_new = tuned->executor->Run(stacked, nullptr);
  EXPECT_LT(Tensor::MaxAbsDiff(from_old, from_new), 1e-4f);
}

TEST(ModelEntry, ConcurrentFirstUseOfOneBatchYieldsOneVariant) {
  ModelRegistry registry;
  ModelEntry* entry = registry.Register("tiny", Compile(BuildTinyCnn()));

  constexpr int kThreads = 8;
  std::vector<ModelEntry::VariantPtr> seen(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([entry, &seen, i] { seen[static_cast<std::size_t>(i)] = entry->VariantFor(4); });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  // Every thread got a batch-4 variant, and the slot was materialized once: the only
  // distinct pointers possible are the one rebound variant and (if the background
  // re-tune already landed mid-test) the one tuned replacement.
  std::set<const ModelEntry::Variant*> distinct;
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_NE(seen[static_cast<std::size_t>(i)], nullptr);
    EXPECT_EQ(seen[static_cast<std::size_t>(i)]->model->graph().node(0).out_dims[0], 4);
    distinct.insert(seen[static_cast<std::size_t>(i)].get());
  }
  EXPECT_LE(distinct.size(), 2u);
  entry->WaitForRetunes();
  EXPECT_LE(entry->TuningStats().retunes_started, 1u);
  EXPECT_EQ(entry->TuningStats().retunes_completed, entry->TuningStats().retunes_started);
  EXPECT_EQ(entry->VariantFor(4)->model->stats().tuned_batch, 4);
}

TEST(ModelEntry, WarmStartRestoresBatchTuningsWithoutResearch) {
  // Serve batch 8 once (forcing its re-tune), save the module, restart into a fresh
  // registry: the restored cache must satisfy the batch-8 re-tune without a single
  // local-search miss.
  ModelRegistry registry;
  ModelEntry* entry = registry.Register("tiny", Compile(BuildTinyCnn()));
  entry->VariantFor(8);
  entry->WaitForRetunes();
  ASSERT_EQ(entry->VariantFor(8)->model->stats().tuned_batch, 8);

  const std::string path = ::testing::TempDir() + "/tiny_cnn_warm_tuned.neoc";
  ASSERT_TRUE(SaveModule(*entry->VariantFor(1)->model, path));

  ModelRegistry restarted;
  ModelEntry* warm = restarted.RegisterFromFile("tiny", path);
  ASSERT_NE(warm, nullptr);
  const TuningCacheStats before = warm->tuning_cache()->Stats();
  warm->VariantFor(8);
  warm->WaitForRetunes();
  ModelEntry::VariantPtr tuned = warm->VariantFor(8);
  EXPECT_EQ(tuned->model->stats().tuned_batch, 8);
  const TuningCacheStats after = warm->tuning_cache()->Stats();
  EXPECT_EQ(after.misses, before.misses);  // no re-search: every workload was restored
  EXPECT_GT(after.hits, before.hits);
  std::remove(path.c_str());
}

TEST(ModelRegistry, SharesOneTuningCacheAcrossModels) {
  // Two models with identical conv workloads: after registration both entries serve
  // from the registry-wide cache, so a batch one model already re-tuned is a pure
  // lookup for the other.
  ModelRegistry registry;
  ModelEntry* a = registry.Register("tiny-a", Compile(BuildTinyCnn()));
  ModelEntry* b = registry.Register("tiny-b", Compile(BuildTinyCnn()));
  ASSERT_NE(a->tuning_cache(), nullptr);
  EXPECT_EQ(a->tuning_cache().get(), registry.shared_tuning_cache().get());
  EXPECT_EQ(b->tuning_cache().get(), registry.shared_tuning_cache().get());

  a->VariantFor(8);
  a->WaitForRetunes();
  ASSERT_EQ(a->VariantFor(8)->model->stats().tuned_batch, 8);

  const TuningCacheStats before = registry.shared_tuning_cache()->Stats();
  b->VariantFor(8);
  b->WaitForRetunes();
  EXPECT_EQ(b->VariantFor(8)->model->stats().tuned_batch, 8);
  const TuningCacheStats after = registry.shared_tuning_cache()->Stats();
  EXPECT_EQ(after.misses, before.misses)  // model A already searched every workload
      << "cross-model re-tune should be pure cache hits";
  EXPECT_GT(after.hits, before.hits);

  // Aggregate stats count the shared cache once, not per entry.
  EXPECT_EQ(registry.AggregateTuningStats().cache.entries, after.entries);
}

TEST(InferenceServer, PlannedServingAllocatesOnlyOutputs) {
  // Steady-state serving on the planned path: per-request heap allocations collapse to
  // the escaping output tensor plus the batch staging the serving tier itself does.
  CompiledModel compiled = Compile(BuildTinyCnn());
  ASSERT_NE(compiled.plan(), nullptr);
  ServerOptions options;
  options.num_executors = 1;
  options.batching.max_batch_size = 1;
  options.bind_threads = false;
  options.background_retune = false;
  InferenceServer server(options);
  server.RegisterModel("tiny", compiled);
  Tensor input = SampleInput(3);
  SubmitOk(server, "tiny", input).get();  // warm-up: faults the worker's arena

  const std::uint64_t before = TensorHeapAllocCount();
  constexpr std::uint64_t kRequests = 8;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    SubmitOk(server, "tiny", input).get();
  }
  // At most one owning allocation per request — the escaping model output; nothing for
  // intermediates or workspaces. (Single-sample requests skip StackBatch/SplitBatch
  // staging.) Asserted on the total so a single stray allocation anywhere fails.
  EXPECT_LE(TensorHeapAllocCount() - before, kRequests);
}

TEST(ModelEntry, RetuneDisabledKeepsReboundVariant) {
  ModelRegistry registry;
  RetuneOptions retune;
  retune.enabled = false;
  registry.ConfigureRetune(retune);
  ModelEntry* entry = registry.Register("tiny", Compile(BuildTinyCnn()));
  entry->VariantFor(8);
  entry->WaitForRetunes();
  EXPECT_EQ(entry->TuningStats().retunes_started, 0u);
  EXPECT_EQ(entry->VariantFor(8)->model->stats().tuned_batch, 1);
}

// Serves `compiled` to `clients` threads that each submit `requests_per_client`
// distinct inputs, and expects every reply to be bit-identical to a serial
// Executor::Run of the same input. Returns the server's stats after the last reply.
ServerStats ServeAndCompareToSerial(CompiledModel compiled, const ServerOptions& options,
                                    int clients, int requests_per_client,
                                    std::uint64_t seed) {
  std::vector<std::vector<Tensor>> inputs(static_cast<std::size_t>(clients));
  std::vector<std::vector<Tensor>> expected(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    for (int r = 0; r < requests_per_client; ++r) {
      auto& in = inputs[static_cast<std::size_t>(c)];
      in.push_back(SampleInput(seed + static_cast<std::uint64_t>(c * 100 + r)));
      expected[static_cast<std::size_t>(c)].push_back(compiled.Run(in.back()));
    }
  }

  InferenceServer server(options);
  server.RegisterModel("model", std::move(compiled));
  std::vector<std::vector<std::future<Tensor>>> futures(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (const Tensor& input : inputs[static_cast<std::size_t>(c)]) {
        futures[static_cast<std::size_t>(c)].push_back(SubmitOk(server, "model", input));
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (int c = 0; c < clients; ++c) {
    for (int r = 0; r < requests_per_client; ++r) {
      const auto ci = static_cast<std::size_t>(c);
      const auto ri = static_cast<std::size_t>(r);
      EXPECT_EQ(Tensor::MaxAbsDiff(futures[ci][ri].get(), expected[ci][ri]), 0.0)
          << "client " << c << " request " << r;
    }
  }
  return server.Stats();
}

// The acceptance-criteria test: many client threads submit concurrently; every result
// must be bit-identical to a serial Executor::Run of the same input.
TEST(InferenceServer, ConcurrentSubmitsMatchSerialExactly) {
  ServerOptions options;
  options.num_executors = 3;
  options.bind_threads = false;  // CI hosts are often core-restricted
  options.batching.max_batch_size = 4;
  options.batching.max_delay_ms = 2.0;
  const ServerStats stats = ServeAndCompareToSerial(Compile(BuildTinyCnn()), options,
                                                    /*clients=*/5,
                                                    /*requests_per_client=*/6, 1000);
  EXPECT_EQ(stats.submitted, 30u);
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.latency.count, 30u);
  EXPECT_GE(stats.batch_runs, 1u);
  EXPECT_LE(stats.max_batch_size, 4);
}

// A force-quantized model through the batcher: batched int8 replies must match direct
// Runs bitwise.
TEST(InferenceServer, ServesQuantizedModelsExactly) {
  CompileOptions copts;
  copts.quantize = true;
  copts.force_quantize = true;
  CompiledModel compiled = Compile(BuildTinyCnn(), copts);
  ASSERT_GT(compiled.stats().num_quantized_convs, 0);

  ServerOptions options;
  options.num_executors = 2;
  options.bind_threads = false;
  options.background_retune = false;
  options.batching.max_batch_size = 4;
  options.batching.max_delay_ms = 2.0;
  const ServerStats stats = ServeAndCompareToSerial(std::move(compiled), options,
                                                    /*clients=*/4,
                                                    /*requests_per_client=*/6, 5000);
  EXPECT_EQ(stats.submitted, 24u);
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.requests_shed, 0u);
}

TEST(InferenceServer, ServesMultipleModelsConcurrently) {
  CompiledModel model_a = Compile(BuildTinyCnn(1, 32));
  CompiledModel model_b = Compile(BuildTinyCnn(1, 24));
  Tensor input_a = SampleInput(11, {1, 3, 32, 32});
  Tensor input_b = SampleInput(12, {1, 3, 24, 24});
  Tensor expected_a = model_a.Run(input_a);
  Tensor expected_b = model_b.Run(input_b);

  ServerOptions options;
  options.num_executors = 2;
  options.bind_threads = false;
  options.batching.max_delay_ms = 1.0;
  InferenceServer server(options);
  server.RegisterModel("a", std::move(model_a));
  server.RegisterModel("b", std::move(model_b));

  std::vector<std::future<Tensor>> futures_a;
  std::vector<std::future<Tensor>> futures_b;
  for (int i = 0; i < 4; ++i) {
    futures_a.push_back(SubmitOk(server, "a", input_a));
    futures_b.push_back(SubmitOk(server, "b", input_b));
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(Tensor::MaxAbsDiff(futures_a[static_cast<std::size_t>(i)].get(), expected_a),
              0.0);
    EXPECT_EQ(Tensor::MaxAbsDiff(futures_b[static_cast<std::size_t>(i)].get(), expected_b),
              0.0);
  }
}

TEST(ModelEntry, RetuneBudgetCapsAndDefersUnderBatchChurn) {
  // Registry-wide re-tune rate limiting: with the one-slot budget held, a burst of new
  // batch sizes defers every background re-tune instead of spawning a thread per batch
  // — and once the slot frees, traffic-driven retries tune everything, never more than
  // one re-tune in flight.
  ModelRegistry registry;
  auto budget = std::make_shared<RetuneBudget>(1);
  RetuneOptions opts;
  opts.budget = budget;
  registry.ConfigureRetune(opts);
  ModelEntry* entry = registry.Register("tiny", Compile(BuildTinyCnn()));

  ASSERT_TRUE(budget->TryAcquire());  // occupy the only slot
  const std::vector<std::int64_t> batches = {2, 3, 4, 5};
  for (std::int64_t b : batches) {
    entry->VariantFor(b);  // untuned rebind; its re-tune must defer
  }
  EntryTuningStats stats = entry->TuningStats();
  EXPECT_EQ(stats.retunes_started, 0u);
  EXPECT_EQ(stats.retunes_deferred, batches.size());
  EXPECT_EQ(budget->deferred(), batches.size());
  budget->Release();

  // Traffic retries until every batch is tuned; the budget proves <= 1 ran at a time.
  for (std::int64_t b : batches) {
    for (int attempt = 0; attempt < 100; ++attempt) {
      if (entry->VariantFor(b)->model->stats().tuned_batch == b) {
        break;
      }
      entry->WaitForRetunes();
    }
    EXPECT_EQ(entry->VariantFor(b)->model->stats().tuned_batch, b) << "batch " << b;
  }
  EXPECT_EQ(budget->peak_in_flight(), 1);
  EXPECT_EQ(budget->in_flight(), 0);

  stats = entry->TuningStats();
  EXPECT_EQ(stats.retunes_started, batches.size());
  EXPECT_EQ(stats.retunes_completed, batches.size());

  // Duplicate coalescing rides along: hammering ONE untuned batch from many threads
  // starts exactly one more re-tune.
  const std::uint64_t started_before = stats.retunes_started;
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([entry] { entry->VariantFor(16); });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  entry->WaitForRetunes();
  EXPECT_EQ(entry->TuningStats().retunes_started, started_before + 1);
}

TEST(NodeProfiler, SampledProfilingOverheadIsBounded) {
  // The obs overhead contract: profiling at a production sample rate must not move
  // throughput by more than 5%, and a model with no profiler attached records nothing.
  CompiledModel model = Compile(BuildTinyCnn());
  Tensor input = SampleInput(9);
  model.Run(input);  // warm-up: faults weights and the arena
  EXPECT_TRUE(model.ProfileSnapshot().empty());  // detached profiler records nothing

  // Off and on runs alternate one by one, so host noise that comes and goes lands on
  // both sides alike. Each group keeps the best of its runs per side (the minimum is
  // robust against scheduler noise, which a mean at 5% is not), and the verdict is
  // the median of the groups' on/off ratios, so one lucky run cannot decide it.
  auto run_ms = [&] {
    Timer timer;
    model.Run(input);
    return timer.Millis();
  };
  constexpr int kGroups = 100;
  constexpr int kPairsPerGroup = 10;
  std::vector<double> ratios;
  for (int g = 0; g < kGroups; ++g) {
    double off_ms = 1e100;
    double on_ms = 1e100;
    for (int p = 0; p < kPairsPerGroup; ++p) {
      off_ms = std::min(off_ms, run_ms());
      // A fresh profiler samples its first run, so every timed "on" run is a sampled
      // one: stricter than the 1-in-64 rate it is configured with.
      model.EnableProfiling(/*sample_rate=*/64);
      on_ms = std::min(on_ms, run_ms());
      ASSERT_FALSE(model.ProfileSnapshot().empty());  // the sampled run was captured
      model.DisableProfiling();
    }
    ratios.push_back(on_ms / off_ms);
  }
  std::nth_element(ratios.begin(), ratios.begin() + kGroups / 2, ratios.end());
  EXPECT_LT(ratios[kGroups / 2], 1.05)
      << "sampled profiling overhead above 5%: median on/off ratio "
      << ratios[kGroups / 2];
}

TEST(InferenceServer, ShutdownDrainsPendingRequests) {
  ServerOptions options;
  options.num_executors = 2;
  options.bind_threads = false;
  options.batching.max_delay_ms = 200.0;  // requests would otherwise wait for mates
  InferenceServer server(options);
  server.RegisterModel("tiny", Compile(BuildTinyCnn()));
  Tensor input = SampleInput(21);
  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(SubmitOk(server, "tiny", input));
  }
  server.Shutdown();  // must flush the delay-held batch, not strand it
  for (std::future<Tensor>& f : futures) {
    EXPECT_TRUE(f.get().defined());
  }
  EXPECT_EQ(server.Stats().completed, 3u);
}

TEST(InferenceServer, ReportsTopologyOfItsPartitions) {
  // The realized plan is coherent with the stats: one partition per pooled executor,
  // every serving cpu online and owned by exactly one partition.
  ServerOptions options;
  options.num_executors = 1;
  options.batching.max_batch_size = 1;
  options.bind_threads = false;
  InferenceServer server(options);
  server.RegisterModel("tiny", Compile(BuildTinyCnn()));
  Tensor input = SampleInput(7);
  EXPECT_TRUE(SubmitOk(server, "tiny", input).get().defined());

  ASSERT_FALSE(server.partitions().empty());
  const ServerStats stats = server.Stats();
  EXPECT_GE(stats.num_nodes, 1);
  EXPECT_EQ(stats.num_partitions, static_cast<int>(server.partitions().size()));
  std::set<int> serving_cpus;
  for (const CorePartition& serving : server.partitions()) {
    EXPECT_FALSE(serving.cpus.empty());
    for (int c : serving.cpus) {
      EXPECT_TRUE(serving_cpus.insert(c).second) << "cpu " << c << " in two partitions";
      EXPECT_NE(HostTopology().NodeOfCpu(c), -1) << "serving cpu " << c << " is offline";
    }
  }
  // Single-node hosts never dispatch cross-node.
  if (stats.num_nodes == 1) {
    EXPECT_EQ(stats.cross_node_dispatches, 0u);
  }
}

TEST(ModelEntry, ReplicasServeNodeLocalExecutorsBitExactly) {
  // Forced two-node replication on a (possibly) one-node host: every configured node
  // gets its own executor over cloned weights, unknown/unhomed nodes fall back to the
  // base, and all of them compute bit-identical results.
  ModelRegistry registry;
  ModelEntry* entry = registry.Register("tiny", Compile(BuildTinyCnn()));
  registry.ConfigureReplicas({0, 1});

  ModelEntry::VariantPtr variant = entry->VariantFor(1);
  Executor* base = variant->executor.get();
  Executor* rep0 = variant->ExecutorFor(0);
  Executor* rep1 = variant->ExecutorFor(1);
  ASSERT_NE(rep0, nullptr);
  ASSERT_NE(rep1, nullptr);
  EXPECT_NE(rep0, base);
  EXPECT_NE(rep1, base);
  EXPECT_NE(rep0, rep1);
  EXPECT_EQ(variant->ExecutorFor(7), base);   // node nobody replicated onto
  EXPECT_EQ(variant->ExecutorFor(-1), base);  // unhomed partition

  Tensor input = SampleInput(11);
  Tensor from_base = base->Run(input);
  EXPECT_EQ(Tensor::MaxAbsDiff(rep0->Run(input), from_base), 0.0);
  EXPECT_EQ(Tensor::MaxAbsDiff(rep1->Run(input), from_base), 0.0);
}

TEST(ModelEntry, ReplicaExecutionStaysZeroAllocOnPlannedPath) {
  // The replica path must preserve the planned-serving allocation discipline: after
  // warm-up, a replica executor running against a warm arena allocates only the
  // escaping output tensor.
  ModelRegistry registry;
  ModelEntry* entry = registry.Register("tiny", Compile(BuildTinyCnn()));
  registry.ConfigureReplicas({0, 1});
  entry->WaitForRetunes();

  ModelEntry::VariantPtr variant = entry->VariantFor(1);
  ASSERT_NE(variant->model->plan(), nullptr);
  Executor* rep = variant->ExecutorFor(1);
  ASSERT_NE(rep, variant->executor.get());

  Arena arena;
  Tensor input = SampleInput(23);
  rep->Run(input, nullptr, &arena);  // warm-up: faults the arena pages

  const std::uint64_t before = TensorHeapAllocCount();
  constexpr std::uint64_t kRuns = 8;
  for (std::uint64_t i = 0; i < kRuns; ++i) {
    rep->Run(input, nullptr, &arena);
  }
  EXPECT_LE(TensorHeapAllocCount() - before, kRuns);
}

}  // namespace
}  // namespace neocpu
