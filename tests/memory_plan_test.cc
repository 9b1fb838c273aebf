// Static memory planning: plan invariants, arena-vs-heap-only bitwise equivalence
// across the model zoo, the interval-overlap (aliasing) regression, and the
// zero-allocation guarantee of the steady-state execution path.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/core/compiler.h"
#include "src/core/memory_plan.h"
#include "src/core/op_dispatch.h"
#include "src/core/presets.h"
#include "src/core/serialization.h"
#include "src/graph/builder.h"
#include "src/models/model_zoo.h"
#include "src/runtime/arena_pool.h"
#include "src/runtime/thread_pool.h"

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

// Distinct buffers the graph outputs resolve to (through aliases), inputs and constants
// excluded: exactly the heap buffers a PlanMemory plan may own.
int EscapingBuffers(const Graph& g, const ExecutionPlan& plan) {
  std::set<int> roots;
  for (int out : g.outputs()) {
    const NodePlan& np = plan.nodes[static_cast<std::size_t>(out)];
    const int root = np.placement == BufferPlacement::kAlias ? np.alias_of : out;
    const OpType type = g.node(root).type;
    if (type != OpType::kInput && type != OpType::kConstant) {
      roots.insert(root);
    }
  }
  return static_cast<int>(roots.size());
}

// Runs the same graph through the heap-only executor (no plan given) and under `plan`;
// identical kernels in identical order must agree bit for bit. The plan must validate
// and keep only escaping outputs on the heap.
void ExpectPlannedMatchesAllocatingBitwise(const Graph& g,
                                           std::shared_ptr<const ExecutionPlan> plan,
                                           const std::vector<Tensor>& inputs,
                                           const std::string& label) {
  ASSERT_NE(plan, nullptr) << label;
  std::vector<std::string> errors;
  EXPECT_TRUE(ValidatePlan(g, *plan, &errors))
      << label << ":\n"
      << (errors.empty() ? "" : errors.front()) << "\n"
      << plan->ToString();
  EXPECT_EQ(plan->heap_nodes, EscapingBuffers(g, *plan)) << label << "\n"
                                                         << plan->ToString();

  const std::vector<Tensor> expected = Executor(&g).Run(inputs);
  const Executor planned(&g, nullptr, plan);
  // Twice: the second run reuses the pooled arena, which holds the first run's
  // garbage — stale bytes must never leak into results.
  for (int run = 0; run < 2; ++run) {
    const std::vector<Tensor> got = planned.Run(inputs);
    ASSERT_EQ(got.size(), expected.size()) << label;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(Tensor::MaxAbsDiff(expected[i], got[i]), 0.0)
          << label << " output " << i << " run " << run;
    }
  }
}

void ExpectPlannedMatchesAllocatingBitwise(const CompiledModel& compiled,
                                           const Tensor& input, const std::string& label) {
  ExpectPlannedMatchesAllocatingBitwise(compiled.graph(), compiled.plan(), {input}, label);
}

struct ZooCase {
  std::string label;
  Graph (*build)();
};

Graph TinyResNet18() { return BuildResNet(18, 1, 64); }
Graph TinyResNet50() { return BuildResNet(50, 1, 64); }
Graph TinyVgg11() { return BuildVgg(11, 1, 64); }
Graph TinyDenseNet121() { return BuildDenseNet(121, 1, 64); }
Graph TinyInception() { return BuildInceptionV3(1, 139); }
Graph TinySsd() { return BuildSsdResNet50(128, 5); }
Graph TinyCnn() { return BuildTinyCnn(1, 32); }

class ZooPlanEquivalence : public ::testing::TestWithParam<ZooCase> {};

// Every model-zoo model: planned-arena execution must be bitwise identical to the
// heap-only reference executor, the plan must pass interval validation, and reuse must beat (or
// match) the naive sum-of-intermediates footprint.
TEST_P(ZooPlanEquivalence, PlannedExecutionIsBitwiseIdentical) {
  Graph model = GetParam().build();
  Tensor input = InputFor(model);
  CompiledModel compiled = Compile(model, NeoCpuOptions(Target::Host()));

  ASSERT_NE(compiled.plan(), nullptr);
  EXPECT_GT(compiled.plan()->arena_nodes, 0) << GetParam().label;
  EXPECT_GT(compiled.stats().arena_bytes, 0u) << GetParam().label;
  EXPECT_LE(compiled.stats().arena_bytes, compiled.stats().naive_arena_bytes)
      << GetParam().label;

  ExpectPlannedMatchesAllocatingBitwise(compiled, input, GetParam().label);
}

INSTANTIATE_TEST_SUITE_P(Zoo, ZooPlanEquivalence,
                         ::testing::Values(ZooCase{"tiny_cnn", &TinyCnn},
                                           ZooCase{"resnet18", &TinyResNet18},
                                           ZooCase{"resnet50", &TinyResNet50},
                                           ZooCase{"vgg11", &TinyVgg11},
                                           ZooCase{"densenet121", &TinyDenseNet121},
                                           ZooCase{"inception", &TinyInception},
                                           ZooCase{"ssd", &TinySsd}),
                         [](const ::testing::TestParamInfo<ZooCase>& info) {
                           return info.param.label;
                         });

// In-place elementwise: a ReLU (or ScaleShift/ElemAdd) whose input dies at that node
// writes over the input's arena slot instead of claiming a second buffer — the peak
// footprint regression this guards is "elementwise chains must not double-buffer".
TEST(MemoryPlan, InPlaceElementwiseShrinksPeak) {
  // conv1 -> relu -> conv2 built directly (FuseOps would absorb the relu; the planner
  // must handle standalone elementwise nodes, which survive fusion after ElemAdd and
  // in pre-activation stacks).
  GraphBuilder b("inplace");
  int x = b.Input({1, 8, 16, 16});
  int c1 = b.Conv(x, 8, 3, 1, 1, /*bias=*/false, "c1");
  int r = b.Relu(c1);
  int c2 = b.Conv(r, 8, 3, 1, 1, /*bias=*/false, "c2");
  Graph g = b.Finish({c2});

  ExecutionPlan plan = PlanMemory(g);
  std::vector<std::string> errors;
  ASSERT_TRUE(ValidatePlan(g, plan, &errors)) << (errors.empty() ? "" : errors.front());
  EXPECT_EQ(plan.in_place_nodes, 1) << plan.ToString();
  EXPECT_EQ(plan.nodes[static_cast<std::size_t>(r)].in_place_of, c1) << plan.ToString();
  EXPECT_EQ(plan.nodes[static_cast<std::size_t>(r)].offset,
            plan.nodes[static_cast<std::size_t>(c1)].offset);
  // Peak = two feature maps (conv1's output reused by the relu + conv2's... conv2 is
  // the escaping output, heap-placed), i.e. exactly ONE buffer beyond the relu chain:
  // the arena holds conv1/relu's shared slot while conv2 writes to the heap. Without
  // in-place reuse the peak would be two slots.
  const std::size_t one_map = plan.nodes[static_cast<std::size_t>(c1)].size_bytes;
  EXPECT_EQ(plan.arena_bytes, one_map) << plan.ToString();

  // Numerics are unchanged: planned (in-place) == allocating, bit for bit.
  Tensor input = InputFor(g);
  const Tensor expected = Executor(&g).Run(input);
  auto shared = std::make_shared<const ExecutionPlan>(plan);
  EXPECT_EQ(Tensor::MaxAbsDiff(expected, Executor(&g, nullptr, shared).Run(input)), 0.0);
}

// In-place is refused when the input outlives the elementwise node (a second consumer
// reads it later): correctness beats footprint.
TEST(MemoryPlan, InPlaceRefusedWhenInputOutlives) {
  GraphBuilder b("inplace-hazard");
  int x = b.Input({1, 8, 16, 16});
  int c1 = b.Conv(x, 8, 3, 1, 1, /*bias=*/false, "c1");
  int r = b.Relu(c1);
  int c2 = b.Conv(r, 8, 3, 1, 1, /*bias=*/false, "c2");
  int late = b.Add(c1, c2);  // c1 is read again AFTER the relu
  Graph g = b.Finish({late});

  ExecutionPlan plan = PlanMemory(g);
  std::vector<std::string> errors;
  ASSERT_TRUE(ValidatePlan(g, plan, &errors)) << (errors.empty() ? "" : errors.front());
  EXPECT_EQ(plan.nodes[static_cast<std::size_t>(r)].in_place_of, -1) << plan.ToString();

  Tensor input = InputFor(g);
  const Tensor expected = Executor(&g).Run(input);
  auto shared = std::make_shared<const ExecutionPlan>(plan);
  EXPECT_EQ(Tensor::MaxAbsDiff(expected, Executor(&g, nullptr, shared).Run(input)), 0.0);
}

// The im2col baseline exercises the planner's workspace placement (the column buffer
// coexists with the conv's inputs and output).
TEST(MemoryPlan, Im2colWorkspaceIsPlanned) {
  Graph model = BuildTinyCnn(1, 32);
  Tensor input = InputFor(model);
  CompileOptions opts;
  opts.layout_mode = LayoutMode::kNCHW;
  opts.force_algo = true;
  opts.forced_algo = ConvAlgo::kIm2col;
  CompiledModel compiled = Compile(model, opts);

  ASSERT_NE(compiled.plan(), nullptr);
  bool saw_workspace = false;
  for (const NodePlan& np : compiled.plan()->nodes) {
    saw_workspace |= np.workspace_bytes > 0;
  }
  EXPECT_TRUE(saw_workspace) << "im2col convs should plan column-buffer workspaces";
  ExpectPlannedMatchesAllocatingBitwise(compiled, input, "im2col");
}

// Regression for interval-overlap bugs: `a` is consumed again long after intermediate
// buffers came and went. A planner that released `a` after its first consumer would
// hand its bytes to `b` or `c`, and the late add would read clobbered data.
TEST(MemoryPlan, LongLivedBufferSurvivesReuseChurn) {
  GraphBuilder b("alias-hazard");
  int x = b.Input({1, 8, 16, 16});
  int a = b.Relu(x);
  int c1 = b.Conv(a, 8, 3, 1, 1, /*bias=*/false, "c1");
  int c2 = b.Conv(c1, 8, 3, 1, 1, /*bias=*/false, "c2");
  int c3 = b.Conv(c2, 8, 3, 1, 1, /*bias=*/false, "c3");
  int d = b.Add(a, c3);  // `a` must still be intact here
  int out = b.Relu(d);
  Graph g = b.Finish({out});

  ExecutionPlan plan = PlanMemory(g);
  std::vector<std::string> errors;
  EXPECT_TRUE(ValidatePlan(g, plan, &errors)) << (errors.empty() ? "" : errors.front());

  Tensor input = InputFor(g);
  const Tensor expected = Executor(&g).Run(input);
  auto shared = std::make_shared<const ExecutionPlan>(plan);
  const Tensor got = Executor(&g, nullptr, shared).Run(input);
  EXPECT_EQ(Tensor::MaxAbsDiff(expected, got), 0.0);
}

// Same hazard through an alias: the reshape view of `a` keeps `a`'s bytes live even
// though `a` itself has no further direct consumers.
TEST(MemoryPlan, AliasExtendsRootLifetime) {
  GraphBuilder b("alias-chain");
  int x = b.Input({1, 4, 8, 8});
  int a = b.Relu(x);
  int flat = b.Reshape(a, {1, 4 * 8 * 8});  // view of a's buffer
  int c1 = b.Conv(x, 4, 3, 1, 1, /*bias=*/false, "c1");
  int c2 = b.Conv(c1, 4, 3, 1, 1, /*bias=*/false, "c2");
  int flat2 = b.Reshape(c2, {1, 4 * 8 * 8});
  int cat = b.Concat({flat, flat2});  // reads a's bytes through the view
  Graph g = b.Finish({cat});

  ExecutionPlan plan = PlanMemory(g);
  EXPECT_EQ(plan.nodes[static_cast<std::size_t>(flat)].placement, BufferPlacement::kAlias);
  std::vector<std::string> errors;
  EXPECT_TRUE(ValidatePlan(g, plan, &errors)) << (errors.empty() ? "" : errors.front());

  Tensor input = InputFor(g);
  const Tensor expected = Executor(&g).Run(input);
  auto shared = std::make_shared<const ExecutionPlan>(plan);
  EXPECT_EQ(Tensor::MaxAbsDiff(expected, Executor(&g, nullptr, shared).Run(input)), 0.0);
}

// The acceptance criterion: steady-state planned Run performs ZERO heap allocations for
// intermediates and workspaces. The only owning allocations left are the escaping graph
// outputs (one per heap-placed node).
TEST(MemoryPlan, SteadyStateRunsAllocateOnlyOutputs) {
  Graph model = BuildTinyCnn(1, 32);
  Tensor input = InputFor(model);
  CompiledModel compiled = Compile(model, NeoCpuOptions(Target::Host()));
  ASSERT_NE(compiled.plan(), nullptr);
  const Executor planned(&compiled.graph(), nullptr, compiled.plan());

  planned.Run(input);  // warm-up: faults the pooled arena, fills the pool
  const std::uint64_t before = TensorHeapAllocCount();
  constexpr std::uint64_t kRuns = 5;
  for (std::uint64_t i = 0; i < kRuns; ++i) {
    planned.Run(input);
  }
  // Exact total, so even one stray allocation across the window fails.
  EXPECT_EQ(TensorHeapAllocCount() - before,
            kRuns * static_cast<std::uint64_t>(compiled.plan()->heap_nodes))
      << "intermediates/workspaces must come from the arena, not the heap\n"
      << compiled.plan()->ToString();
  // For this single-output model that means exactly one owning allocation per Run.
  EXPECT_EQ(compiled.plan()->heap_nodes, 1);

  // The heap-only reference plan, for contrast, allocates every intermediate.
  const Executor allocating(&compiled.graph());
  const std::uint64_t alloc_before = TensorHeapAllocCount();
  allocating.Run(input);
  EXPECT_GT(TensorHeapAllocCount() - alloc_before, static_cast<std::uint64_t>(1));
}

// A caller-owned warm arena (the serving pool's per-partition mode) works identically
// and grows to the plan's footprint.
TEST(MemoryPlan, ExplicitArenaRunMatches) {
  Graph model = BuildTinyCnn(1, 32);
  Tensor input = InputFor(model);
  CompiledModel compiled = Compile(model, NeoCpuOptions(Target::Host()));
  ASSERT_NE(compiled.plan(), nullptr);
  const Executor planned(&compiled.graph(), nullptr, compiled.plan());
  const Tensor expected = Executor(&compiled.graph()).Run(input);

  Arena arena;
  const Tensor got = planned.Run(input, nullptr, &arena);
  EXPECT_EQ(Tensor::MaxAbsDiff(expected, got), 0.0);
  EXPECT_GE(arena.capacity_bytes(), compiled.plan()->arena_bytes);
  const Tensor again = planned.Run(input, nullptr, &arena);
  EXPECT_EQ(Tensor::MaxAbsDiff(expected, again), 0.0);
}

TEST(MemoryPlan, ArenaPoolReusesArenas) {
  ArenaPool pool;
  auto a = pool.Acquire(1024);
  float* base = a->data();
  pool.Release(std::move(a));
  auto b = pool.Acquire(512);  // smaller request reuses the pooled arena
  EXPECT_EQ(b->data(), base);
  pool.Release(std::move(b));
  const ArenaPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.acquired, 2u);
  EXPECT_EQ(stats.created, 1u);
  EXPECT_EQ(stats.pooled, 1u);
}

// Batch variants re-plan: shapes changed, so the footprint scales and execution stays
// exact.
TEST(MemoryPlan, RebindBatchReplans) {
  Graph model = BuildTinyCnn(1, 32);
  CompiledModel compiled = Compile(model, NeoCpuOptions(Target::Host()));
  ASSERT_NE(compiled.plan(), nullptr);

  CompiledModel rebound;
  ASSERT_TRUE(RebindBatch(compiled, 4, &rebound));
  ASSERT_NE(rebound.plan(), nullptr);
  EXPECT_GT(rebound.plan()->arena_bytes, compiled.plan()->arena_bytes);
  std::vector<std::string> errors;
  EXPECT_TRUE(ValidatePlan(rebound.graph(), *rebound.plan(), &errors))
      << (errors.empty() ? "" : errors.front());

  Rng rng(23);
  Tensor input = Tensor::Random({4, 3, 32, 32}, rng, -1.0f, 1.0f, Layout::NCHW());
  const Tensor expected = Executor(&rebound.graph()).Run(input);
  EXPECT_EQ(Tensor::MaxAbsDiff(expected, rebound.Run(input)), 0.0);
}

// Module round trip: the loaded model plans its re-lowered graph to the same footprint.
TEST(MemoryPlan, SerializationRoundTripsPlan) {
  Graph model = BuildTinyCnn(1, 32);
  Tensor input = InputFor(model);
  CompiledModel compiled = Compile(model, NeoCpuOptions(Target::Host()));
  ASSERT_NE(compiled.plan(), nullptr);

  const std::string path = ::testing::TempDir() + "/memory_plan_module.neoc";
  ASSERT_TRUE(SaveModule(compiled, path));
  CompiledModel loaded;
  ASSERT_TRUE(LoadModule(path, &loaded));
  ASSERT_NE(loaded.plan(), nullptr);
  EXPECT_EQ(loaded.plan()->arena_bytes, compiled.plan()->arena_bytes);
  EXPECT_EQ(loaded.stats().arena_bytes, compiled.stats().arena_bytes);
  EXPECT_EQ(Tensor::MaxAbsDiff(compiled.Run(input), loaded.Run(input)), 0.0);
}

// The executor's default plan is the per-buffer reference: no arena, every
// materializing node on the heap. The arena-vs-reference bitwise tests across the suite
// rely on this to compare two different memory layouts, not a plan with itself.
TEST(MemoryPlan, DefaultExecutorPlanIsHeapOnly) {
  Graph model = BuildTinyCnn(1, 32);
  CompiledModel compiled = Compile(model, NeoCpuOptions(Target::Host()));
  for (const Graph* g : {static_cast<const Graph*>(&model), &compiled.graph()}) {
    const Executor reference(g);
    const ExecutionPlan& plan = reference.plan();
    EXPECT_EQ(plan.arena_bytes, 0u);
    EXPECT_EQ(plan.arena_nodes, 0);
    int materializing = 0;
    for (int id = 0; id < g->num_nodes(); ++id) {
      const NodePlan& np = plan.nodes[static_cast<std::size_t>(id)];
      const OpType type = g->node(id).type;
      if (type == OpType::kInput || type == OpType::kConstant ||
          np.placement == BufferPlacement::kAlias) {
        continue;
      }
      ++materializing;
      EXPECT_EQ(np.placement, BufferPlacement::kHeap) << g->node(id).name;
    }
    EXPECT_GT(materializing, 1);
    EXPECT_EQ(plan.heap_nodes, materializing);
  }
  EXPECT_GT(compiled.plan()->arena_bytes, 0u);
}

// Unsimplified graphs keep BatchNorm nodes; they execute into arena slots (folding the
// statistics on the fly) like any other op, including as the escaping output.
TEST(MemoryPlan, UnsimplifiedBatchNormRunsInArena) {
  GraphBuilder b("bn");
  int x = b.Input({1, 8, 16, 16});
  int c1 = b.Conv(x, 8, 3, 1, 1, /*bias=*/false, "c1");
  int bn1 = b.BatchNorm(c1, "bn1");
  int r = b.Relu(bn1);
  int c2 = b.Conv(r, 8, 3, 1, 1, /*bias=*/false, "c2");
  int bn2 = b.BatchNorm(c2, "bn2");
  Graph g = b.Finish({bn2});

  auto plan = std::make_shared<const ExecutionPlan>(PlanMemory(g));
  EXPECT_EQ(plan->nodes[static_cast<std::size_t>(bn1)].placement, BufferPlacement::kArena);
  EXPECT_EQ(plan->nodes[static_cast<std::size_t>(bn2)].placement, BufferPlacement::kHeap);
  ExpectPlannedMatchesAllocatingBitwise(g, plan, {InputFor(g)}, "batchnorm");
}

// The raw ssd zoo graph: BatchNorm throughout the backbone, MultiboxDetection as the
// output.
TEST(MemoryPlan, UnsimplifiedSsdRunsInArena) {
  Graph g = TinySsd();
  auto plan = std::make_shared<const ExecutionPlan>(PlanMemory(g));
  int arena_bn = 0;
  for (int id = 0; id < g.num_nodes(); ++id) {
    if (g.node(id).type == OpType::kBatchNorm) {
      arena_bn += plan->nodes[static_cast<std::size_t>(id)].placement ==
                  BufferPlacement::kArena;
    }
  }
  EXPECT_GT(arena_bn, 0);
  ExpectPlannedMatchesAllocatingBitwise(g, plan, {InputFor(g)}, "ssd");
}

// A detection head feeding another op is arena-placed; its slot holds the previous
// Run's detections, and every row the current Run does not fill must read -1 again.
TEST(MemoryPlan, ArenaMultiboxOverwritesStaleRows) {
  constexpr std::int64_t kAnchors = 16;
  constexpr std::int64_t kClasses = 3;
  GraphBuilder b("multibox");
  int cls = b.Input({kAnchors, kClasses}, "cls");
  int loc = b.Input({kAnchors * 4}, "loc");
  int anchors = b.Input({kAnchors, 4}, "anchors");
  MultiboxDetectionParams det;
  det.num_classes = kClasses;
  det.score_threshold = 0.5f;
  det.keep_top_k = 8;
  int boxes = b.MultiboxDetect(cls, loc, anchors, det);
  int out = b.Relu(boxes);
  Graph g = b.Finish({out});

  auto plan = std::make_shared<const ExecutionPlan>(PlanMemory(g));
  ASSERT_EQ(plan->nodes[static_cast<std::size_t>(boxes)].placement,
            BufferPlacement::kArena);

  Rng rng(5);
  Tensor anchor_boxes = Tensor::Random({kAnchors, 4}, rng, 0.1f, 0.9f);
  Tensor offsets = Tensor::Random({kAnchors * 4}, rng, -0.5f, 0.5f);
  Tensor confident = Tensor::Random({kAnchors, kClasses}, rng, 0.6f, 1.0f);
  Tensor unsure = Tensor::Random({kAnchors, kClasses}, rng, 0.0f, 0.4f);
  const std::vector<Tensor> many = {confident, offsets, anchor_boxes};
  const std::vector<Tensor> none = {unsure, offsets, anchor_boxes};

  const Executor planned(&g, nullptr, plan);
  Arena arena;
  planned.Run(many, nullptr, &arena);
  const Tensor got = planned.Run(none, nullptr, &arena)[0];
  EXPECT_EQ(Tensor::MaxAbsDiff(Executor(&g).Run(none)[0], got), 0.0);
  for (std::int64_t i = 0; i < got.NumElements(); ++i) {
    ASSERT_EQ(got.data()[i], 0.0f) << "stale detection at element " << i;
  }
  ExpectPlannedMatchesAllocatingBitwise(g, plan, many, "multibox");
}

// A heap-placed output still runs its kernel scratch in the arena: the last conv of an
// im2col graph escapes, and its column buffer must not be a per-Run heap allocation.
TEST(MemoryPlan, EscapingOutputWorkspaceIsPlanned) {
  GraphBuilder b("output-workspace");
  int x = b.Input({1, 8, 16, 16});
  int c1 = b.Conv(x, 8, 3, 1, 1, /*bias=*/false, "c1");
  int r = b.Relu(c1);
  int c2 = b.Conv(r, 8, 3, 1, 1, /*bias=*/false, "c2");
  Graph model = b.Finish({c2});
  CompileOptions opts;
  opts.layout_mode = LayoutMode::kNCHW;
  opts.force_algo = true;
  opts.forced_algo = ConvAlgo::kIm2col;
  CompiledModel compiled = Compile(model, opts);
  const ExecutionPlan& plan = *compiled.plan();
  const int out = compiled.graph().outputs().front();
  const NodePlan& out_plan = plan.nodes[static_cast<std::size_t>(out)];
  ASSERT_EQ(out_plan.placement, BufferPlacement::kHeap) << plan.ToString();
  EXPECT_GT(out_plan.workspace_bytes, 0u) << plan.ToString();
  std::vector<std::string> errors;
  EXPECT_TRUE(ValidatePlan(compiled.graph(), plan, &errors))
      << (errors.empty() ? "" : errors.front());

  Tensor input = InputFor(model);
  const Executor planned(&compiled.graph(), nullptr, compiled.plan());
  planned.Run(input);  // warm-up: faults the pooled arena
  const std::uint64_t before = TensorHeapAllocCount();
  constexpr std::uint64_t kRuns = 3;
  for (std::uint64_t i = 0; i < kRuns; ++i) {
    planned.Run(input);
  }
  EXPECT_EQ(plan.heap_nodes, 1);
  EXPECT_EQ(TensorHeapAllocCount() - before,
            kRuns * static_cast<std::uint64_t>(plan.heap_nodes))
      << plan.ToString();
  ExpectPlannedMatchesAllocatingBitwise(compiled, input, "im2col output");
}

// Threaded planned execution matches serial planned execution exactly (kernels
// partition work identically regardless of where the output bytes live).
TEST(MemoryPlan, ThreadedPlannedMatchesSerial) {
  Graph model = BuildTinyCnn(1, 32);
  Tensor input = InputFor(model);
  CompiledModel compiled = Compile(model, NeoCpuOptions(Target::Host()));
  ASSERT_NE(compiled.plan(), nullptr);
  const Tensor serial = compiled.Run(input);
  NeoThreadPool pool(3, /*bind_threads=*/false);
  const Tensor threaded = compiled.Run(input, &pool);
  EXPECT_EQ(Tensor::MaxAbsDiff(serial, threaded), 0.0);
}

}  // namespace
}  // namespace neocpu
