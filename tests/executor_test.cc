// Executor tests: end-to-end small graphs against hand computation, input validation,
// multiple outputs, and dispatch coverage.
#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/core/executor.h"
#include "src/graph/builder.h"
#include "src/kernels/conv_ref.h"
#include "src/runtime/thread_pool.h"

namespace neocpu {
namespace {

TEST(Executor, SingleConvMatchesDirectKernelCall) {
  GraphBuilder b("one_conv");
  int in = b.Input({1, 4, 6, 6});
  int conv = b.Conv(in, 8, 3, 1, 1, /*bias=*/true, "c");
  Graph g = b.Finish({conv});

  Rng rng(3);
  Tensor x = Tensor::Random({1, 4, 6, 6}, rng, -1, 1, Layout::NCHW());
  Tensor out = Executor(&g).Run(x);

  const Node& node = g.node(conv);
  const Tensor& w = g.node(node.inputs[1]).payload;
  const Tensor& bias = g.node(node.inputs[2]).payload;
  ConvEpilogue epi;
  epi.bias = true;
  const Conv2dParams& p = node.attrs.conv;
  Tensor expected = Tensor::Empty({p.batch, p.out_c, p.OutH(), p.OutW()}, Layout::NCHW());
  ConvRefNCHW(p, x, w, &bias, nullptr, epi, &expected);
  EXPECT_EQ(Tensor::MaxAbsDiff(expected, out), 0.0);
}

TEST(Executor, MultipleOutputs) {
  GraphBuilder b("two_out");
  int in = b.Input({1, 4, 4, 4});
  int r = b.Relu(in);
  int p = b.MaxPool(in, 2, 2, 0);
  Graph g = b.Finish({r, p});
  Rng rng(4);
  Tensor x = Tensor::Random({1, 4, 4, 4}, rng, -1, 1, Layout::NCHW());
  std::vector<Tensor> outs = Executor(&g).Run(std::vector<Tensor>{x});
  ASSERT_EQ(outs.size(), 2u);
  EXPECT_EQ(outs[0].dims(), (std::vector<std::int64_t>{1, 4, 4, 4}));
  EXPECT_EQ(outs[1].dims(), (std::vector<std::int64_t>{1, 4, 2, 2}));
}

TEST(Executor, RejectsWrongInputCount) {
  GraphBuilder b("one_in");
  int in = b.Input({1, 2, 2, 2});
  Graph g = b.Finish({b.Relu(in)});
  Executor ex(&g);
  EXPECT_DEATH(ex.Run(std::vector<Tensor>{}), "expects");
}

TEST(Executor, RejectsWrongInputShape) {
  GraphBuilder b("shape");
  int in = b.Input({1, 2, 4, 4});
  Graph g = b.Finish({b.Relu(in)});
  Rng rng(5);
  Tensor bad = Tensor::Random({1, 2, 3, 3}, rng, -1, 1, Layout::NCHW());
  Executor ex(&g);
  EXPECT_DEATH(ex.Run(bad), "mismatch");
}

TEST(Executor, RejectsTransposedInputOfEqualSize) {
  // Same element count, permuted axes: an element-count-only check would accept this
  // silently; the executor must name the first mismatching axis.
  GraphBuilder b("transposed");
  int in = b.Input({1, 4, 6, 6});
  Graph g = b.Finish({b.Relu(in)});
  Rng rng(9);
  Tensor transposed = Tensor::Random({1, 6, 4, 6}, rng, -1, 1, Layout::NCHW());
  Executor ex(&g);
  EXPECT_DEATH(ex.Run(transposed), "axis 1");
}

TEST(Executor, RejectsWrongRankInput) {
  GraphBuilder b("rank");
  int in = b.Input({1, 2, 4, 4});
  Graph g = b.Finish({b.Relu(in)});
  Rng rng(10);
  Tensor flat = Tensor::Random({1, 32}, rng, -1, 1);
  Executor ex(&g);
  EXPECT_DEATH(ex.Run(flat), "rank mismatch");
}

TEST(Executor, DropoutIsIdentity) {
  GraphBuilder b("drop");
  int in = b.Input({1, 2, 2, 2});
  Graph g = b.Finish({b.Dropout(in)});
  Rng rng(6);
  Tensor x = Tensor::Random({1, 2, 2, 2}, rng, -1, 1, Layout::NCHW());
  Tensor out = Executor(&g).Run(x);
  EXPECT_EQ(Tensor::MaxAbsDiff(x, out), 0.0);
}

TEST(Executor, ThreadedRunMatchesSerial) {
  GraphBuilder b("threaded");
  int x = b.Input({1, 16, 12, 12});
  x = b.ConvBnRelu(x, 32, 3, 1, 1, "c1");
  x = b.MaxPool(x, 2, 2, 0);
  x = b.ConvBnRelu(x, 32, 3, 1, 1, "c2");
  x = b.GlobalAvgPool(x);
  x = b.Flatten(x);
  x = b.Dense(x, 10);
  Graph g = b.Finish({x});
  Rng rng(7);
  Tensor in = Tensor::Random({1, 16, 12, 12}, rng, -1, 1, Layout::NCHW());
  Tensor serial = Executor(&g, nullptr).Run(in);
  NeoThreadPool pool(3, /*bind_threads=*/false);
  Tensor threaded = Executor(&g, &pool).Run(in);
  EXPECT_EQ(Tensor::MaxAbsDiff(serial, threaded), 0.0);
}

TEST(Executor, ReleasesIntermediatesButKeepsOutputs) {
  // The output of an interior node must not be returned; only requested outputs are.
  GraphBuilder b("release");
  int in = b.Input({1, 2, 4, 4});
  int r1 = b.Relu(in);
  int r2 = b.Relu(r1);
  Graph g = b.Finish({r2});
  Rng rng(8);
  Tensor x = Tensor::Random({1, 2, 4, 4}, rng, 0.f, 1.f, Layout::NCHW());
  Tensor out = Executor(&g).Run(x);
  EXPECT_EQ(Tensor::MaxAbsDiff(out, x), 0.0);  // relu of positive values is identity
}

}  // namespace
}  // namespace neocpu
