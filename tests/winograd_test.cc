// Winograd F(2x2, 3x3) correctness against the direct reference convolution (the
// paper's future-work extension; see conv_winograd.h).
#include <gtest/gtest.h>

#include <tuple>

#include "src/base/rng.h"
#include "src/kernels/conv_ref.h"
#include "src/kernels/conv_winograd.h"
#include "src/runtime/thread_pool.h"

namespace neocpu {
namespace {

Tensor NchwOutput(const Conv2dParams& p) {
  return Tensor::Empty({p.batch, p.out_c, p.OutH(), p.OutW()}, Layout::NCHW());
}

TEST(Winograd, ApplicabilityPredicate) {
  EXPECT_TRUE(WinogradApplicable({1, 8, 8, 8, 8, 3, 3, 1, 1, 1, 1}));
  EXPECT_FALSE(WinogradApplicable({1, 8, 8, 8, 8, 3, 3, 2, 2, 1, 1}));  // stride 2
  EXPECT_FALSE(WinogradApplicable({1, 8, 8, 8, 8, 1, 1, 1, 1, 0, 0}));  // 1x1
  EXPECT_FALSE(WinogradApplicable({1, 8, 8, 8, 8, 5, 5, 1, 1, 2, 2}));  // 5x5
}

TEST(Winograd, WeightTransformShape) {
  Rng rng(1);
  Tensor w = Tensor::Random({8, 4, 3, 3}, rng, -1, 1, Layout::OIHW());
  Tensor u = WinogradTransformWeights(w);
  EXPECT_EQ(u.dims(), (std::vector<std::int64_t>{4, 4, 8, 4}));
}

TEST(Winograd, IdentityKernelTransform) {
  // A kernel that is 1 at the center and 0 elsewhere convolves to the identity; its
  // Winograd-domain product must reproduce the input tile values exactly.
  Tensor w = Tensor::Zeros({1, 1, 3, 3}, Layout::OIHW());
  w.data()[4] = 1.0f;  // center tap
  Conv2dParams p{1, 1, 6, 6, 1, 3, 3, 1, 1, 1, 1};
  Rng rng(2);
  Tensor in = Tensor::Random({1, 1, 6, 6}, rng, -1, 1, Layout::NCHW());
  Tensor u = WinogradTransformWeights(w);
  Tensor out = NchwOutput(p);
  ConvWinograd(p, in, u, nullptr, {}, &out);
  EXPECT_LE(Tensor::AllCloseViolation(out, in, 1e-5, 1e-5), 0.0);
}

struct WinoCase {
  Conv2dParams p;
  const char* label;
};

class WinogradVsRef : public ::testing::TestWithParam<WinoCase> {};

TEST_P(WinogradVsRef, MatchesDirectConvolution) {
  const Conv2dParams& p = GetParam().p;
  Rng rng(3);
  Tensor in = Tensor::Random({p.batch, p.in_c, p.in_h, p.in_w}, rng, -1, 1, Layout::NCHW());
  Tensor w = Tensor::Random({p.out_c, p.in_c, 3, 3}, rng, -0.5f, 0.5f, Layout::OIHW());
  Tensor bias = Tensor::Random({p.out_c}, rng, -0.2f, 0.2f);
  ConvEpilogue epi;
  epi.bias = true;
  epi.relu = true;
  Tensor expected = NchwOutput(p);
  ConvRefNCHW(p, in, w, &bias, nullptr, epi, &expected);
  Tensor u = WinogradTransformWeights(w);
  Tensor got = NchwOutput(p);
  ConvWinograd(p, in, u, &bias, epi, &got);
  // Winograd reassociates more aggressively than a direct sum: slightly wider tolerance.
  EXPECT_LE(Tensor::AllCloseViolation(got, expected, 2e-3, 2e-3), 0.0) << GetParam().label;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, WinogradVsRef,
    ::testing::Values(
        WinoCase{{1, 8, 8, 8, 8, 3, 3, 1, 1, 1, 1}, "even_pad1"},
        WinoCase{{1, 8, 9, 9, 8, 3, 3, 1, 1, 1, 1}, "odd_output"},
        WinoCase{{1, 4, 10, 10, 12, 3, 3, 1, 1, 0, 0}, "no_pad"},
        WinoCase{{1, 16, 7, 13, 8, 3, 3, 1, 1, 1, 1}, "rectangular_image"},
        WinoCase{{2, 8, 8, 8, 8, 3, 3, 1, 1, 1, 1}, "batch2"},
        WinoCase{{1, 3, 12, 12, 16, 3, 3, 1, 1, 1, 1}, "ic3"},
        WinoCase{{1, 33, 8, 8, 7, 3, 3, 1, 1, 1, 1}, "odd_channels"}),
    [](const ::testing::TestParamInfo<WinoCase>& info) { return info.param.label; });

TEST(Winograd, ThreadedMatchesSerial) {
  Conv2dParams p{1, 16, 16, 16, 16, 3, 3, 1, 1, 1, 1};
  Rng rng(4);
  Tensor in = Tensor::Random({1, 16, 16, 16}, rng, -1, 1, Layout::NCHW());
  Tensor w = Tensor::Random({16, 16, 3, 3}, rng, -0.5f, 0.5f, Layout::OIHW());
  Tensor u = WinogradTransformWeights(w);
  Tensor serial = NchwOutput(p);
  ConvWinograd(p, in, u, nullptr, {}, &serial);
  NeoThreadPool pool(3, /*bind_threads=*/false);
  Tensor threaded = NchwOutput(p);
  ConvWinograd(p, in, u, nullptr, {}, &threaded, &pool);
  EXPECT_EQ(Tensor::MaxAbsDiff(serial, threaded), 0.0);
}

// The planner-facing workspace form: caller-provided V/M scratch sized by the query
// hook, serial and threaded, bitwise identical to the kernel's own per-worker scratch.
TEST(Winograd, CallerProvidedWorkspaceMatches) {
  Conv2dParams p{2, 16, 9, 9, 8, 3, 3, 1, 1, 1, 1};
  Rng rng(6);
  Tensor in = Tensor::Random({2, 16, 9, 9}, rng, -1, 1, Layout::NCHW());
  Tensor w = Tensor::Random({8, 16, 3, 3}, rng, -0.5f, 0.5f, Layout::OIHW());
  Tensor u = WinogradTransformWeights(w);
  Tensor expected = NchwOutput(p);
  ConvWinograd(p, in, u, nullptr, {}, &expected);

  SerialEngine serial;
  NeoThreadPool pool(3, /*bind_threads=*/false);
  for (ThreadEngine* engine : {static_cast<ThreadEngine*>(&serial),
                               static_cast<ThreadEngine*>(&pool)}) {
    const std::size_t ws_bytes = WinogradWorkspaceBytes(p, engine->NumWorkers());
    EXPECT_EQ(ws_bytes,
              16u * (8u + 16u) * sizeof(float) * static_cast<std::size_t>(engine->NumWorkers()));
    Tensor workspace = Tensor::Empty({static_cast<std::int64_t>(ws_bytes / sizeof(float))});
    Tensor out = NchwOutput(p);
    ConvWinograd(p, in, u, nullptr, {}, &out, engine, workspace.data());
    EXPECT_EQ(Tensor::MaxAbsDiff(expected, out), 0.0) << engine->Name();
  }
}

TEST(Winograd, RejectsNonApplicableWorkloads) {
  Conv2dParams p{1, 8, 8, 8, 8, 3, 3, 2, 2, 1, 1};
  Rng rng(5);
  Tensor in = Tensor::Random({1, 8, 8, 8}, rng, -1, 1, Layout::NCHW());
  Tensor w = Tensor::Random({8, 8, 3, 3}, rng, -1, 1, Layout::OIHW());
  Tensor u = WinogradTransformWeights(w);
  Tensor out = NchwOutput(p);
  EXPECT_DEATH(ConvWinograd(p, in, u, nullptr, {}, &out), "Check failed");
}

}  // namespace
}  // namespace neocpu
