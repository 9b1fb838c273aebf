// Unit tests for dense, pooling, batch-norm, elementwise and multibox kernels.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "src/base/rng.h"
#include "src/kernels/batchnorm.h"
#include "src/kernels/dense.h"
#include "src/kernels/elementwise.h"
#include "src/kernels/multibox.h"
#include "src/kernels/pooling.h"
#include "src/runtime/thread_pool.h"
#include "src/tensor/layout_transform.h"

namespace neocpu {
namespace {

// `t` (NCHW) re-blocked to NCHW[x]c, and a blocked map back to NCHW.
Tensor Blocked(const Tensor& t, std::int64_t x) {
  Tensor out = Tensor::Empty({t.dim(0), t.dim(1) / x, t.dim(2), t.dim(3), x},
                             Layout::NCHWc(x));
  TransformLayout(t, out.layout(), &out);
  return out;
}

Tensor Unblocked(const Tensor& t) {
  Tensor out = Tensor::Empty({t.dim(0), t.dim(1) * t.dim(4), t.dim(2), t.dim(3)},
                             Layout::NCHW());
  TransformLayout(t, Layout::NCHW(), &out);
  return out;
}

// Same dims and the same bytes: a layout-tolerant kernel runs one body in every
// layout, so its NCHW and NCHW[x]c results agree bit for bit.
void ExpectBitwiseEqual(const Tensor& got, const Tensor& expected) {
  ASSERT_EQ(got.dims(), expected.dims());
  EXPECT_EQ(std::memcmp(got.data(), expected.data(), expected.SizeBytes()), 0);
}

Tensor PoolOutput(const Pool2dParams& p, const Tensor& in) {
  std::vector<std::int64_t> dims = in.dims();
  dims[2] = p.OutH(in.dim(2));
  dims[3] = p.OutW(in.dim(3));
  return Tensor::Empty(dims, in.layout());
}

TEST(Dense, MatchesNaiveWithBiasAndRelu) {
  Rng rng(15);
  const std::int64_t in_dim = 70, out_dim = 19;
  Tensor x = Tensor::Random({1, in_dim}, rng, -1, 1);
  Tensor w = Tensor::Random({out_dim, in_dim}, rng, -1, 1);
  Tensor bias = Tensor::Random({out_dim}, rng, -1, 1);
  Tensor out = Tensor::Empty({1, out_dim});
  Dense(x, w, &bias, /*relu=*/true, &out);
  for (std::int64_t o = 0; o < out_dim; ++o) {
    double sum = bias.data()[o];
    for (std::int64_t i = 0; i < in_dim; ++i) {
      sum += static_cast<double>(x.data()[i]) * w.data()[o * in_dim + i];
    }
    const float expected = static_cast<float>(std::max(sum, 0.0));
    EXPECT_NEAR(out.data()[o], expected, 1e-4) << o;
  }
}

TEST(Dense, BatchedRows) {
  Rng rng(16);
  Tensor x = Tensor::Random({3, 20}, rng, -1, 1);
  Tensor w = Tensor::Random({5, 20}, rng, -1, 1);
  Tensor out = Tensor::Empty({3, 5});
  Dense(x, w, nullptr, false, &out);
  // Row 2 must equal an independent single-row dense.
  Tensor single = Tensor::Empty({1, 20});
  std::memcpy(single.data(), x.data() + 2 * 20, 20 * sizeof(float));
  Tensor out_single = Tensor::Empty({1, 5});
  Dense(single, w, nullptr, false, &out_single);
  for (std::int64_t o = 0; o < 5; ++o) {
    EXPECT_FLOAT_EQ(out.data()[2 * 5 + o], out_single.data()[o]);
  }
}

// Dense is the f32 reference kernel: integer tensors (the operands of the removed s8
// dense path) are rejected instead of being read as floats.
TEST(Dense, RejectsIntegerOperands) {
  Rng rng(17);
  Tensor w = Tensor::Random({4, 8}, rng, -1, 1);
  Tensor out = Tensor::Empty({2, 4});
  Tensor x_s8 = Tensor::Zeros({2, 8}, Layout::Flat(), DType::kS8);
  EXPECT_DEATH(Dense(x_s8, w, nullptr, false, &out), "input.dtype");
  Tensor x = Tensor::Random({2, 8}, rng, -1, 1);
  Tensor w_s8 = Tensor::Zeros({4, 8}, Layout::Flat(), DType::kS8);
  EXPECT_DEATH(Dense(x, w_s8, nullptr, false, &out), "weight.dtype");
}

TEST(Pooling, MaxKnownValues) {
  Pool2dParams p{PoolType::kMax, 2, 2, 2, 2, 0, 0, false, false};
  Tensor in = Tensor::Empty({1, 1, 4, 4}, Layout::NCHW());
  for (int i = 0; i < 16; ++i) {
    in.data()[i] = static_cast<float>(i);
  }
  Tensor out = PoolOutput(p, in);
  Pool(p, in, &out);
  EXPECT_EQ(out.dims(), (std::vector<std::int64_t>{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out.data()[0], 5);
  EXPECT_FLOAT_EQ(out.data()[1], 7);
  EXPECT_FLOAT_EQ(out.data()[2], 13);
  EXPECT_FLOAT_EQ(out.data()[3], 15);
}

TEST(Pooling, AvgExcludesPaddingByDefault) {
  Pool2dParams p{PoolType::kAvg, 3, 3, 2, 2, 1, 1, false, false};
  Tensor in = Tensor::Full({1, 1, 4, 4}, 2.0f, Layout::NCHW());
  Tensor out = PoolOutput(p, in);
  Pool(p, in, &out);
  // Every window averages only valid elements of a constant image -> exactly 2.
  for (std::int64_t i = 0; i < out.NumElements(); ++i) {
    EXPECT_FLOAT_EQ(out.data()[i], 2.0f);
  }
}

TEST(Pooling, AvgIncludePadDividesByKernelArea) {
  Pool2dParams p{PoolType::kAvg, 2, 2, 2, 2, 1, 1, /*count_include_pad=*/true, false};
  Tensor in = Tensor::Full({1, 1, 2, 2}, 4.0f, Layout::NCHW());
  Tensor out = PoolOutput(p, in);
  Pool(p, in, &out);
  // Corner window sees one valid element (4.0) over a 2x2 kernel -> 1.0.
  EXPECT_FLOAT_EQ(out.data()[0], 1.0f);
}

TEST(Pooling, CeilModeAddsPartialWindow) {
  Pool2dParams floor_p{PoolType::kMax, 3, 3, 2, 2, 0, 0, false, /*ceil_mode=*/false};
  Pool2dParams ceil_p{PoolType::kMax, 3, 3, 2, 2, 0, 0, false, /*ceil_mode=*/true};
  EXPECT_EQ(floor_p.OutH(6), 2);
  EXPECT_EQ(ceil_p.OutH(6), 3);
}

class PoolLayoutEquiv : public ::testing::TestWithParam<std::tuple<PoolType, int, int, int>> {
};

TEST_P(PoolLayoutEquiv, NCHWcMatchesNCHW) {
  const auto [type, kernel, stride, pad] = GetParam();
  Pool2dParams p{type, kernel, kernel, stride, stride, pad, pad, false, false};
  Rng rng(17);
  Tensor in = Tensor::Random({1, 32, 13, 13}, rng, -2, 2, Layout::NCHW());
  Tensor expected = PoolOutput(p, in);
  Pool(p, in, &expected);
  const Tensor blocked = Blocked(in, 16);
  Tensor pooled = PoolOutput(p, blocked);
  NeoThreadPool pool(4, /*bind_threads=*/false);
  Pool(p, blocked, &pooled, &pool);
  ExpectBitwiseEqual(Unblocked(pooled), expected);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PoolLayoutEquiv,
                         ::testing::Combine(::testing::Values(PoolType::kMax, PoolType::kAvg),
                                            ::testing::Values(2, 3),
                                            ::testing::Values(1, 2),
                                            ::testing::Values(0, 1)));

TEST(GlobalAvgPool, BothLayoutsAgree) {
  Rng rng(18);
  Tensor in = Tensor::Random({2, 32, 7, 7}, rng, -1, 1, Layout::NCHW());
  Tensor expected = Tensor::Empty({2, 32, 1, 1}, Layout::NCHW());
  GlobalAvgPool(in, &expected);
  Tensor pooled = Tensor::Empty({2, 4, 1, 1, 8}, Layout::NCHWc(8));
  GlobalAvgPool(Blocked(in, 8), &pooled);
  ExpectBitwiseEqual(Unblocked(pooled), expected);
  // Both sum the plane in order, then multiply by 1/plane.
  float sum = 0.0f;
  for (int i = 0; i < 49; ++i) {
    sum += in.data()[i];
  }
  EXPECT_EQ(expected.data()[0], sum * (1.0f / 49.0f));
}

TEST(BatchNorm, ScaleShiftFoldingFormula) {
  Rng rng(19);
  const std::int64_t c = 8;
  Tensor gamma = Tensor::Random({c}, rng, 0.5f, 1.5f);
  Tensor beta = Tensor::Random({c}, rng, -0.5f, 0.5f);
  Tensor mean = Tensor::Random({c}, rng, -0.5f, 0.5f);
  Tensor var = Tensor::Random({c}, rng, 0.5f, 1.5f);
  Tensor scale, shift;
  ComputeBnScaleShift(gamma, beta, mean, var, 1e-5f, &scale, &shift);
  Tensor x = Tensor::Random({1, c, 4, 4}, rng, -2, 2, Layout::NCHW());
  Tensor y = Tensor::Empty(x.dims(), x.layout());
  ScaleShift(x, scale, shift, false, &y);
  // Reference: classic BN formula.
  for (std::int64_t ch = 0; ch < c; ++ch) {
    for (std::int64_t i = 0; i < 16; ++i) {
      const float xin = x.data()[ch * 16 + i];
      const float expected = (xin - mean.data()[ch]) /
                                 std::sqrt(var.data()[ch] + 1e-5f) * gamma.data()[ch] +
                             beta.data()[ch];
      EXPECT_NEAR(y.data()[ch * 16 + i], expected, 1e-5) << ch << "," << i;
    }
  }
}

TEST(BatchNorm, NCHWcVariantMatchesAndFusesRelu) {
  Rng rng(20);
  const std::int64_t c = 32;
  Tensor scale = Tensor::Random({c}, rng, 0.5f, 1.5f);
  Tensor shift = Tensor::Random({c}, rng, -1.0f, 1.0f);
  Tensor x = Tensor::Random({1, c, 5, 5}, rng, -2, 2, Layout::NCHW());
  Tensor expected = Tensor::Empty(x.dims(), x.layout());
  ScaleShift(x, scale, shift, /*relu=*/true, &expected);
  const Tensor blocked = Blocked(x, 16);
  Tensor shifted = Tensor::Empty(blocked.dims(), blocked.layout());
  NeoThreadPool pool(4, /*bind_threads=*/false);
  ScaleShift(blocked, scale, shift, /*relu=*/true, &shifted, &pool);
  ExpectBitwiseEqual(Unblocked(shifted), expected);
  for (std::int64_t i = 0; i < expected.NumElements(); ++i) {
    EXPECT_GE(expected.data()[i], 0.0f);
  }
}

TEST(Elementwise, ReluClampsNegatives) {
  Tensor x = Tensor::Empty({4});
  x.data()[0] = -1.0f;
  x.data()[1] = 0.0f;
  x.data()[2] = 2.0f;
  x.data()[3] = -0.5f;
  Tensor y = Tensor::Empty({4});
  Relu(x, &y);
  EXPECT_FLOAT_EQ(y.data()[0], 0.0f);
  EXPECT_FLOAT_EQ(y.data()[1], 0.0f);
  EXPECT_FLOAT_EQ(y.data()[2], 2.0f);
  EXPECT_FLOAT_EQ(y.data()[3], 0.0f);
}

TEST(Elementwise, AddWithReluAndLayoutCheck) {
  Rng rng(22);
  Tensor a = Tensor::Random({1, 8, 3, 3}, rng, -1, 1, Layout::NCHW());
  Tensor b = Tensor::Random({1, 8, 3, 3}, rng, -1, 1, Layout::NCHW());
  Tensor y = Tensor::Empty(a.dims(), a.layout());
  AddElementwise(a, b, /*relu=*/true, &y);
  for (std::int64_t i = 0; i < y.NumElements(); ++i) {
    EXPECT_FLOAT_EQ(y.data()[i], std::max(a.data()[i] + b.data()[i], 0.0f));
  }
  Tensor mismatched = b.Clone();
  mismatched.set_layout(Layout::NHWC());  // same dims, different layout tag
  EXPECT_DEATH(AddElementwise(a, mismatched, false, &y), "identical layouts");
}

// One copy covers NCHW, NCHW[x]c and flat {N, C}: per sample, each input's channels
// land after the previous inputs' channels, in every layout.
TEST(Elementwise, ConcatNCHWAndNCHWcAgree) {
  Rng rng(23);
  Tensor a = Tensor::Random({2, 16, 4, 4}, rng, -1, 1, Layout::NCHW());
  Tensor b = Tensor::Random({2, 32, 4, 4}, rng, -1, 1, Layout::NCHW());
  NeoThreadPool pool(2, /*bind_threads=*/false);
  Tensor expected = Tensor::Empty({2, 48, 4, 4}, Layout::NCHW());
  ConcatChannels({a, b}, &expected, &pool);
  for (std::int64_t i = 0; i < 2; ++i) {
    EXPECT_EQ(std::memcmp(expected.data() + i * 48 * 16, a.data() + i * 16 * 16,
                          16 * 16 * sizeof(float)),
              0);
    EXPECT_EQ(std::memcmp(expected.data() + (i * 48 + 16) * 16, b.data() + i * 32 * 16,
                          32 * 16 * sizeof(float)),
              0);
  }
  Tensor blocked = Tensor::Empty({2, 3, 4, 4, 16}, Layout::NCHWc(16));
  ConcatChannels({Blocked(a, 16), Blocked(b, 16)}, &blocked, &pool);
  ExpectBitwiseEqual(Unblocked(blocked), expected);

  // Flat {N, C}: the same per-sample runs.
  Tensor fa = a.Reshaped({2, 16 * 16});
  Tensor fb = b.Reshaped({2, 32 * 16});
  Tensor flat = Tensor::Empty({2, 48 * 16});
  ConcatChannels({fa, fb}, &flat, &pool);
  EXPECT_EQ(std::memcmp(flat.data(), expected.data(), expected.SizeBytes()), 0);

  // The inputs must share one channel block.
  Tensor mixed = Tensor::Empty({2, 6, 4, 4, 8}, Layout::NCHWc(8));
  EXPECT_DEATH(ConcatChannels({Blocked(a, 16), Blocked(b, 8)}, &mixed),
               "one common channel block");
}

TEST(Elementwise, SoftmaxRowsSumToOne) {
  Rng rng(24);
  Tensor x = Tensor::Random({3, 10}, rng, -5, 5);
  Tensor y = Tensor::Empty({3, 10});
  Softmax(x, &y);
  for (std::int64_t r = 0; r < 3; ++r) {
    double sum = 0.0;
    for (std::int64_t c = 0; c < 10; ++c) {
      const float v = y.data()[r * 10 + c];
      EXPECT_GT(v, 0.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Elementwise, SoftmaxIsShiftInvariant) {
  Tensor x = Tensor::Empty({1, 3});
  x.data()[0] = 1000.0f;  // would overflow exp() without the max-subtraction
  x.data()[1] = 1001.0f;
  x.data()[2] = 1002.0f;
  Tensor y = Tensor::Empty({1, 3});
  Softmax(x, &y);
  EXPECT_FALSE(std::isnan(y.data()[0]));
  EXPECT_GT(y.data()[2], y.data()[1]);
}

TEST(Elementwise, FlattenRequiresNCHW) {
  Rng rng(25);
  Tensor x = Tensor::Random({1, 8, 2, 2}, rng, -1, 1, Layout::NCHW());
  Tensor flat = FlattenNCHW(x);
  EXPECT_EQ(flat.dims(), (std::vector<std::int64_t>{1, 32}));
  Tensor fake4d = Blocked(x, 8).Reshaped({1, 4, 2, 4}, Layout::NCHWc(8));  // 4-D, wrong layout
  EXPECT_DEATH(FlattenNCHW(fake4d), "layout-dependent");
}

TEST(Multibox, PriorCountsAndRanges) {
  MultiboxPriorParams p;
  p.feature_h = 4;
  p.feature_w = 4;
  p.sizes = {0.2f, 0.3f};
  p.ratios = {1.0f, 2.0f, 0.5f};
  EXPECT_EQ(PriorsPerLocation(p), 4);  // |sizes| + |ratios| - 1
  Tensor priors = MultiboxPrior(p);
  EXPECT_EQ(priors.dims(), (std::vector<std::int64_t>{4 * 4 * 4, 4}));
  for (std::int64_t i = 0; i < priors.dim(0); ++i) {
    EXPECT_GT(priors.data()[i * 4 + 2], 0.0f);  // width > 0
    EXPECT_GT(priors.data()[i * 4 + 3], 0.0f);  // height > 0
    EXPECT_GE(priors.data()[i * 4 + 0], 0.0f);
    EXPECT_LE(priors.data()[i * 4 + 0], 1.0f);
  }
}

TEST(Multibox, DetectionDecodesAndSuppresses) {
  // Two anchors at the same location: with zero loc deltas their decoded boxes coincide,
  // so NMS must keep only the higher-scoring one for the same class.
  MultiboxDetectionParams p;
  p.num_classes = 3;
  p.score_threshold = 0.1f;
  p.nms_threshold = 0.5f;
  Tensor cls = Tensor::Zeros({2, 3});
  cls.data()[0 * 3 + 1] = 0.9f;  // anchor 0, class 1
  cls.data()[1 * 3 + 1] = 0.8f;  // anchor 1, class 1 (suppressed: same box)
  Tensor loc = Tensor::Zeros({2 * 4});
  Tensor anchors = Tensor::Empty({2, 4});
  for (int a = 0; a < 2; ++a) {
    anchors.data()[a * 4 + 0] = 0.5f;
    anchors.data()[a * 4 + 1] = 0.5f;
    anchors.data()[a * 4 + 2] = 0.2f;
    anchors.data()[a * 4 + 3] = 0.2f;
  }
  Tensor out = Tensor::Empty({p.keep_top_k, 6}, Layout::Flat());
  MultiboxDetection(p, cls, loc, anchors, &out);
  int kept = 0;
  for (std::int64_t i = 0; i < out.dim(0); ++i) {
    if (out.data()[i * 6] >= 0.0f) {
      ++kept;
    }
  }
  EXPECT_EQ(kept, 1);
  EXPECT_FLOAT_EQ(out.data()[0], 1.0f);   // class id
  EXPECT_FLOAT_EQ(out.data()[1], 0.9f);   // winning score
  EXPECT_NEAR(out.data()[2], 0.4f, 1e-5);  // x1 = cx - w/2
  EXPECT_NEAR(out.data()[5], 0.6f, 1e-5);  // y2 = cy + h/2
}

TEST(Multibox, DetectionRespectsScoreThreshold) {
  MultiboxDetectionParams p;
  p.num_classes = 2;
  p.score_threshold = 0.5f;
  Tensor cls = Tensor::Zeros({1, 2});
  cls.data()[1] = 0.4f;  // below threshold
  Tensor loc = Tensor::Zeros({4});
  Tensor anchors = Tensor::Full({1, 4}, 0.5f);
  // Stale bytes in the output (a reused arena slot) must not survive as detections.
  Tensor out = Tensor::Full({p.keep_top_k, 6}, 7.0f, Layout::Flat());
  MultiboxDetection(p, cls, loc, anchors, &out);
  for (std::int64_t i = 0; i < out.dim(0); ++i) {
    EXPECT_FLOAT_EQ(out.data()[i * 6], -1.0f);
  }
}

}  // namespace
}  // namespace neocpu
