// Unit and property tests for layout transformations: correctness against direct index
// arithmetic and round-trip identity across a parameter sweep.
#include <gtest/gtest.h>

#include <tuple>

#include "src/base/rng.h"
#include "src/runtime/thread_pool.h"
#include "src/tensor/layout_transform.h"

namespace neocpu {
namespace {

// Destination buffers; each transform writes into one.
Tensor BlockedLike(const Tensor& nchw, std::int64_t x) {
  return Tensor::Empty({nchw.dim(0), nchw.dim(1) / x, nchw.dim(2), nchw.dim(3), x},
                       Layout::NCHWc(x), nchw.dtype());
}

Tensor NchwLike(const Tensor& blocked) {
  return Tensor::Empty(
      {blocked.dim(0), blocked.dim(1) * blocked.dim(4), blocked.dim(2), blocked.dim(3)},
      Layout::NCHW(), blocked.dtype());
}

TEST(LayoutTransform, NCHWToNCHWcIndexing) {
  // 1x4x2x2 with block 2: channel c at (h,w) must land at [c/2][h][w][c%2].
  Tensor src = Tensor::Empty({1, 4, 2, 2}, Layout::NCHW());
  for (std::int64_t i = 0; i < src.NumElements(); ++i) {
    src.data()[i] = static_cast<float>(i);
  }
  Tensor dst = Tensor::Empty({1, 2, 2, 2, 2}, Layout::NCHWc(2));
  NCHWToNCHWc(src, 2, &dst);
  for (std::int64_t c = 0; c < 4; ++c) {
    for (std::int64_t h = 0; h < 2; ++h) {
      for (std::int64_t w = 0; w < 2; ++w) {
        const float expected = src.data()[(c * 2 + h) * 2 + w];
        const float got = dst.data()[(((c / 2) * 2 + h) * 2 + w) * 2 + (c % 2)];
        EXPECT_EQ(got, expected) << "c=" << c << " h=" << h << " w=" << w;
      }
    }
  }
}

TEST(LayoutTransform, OIHWioIndexing) {
  Tensor src = Tensor::Empty({4, 4, 1, 1}, Layout::OIHW());
  for (std::int64_t i = 0; i < src.NumElements(); ++i) {
    src.data()[i] = static_cast<float>(i);
  }
  Tensor dst = OIHWToOIHWio(src, 2, 2);
  EXPECT_EQ(dst.dims(), (std::vector<std::int64_t>{2, 2, 1, 1, 2, 2}));
  for (std::int64_t o = 0; o < 4; ++o) {
    for (std::int64_t i = 0; i < 4; ++i) {
      const float expected = src.data()[o * 4 + i];
      const float got =
          dst.data()[((((o / 2) * 2 + i / 2) * 1 + 0) * 2 + (i % 2)) * 2 + (o % 2)];
      EXPECT_EQ(got, expected) << "o=" << o << " i=" << i;
    }
  }
}

TEST(LayoutTransform, RejectsIndivisibleChannels) {
  Rng rng(1);
  Tensor src = Tensor::Random({1, 6, 2, 2}, rng, -1, 1, Layout::NCHW());
  Tensor dst = Tensor::Empty({1, 1, 2, 2, 4}, Layout::NCHWc(4));
  EXPECT_DEATH(NCHWToNCHWc(src, 4, &dst), "divisible");
}

TEST(LayoutTransform, NHWCRoundTrip) {
  Rng rng(2);
  Tensor src = Tensor::Random({2, 5, 3, 4}, rng, -1, 1, Layout::NCHW());
  Tensor nhwc = Tensor::Empty({2, 3, 4, 5}, Layout::NHWC());
  NCHWToNHWC(src, &nhwc);
  Tensor back = Tensor::Empty(src.dims(), Layout::NCHW());
  NHWCToNCHW(nhwc, &back);
  EXPECT_EQ(Tensor::MaxAbsDiff(src, back), 0.0);
}

TEST(LayoutTransform, TransformBytesCountsReadPlusWrite) {
  Tensor t = Tensor::Zeros({1, 8, 4, 4}, Layout::NCHW());
  EXPECT_EQ(TransformBytes(t), 2 * static_cast<std::int64_t>(t.SizeBytes()));
}

// Property: NCHW -> NCHW[x]c -> NCHW is the identity, for every valid block, serial and
// threaded.
class RoundTripTest
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t, bool>> {};

TEST_P(RoundTripTest, NCHWcRoundTripIsIdentity) {
  const auto [channels, block, threaded] = GetParam();
  if (channels % block != 0) {
    GTEST_SKIP();
  }
  Rng rng(77);
  Tensor src = Tensor::Random({2, channels, 5, 7}, rng, -10, 10, Layout::NCHW());
  NeoThreadPool pool(2, /*bind_threads=*/false);
  ThreadEngine* engine = threaded ? &pool : nullptr;
  Tensor blocked = BlockedLike(src, block);
  NCHWToNCHWc(src, block, &blocked, engine);
  Tensor back = NchwLike(blocked);
  NCHWcToNCHW(blocked, &back, engine);
  EXPECT_EQ(Tensor::MaxAbsDiff(src, back), 0.0)
      << "channels=" << channels << " block=" << block;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RoundTripTest,
    ::testing::Combine(::testing::Values<std::int64_t>(4, 16, 24, 48, 64),
                       ::testing::Values<std::int64_t>(1, 2, 4, 8, 16),
                       ::testing::Bool()));

// Property: re-blocking NCHW[x]c -> NCHW[y]c (x != y) equals the transform through NCHW.
class ReblockTest
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t>> {};

TEST_P(ReblockTest, MatchesTransformViaNCHW) {
  const auto [from_block, to_block] = GetParam();
  if (from_block == to_block) {
    GTEST_SKIP();  // the planner aliases an identity re-block (IdentityTransformIsRejected)
  }
  const std::int64_t channels = 48;  // divisible by every tested block
  Rng rng(78);
  Tensor nchw = Tensor::Random({1, channels, 3, 5}, rng, -1, 1, Layout::NCHW());
  Tensor blocked = BlockedLike(nchw, from_block);
  NCHWToNCHWc(nchw, from_block, &blocked);
  Tensor direct = BlockedLike(nchw, to_block);
  NCHWcToNCHWc(blocked, to_block, &direct);
  Tensor via_nchw = BlockedLike(nchw, to_block);
  NCHWToNCHWc(nchw, to_block, &via_nchw);
  EXPECT_EQ(Tensor::MaxAbsDiff(direct, via_nchw), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ReblockTest,
                         ::testing::Combine(::testing::Values<std::int64_t>(2, 4, 8, 16),
                                            ::testing::Values<std::int64_t>(2, 4, 8, 16)));

// An identity transform is the planner's alias, never a kernel call: the transforms
// refuse to copy a tensor onto its own layout.
TEST(LayoutTransform, IdentityTransformIsRejected) {
  Rng rng(3);
  Tensor src = Tensor::Random({1, 2, 3, 3, 8}, rng, -1, 1, Layout::NCHWc(8));
  Tensor dst = Tensor::Empty(src.dims(), src.layout());
  EXPECT_DEATH(NCHWcToNCHWc(src, 8, &dst), "identity re-block");
  EXPECT_DEATH(TransformLayout(src, Layout::NCHWc(8), &dst), "identity transform");
}

// Property: OIHW -> OIHW[x]i[y]o preserves every element (checked via multiset sum) and
// the exact positional mapping spot-checked by reconstruction.
class WeightBlockTest
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t>> {};

TEST_P(WeightBlockTest, PreservesAllElements) {
  const auto [x, y] = GetParam();
  Rng rng(79);
  Tensor w = Tensor::Random({16, 8, 3, 3}, rng, -1, 1, Layout::OIHW());
  if (8 % x != 0 || 16 % y != 0) {
    GTEST_SKIP();
  }
  Tensor blocked = OIHWToOIHWio(w, x, y);
  EXPECT_EQ(blocked.NumElements(), w.NumElements());
  // Reconstruct and compare.
  const std::int64_t ob = 16 / y, ib = 8 / x;
  double max_diff = 0.0;
  for (std::int64_t o = 0; o < 16; ++o) {
    for (std::int64_t i = 0; i < 8; ++i) {
      for (std::int64_t k = 0; k < 9; ++k) {
        const float orig = w.data()[(o * 8 + i) * 9 + k];
        const float got =
            blocked.data()[(((((o / y) * ib + i / x) * 9 + k) * x + i % x) * y + o % y)];
        max_diff = std::max(max_diff, static_cast<double>(std::abs(orig - got)));
      }
    }
  }
  EXPECT_EQ(max_diff, 0.0) << "x=" << x << " y=" << y << " ob=" << ob;
}

INSTANTIATE_TEST_SUITE_P(Sweep, WeightBlockTest,
                         ::testing::Combine(::testing::Values<std::int64_t>(1, 2, 4, 8),
                                            ::testing::Values<std::int64_t>(1, 2, 4, 8, 16)));

}  // namespace
}  // namespace neocpu
