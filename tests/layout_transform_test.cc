// Unit and property tests for layout transformations: correctness against direct index
// arithmetic and round-trip identity across parameter sweeps.
#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <tuple>
#include <utility>

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

// The oracle: physical dims and the offset of logical element (i, c, y, z) of an
// {n, ch, h, w} feature map, written out per layout.
std::vector<std::int64_t> DimsIn(const Layout& l, std::int64_t n, std::int64_t ch,
                                 std::int64_t h, std::int64_t w) {
  switch (l.kind) {
    case LayoutKind::kNHWC:
      return {n, h, w, ch};
    case LayoutKind::kNCHWc:
      return {n, ch / l.c_block, h, w, l.c_block};
    default:
      return {n, ch, h, w};
  }
}

std::int64_t OffsetIn(const Layout& l, std::int64_t ch, std::int64_t h, std::int64_t w,
                      std::int64_t i, std::int64_t c, std::int64_t y, std::int64_t z) {
  switch (l.kind) {
    case LayoutKind::kNHWC:
      return ((i * h + y) * w + z) * ch + c;
    case LayoutKind::kNCHWc: {
      const std::int64_t x = l.c_block;
      return (((i * (ch / x) + c / x) * h + y) * w + z) * x + c % x;
    }
    default:
      return ((i * ch + c) * h + y) * w + z;
  }
}

// Every conversion between NCHW, NCHW4c, NCHW16c and NHWC, in f32 and u8, serially
// and on a 4-worker pool, over shapes that include a one-row map and maps with fewer
// rows than workers (the (n, group, row) grid must still cover them exactly).
struct ReblockCase {
  Layout from;
  Layout to;
  DType dtype;
  bool threaded;
};

void PrintTo(const ReblockCase& rc, std::ostream* os) {
  *os << rc.from.ToString() << " -> " << rc.to.ToString() << " " << DTypeName(rc.dtype)
      << (rc.threaded ? " on 4 workers" : " serial");
}

std::vector<ReblockCase> AllReblockCases() {
  const Layout layouts[] = {Layout::NCHW(), Layout::NCHWc(4), Layout::NCHWc(16),
                            Layout::NHWC()};
  std::vector<ReblockCase> cases;
  for (const Layout& from : layouts) {
    for (const Layout& to : layouts) {
      if (from == to) {
        continue;  // the planner aliases an identity transform (IdentityTransformIsRejected)
      }
      for (DType dtype : {DType::kF32, DType::kU8}) {
        for (bool threaded : {false, true}) {
          cases.push_back({from, to, dtype, threaded});
        }
      }
    }
  }
  return cases;
}

// Fills an {n, ch, h, w} map in `from` with its element indices, transforms it to `to`
// and checks every element against the index formula.
void ExpectReblockMatchesIndexFormula(const Layout& from, const Layout& to, DType dtype,
                                      ThreadEngine* engine, std::int64_t n,
                                      std::int64_t ch, std::int64_t h, std::int64_t w) {
  Tensor src = Tensor::Empty(DimsIn(from, n, ch, h, w), from, dtype);
  Tensor dst = Tensor::Empty(DimsIn(to, n, ch, h, w), to, dtype);
  for (std::int64_t e = 0; e < src.NumElements(); ++e) {
    if (dtype == DType::kU8) {
      src.data_as<std::uint8_t>()[e] = static_cast<std::uint8_t>(e % 251);
    } else {
      src.data()[e] = static_cast<float>(e);
    }
  }
  TransformLayout(src, to, &dst, engine);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t c = 0; c < ch; ++c) {
      for (std::int64_t y = 0; y < h; ++y) {
        for (std::int64_t z = 0; z < w; ++z) {
          const std::int64_t from_at = OffsetIn(from, ch, h, w, i, c, y, z);
          const std::int64_t to_at = OffsetIn(to, ch, h, w, i, c, y, z);
          if (dtype == DType::kU8) {
            ASSERT_EQ(dst.data_as<std::uint8_t>()[to_at],
                      src.data_as<std::uint8_t>()[from_at])
                << "n=" << n << " ch=" << ch << " h=" << h << " w=" << w;
          } else {
            ASSERT_EQ(dst.data()[to_at], src.data()[from_at])
                << "n=" << n << " ch=" << ch << " h=" << h << " w=" << w;
          }
        }
      }
    }
  }
}

class ReblockTest : public ::testing::TestWithParam<ReblockCase> {};

TEST_P(ReblockTest, MatchesIndexFormula) {
  const ReblockCase& rc = GetParam();
  NeoThreadPool pool(4, /*bind_threads=*/false);
  ThreadEngine* engine = rc.threaded ? &pool : nullptr;
  // The last shape has more positions per row span than one position tile and, for
  // NCHW <-> NHWC, more channel runs than one offset table holds.
  const std::int64_t shapes[][4] = {{2, 16, 5, 7}, {1, 32, 1, 9}, {1, 16, 3, 4},
                                    {1, 48, 2, 1}, {3, 64, 1, 1}, {1, 96, 9, 11}};
  for (const auto& shape : shapes) {
    ExpectReblockMatchesIndexFormula(rc.from, rc.to, rc.dtype, engine, shape[0], shape[1],
                                     shape[2], shape[3]);
  }
}

// Blocks that do not divide each other (8 and 12: runs of gcd 4 channels, groups of
// lcm 24) follow the same formula.
TEST(LayoutTransform, NonNestedBlocksMatchIndexFormula) {
  NeoThreadPool pool(4, /*bind_threads=*/false);
  for (ThreadEngine* engine : {static_cast<ThreadEngine*>(nullptr),
                               static_cast<ThreadEngine*>(&pool)}) {
    for (DType dtype : {DType::kF32, DType::kU8}) {
      for (const auto& [from, to] : {std::pair{Layout::NCHWc(8), Layout::NCHWc(12)},
                                     std::pair{Layout::NCHWc(12), Layout::NCHWc(8)}}) {
        ExpectReblockMatchesIndexFormula(from, to, dtype, engine, 2, 24, 3, 5);
        ExpectReblockMatchesIndexFormula(from, to, dtype, engine, 1, 48, 9, 11);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, ReblockTest, ::testing::ValuesIn(AllReblockCases()),
    [](const ::testing::TestParamInfo<ReblockCase>& info) {
      const ReblockCase& rc = info.param;
      return rc.from.ToString() + "_to_" + rc.to.ToString() + "_" +
             DTypeName(rc.dtype) + (rc.threaded ? "_pool4" : "_serial");
    });

TEST(LayoutTransform, OIHWioIndexing) {
  Tensor src = Tensor::Empty({4, 4, 1, 1}, Layout::OIHW());
  for (std::int64_t i = 0; i < src.NumElements(); ++i) {
    src.data()[i] = static_cast<float>(i);
  }
  Tensor dst = ReblockWeight(src, 2, 2);
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
  EXPECT_DEATH(TransformLayout(src, Layout::NCHWc(4), &dst), "divisible");
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
  TransformLayout(src, Layout::NCHWc(block), &blocked, engine);
  Tensor back = Tensor::Empty(src.dims(), Layout::NCHW());
  TransformLayout(blocked, Layout::NCHW(), &back, engine);
  EXPECT_EQ(Tensor::MaxAbsDiff(src, back), 0.0)
      << "channels=" << channels << " block=" << block;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RoundTripTest,
    ::testing::Combine(::testing::Values<std::int64_t>(4, 16, 24, 48, 64),
                       ::testing::Values<std::int64_t>(1, 2, 4, 8, 16),
                       ::testing::Bool()));

// An identity transform is the planner's alias, never a kernel call: the transform
// refuses to copy a tensor onto its own layout.
TEST(LayoutTransform, IdentityTransformIsRejected) {
  Rng rng(3);
  Tensor src = Tensor::Random({1, 2, 3, 3, 8}, rng, -1, 1, Layout::NCHWc(8));
  Tensor dst = Tensor::Empty(src.dims(), src.layout());
  EXPECT_DEATH(TransformLayout(src, Layout::NCHWc(8), &dst), "identity transform");
}

// Property: OIHW -> OIHW[x]i[y]o keeps every element at its index-formula position.
class WeightBlockTest
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t>> {};

TEST_P(WeightBlockTest, PreservesAllElements) {
  const auto [x, y] = GetParam();
  Rng rng(79);
  Tensor w = Tensor::Random({16, 8, 3, 3}, rng, -1, 1, Layout::OIHW());
  if (8 % x != 0 || 16 % y != 0) {
    GTEST_SKIP();
  }
  Tensor blocked = ReblockWeight(w, x, y);
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

// Value of OIHW element (o, i, k) of a {24, 24, 3, 3} weight, exact in f32 and s8.
float WeightValue(std::int64_t o, std::int64_t i, std::int64_t k) {
  return static_cast<float>(((o * 24 + i) * 9 + k) % 251 - 125);
}

// Checks every element of `w` (24 x 24 x 3 x 3, any blocks) against WeightValue.
template <typename T>
void ExpectWeightAt(const Tensor& w, std::int64_t x, std::int64_t y) {
  ASSERT_EQ(w.ndim(), x == 1 && y == 1 ? 4 : 6);
  const T* d = w.data_as<T>();
  for (std::int64_t o = 0; o < 24; ++o) {
    for (std::int64_t i = 0; i < 24; ++i) {
      for (std::int64_t k = 0; k < 9; ++k) {
        const std::int64_t at = ((((o / y) * (24 / x) + i / x) * 9 + k) * x + i % x) * y + o % y;
        ASSERT_EQ(static_cast<float>(d[at]), WeightValue(o, i, k))
            << "x=" << x << " y=" << y << " o=" << o << " i=" << i << " k=" << k;
      }
    }
  }
}

// ReblockWeight between any two block pairs (OIHW = OIHW[1]i[1]o), f32 and s8: the copy
// and the in-place form agree with the index formula (output blocks 8 and 12, or 4 and
// 6, do not nest: the in-place form moves slabs of lcm(y, y') channels), the source of
// a copy is left unchanged, and asking for the blocks a weight already has returns the
// weight itself.
TEST(ReblockWeight, EveryBlockPairCopyAndInPlace) {
  const std::pair<std::int64_t, std::int64_t> blocks[] = {{1, 1}, {3, 4}, {8, 8},
                                                          {24, 12}, {4, 6}};
  for (const DType dtype : {DType::kF32, DType::kS8}) {
    for (const auto& [sx, sy] : blocks) {
      for (const auto& [dx, dy] : blocks) {
        Tensor oihw = Tensor::Empty({24, 24, 3, 3}, Layout::OIHW(), dtype);
        for (std::int64_t e = 0; e < oihw.NumElements(); ++e) {
          const float v = WeightValue(e / 216, e / 9 % 24, e % 9);
          if (dtype == DType::kF32) {
            oihw.data_as<float>()[e] = v;
          } else {
            oihw.data_as<std::int8_t>()[e] = static_cast<std::int8_t>(v);
          }
        }
        Tensor src = oihw;
        ReblockWeightInPlace(&src, sx, sy);
        const Tensor before = src.Clone();
        const Tensor copy = ReblockWeight(src, dx, dy);
        EXPECT_EQ(copy.data() == src.data(), sx == dx && sy == dy);
        EXPECT_EQ(std::memcmp(src.data(), before.data(), src.SizeBytes()), 0);
        Tensor in_place = src;
        ReblockWeightInPlace(&in_place, dx, dy);
        EXPECT_EQ(in_place.data(), src.data());
        EXPECT_EQ(in_place.dims(), copy.dims());
        EXPECT_EQ(in_place.layout(), copy.layout());
        if (dtype == DType::kF32) {
          ExpectWeightAt<float>(copy, dx, dy);
          ExpectWeightAt<float>(in_place, dx, dy);
        } else {
          ExpectWeightAt<std::int8_t>(copy, dx, dy);
          ExpectWeightAt<std::int8_t>(in_place, dx, dy);
        }
      }
    }
  }
}

}  // namespace
}  // namespace neocpu
