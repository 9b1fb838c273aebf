// Convolution kernel correctness: the NCHW[x]c template (Algorithm 1) and the im2col
// path are validated against the naive NCHW reference across a broad parameterized sweep
// of workloads, schedules and fused epilogues.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "src/base/rng.h"
#include "src/kernels/conv_im2col.h"
#include "src/kernels/conv_nchwc.h"
#include "src/kernels/conv_ref.h"
#include "src/runtime/thread_pool.h"
#include "src/tensor/layout_transform.h"

namespace neocpu {
namespace {

// fp32 summation-order tolerance: abs + rel (numpy.allclose semantics).
constexpr double kRtol = 1e-3;
constexpr double kAtol = 2e-3;

struct ConvCase {
  Conv2dParams p;
  ConvSchedule s;
  ConvEpilogue e;
  std::string label;
};

Tensor RunReference(const ConvCase& c, const Tensor& in, const Tensor& w, const Tensor& bias,
                    const Tensor& res) {
  return ConvRefNCHW(c.p, in, w, c.e.bias ? &bias : nullptr, c.e.residual_add ? &res : nullptr,
                     c.e);
}

class ConvNCHWcVsRef : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvNCHWcVsRef, MatchesReference) {
  const ConvCase& c = GetParam();
  Rng rng(11);
  Tensor in = Tensor::Random({c.p.batch, c.p.in_c, c.p.in_h, c.p.in_w}, rng, -1, 1,
                             Layout::NCHW());
  Tensor w = Tensor::Random({c.p.out_c, c.p.in_c, c.p.kernel_h, c.p.kernel_w}, rng, -0.5f,
                            0.5f, Layout::OIHW());
  Tensor bias = Tensor::Random({c.p.out_c}, rng, -0.2f, 0.2f);
  Tensor res = Tensor::Random({c.p.batch, c.p.out_c, c.p.OutH(), c.p.OutW()}, rng, -1, 1,
                              Layout::NCHW());

  Tensor expected = RunReference(c, in, w, bias, res);
  Tensor got = ConvNCHWcWithTransforms(c.p, c.s, in, w, c.e.bias ? &bias : nullptr,
                                       c.e.residual_add ? &res : nullptr, c.e);
  EXPECT_LE(Tensor::AllCloseViolation(got, expected, kRtol, kAtol), 0.0)
      << c.label << " " << c.s.ToString();
}

std::vector<ConvCase> MakeWorkloadSweep() {
  std::vector<ConvCase> cases;
  auto add = [&](Conv2dParams p, ConvSchedule s, ConvEpilogue e, std::string label) {
    cases.push_back(ConvCase{p, s, e, std::move(label)});
  };
  // Square kernels, strides, padding.
  add({1, 16, 12, 12, 32, 3, 3, 1, 1, 1, 1}, {16, 16, 8, true}, {}, "3x3_s1_p1");
  add({1, 16, 12, 12, 32, 3, 3, 2, 2, 1, 1}, {16, 16, 4, true}, {}, "3x3_s2_p1");
  add({1, 16, 13, 13, 32, 3, 3, 2, 2, 1, 1}, {16, 16, 4, false}, {}, "3x3_s2_odd");
  add({1, 8, 9, 9, 16, 5, 5, 1, 1, 2, 2}, {8, 16, 2, true}, {}, "5x5_s1_p2");
  add({1, 8, 17, 17, 8, 7, 7, 2, 2, 3, 3}, {8, 8, 4, true}, {}, "7x7_s2_p3");
  add({1, 32, 8, 8, 64, 1, 1, 1, 1, 0, 0}, {16, 16, 8, false}, {}, "1x1");
  add({1, 32, 9, 9, 64, 1, 1, 2, 2, 0, 0}, {16, 16, 4, true}, {}, "1x1_s2");
  // Rectangular kernels (Inception's factorized convolutions).
  add({1, 16, 9, 9, 16, 1, 7, 1, 1, 0, 3}, {16, 16, 2, true}, {}, "1x7");
  add({1, 16, 9, 9, 16, 7, 1, 1, 1, 3, 0}, {16, 16, 8, false}, {}, "7x1");
  // First-layer style: 3 input channels.
  add({1, 3, 20, 20, 16, 7, 7, 2, 2, 3, 3}, {3, 16, 4, true}, {}, "stem_ic3");
  // Non-power-of-two and non-fast blocks (SSD heads: 84 = 4*21 channels).
  add({1, 16, 10, 10, 84, 3, 3, 1, 1, 1, 1}, {16, 21, 8, true}, {}, "oc84_block21");
  add({1, 16, 10, 10, 84, 3, 3, 1, 1, 1, 1}, {16, 4, 8, true}, {}, "oc84_block4");
  add({1, 24, 8, 8, 24, 3, 3, 1, 1, 1, 1}, {12, 12, 4, true}, {}, "block12_generic");
  // Width smaller than reg_n (tail-only path).
  add({1, 16, 5, 5, 16, 3, 3, 1, 1, 1, 1}, {16, 16, 16, true}, {}, "ow_smaller_than_regn");
  // Batch > 1.
  add({2, 16, 8, 8, 16, 3, 3, 1, 1, 1, 1}, {16, 16, 8, true}, {}, "batch2");
  // Epilogues.
  add({1, 16, 10, 10, 32, 3, 3, 1, 1, 1, 1}, {16, 16, 8, true}, {true, false, false},
      "bias");
  add({1, 16, 10, 10, 32, 3, 3, 1, 1, 1, 1}, {16, 16, 8, true}, {false, false, true},
      "relu");
  add({1, 16, 10, 10, 32, 3, 3, 1, 1, 1, 1}, {16, 16, 8, true}, {true, true, true},
      "bias_residual_relu");
  add({1, 16, 10, 10, 32, 1, 1, 1, 1, 0, 0}, {16, 16, 4, false}, {false, true, false},
      "residual_only");
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Workloads, ConvNCHWcVsRef, ::testing::ValuesIn(MakeWorkloadSweep()),
                         [](const ::testing::TestParamInfo<ConvCase>& info) {
                           return info.param.label;
                         });

// Schedule sweep on one fixed workload: every (ic_bn, oc_bn, reg_n, unroll) combination
// from the paper's candidate lists must produce identical math.
class ConvScheduleSweep
    : public ::testing::TestWithParam<
          std::tuple<std::int64_t, std::int64_t, std::int64_t, bool>> {};

TEST_P(ConvScheduleSweep, AllSchedulesAgree) {
  const auto [ic_bn, oc_bn, reg_n, unroll] = GetParam();
  Conv2dParams p{1, 32, 14, 14, 32, 3, 3, 1, 1, 1, 1};
  ConvSchedule s{ic_bn, oc_bn, reg_n, unroll};
  Rng rng(21);
  Tensor in = Tensor::Random({1, p.in_c, p.in_h, p.in_w}, rng, -1, 1, Layout::NCHW());
  Tensor w = Tensor::Random({p.out_c, p.in_c, 3, 3}, rng, -0.5f, 0.5f, Layout::OIHW());
  Tensor expected = ConvRefNCHW(p, in, w);
  Tensor got = ConvNCHWcWithTransforms(p, s, in, w, nullptr, nullptr, {});
  EXPECT_LE(Tensor::AllCloseViolation(got, expected, kRtol, kAtol), 0.0) << s.ToString();
}

INSTANTIATE_TEST_SUITE_P(PaperCandidates, ConvScheduleSweep,
                         ::testing::Combine(::testing::Values<std::int64_t>(8, 16, 32),
                                            ::testing::Values<std::int64_t>(8, 16, 32),
                                            ::testing::Values<std::int64_t>(2, 4, 8, 16, 32),
                                            ::testing::Bool()));

TEST(ConvNCHWc, ThreadedMatchesSerial) {
  Conv2dParams p{1, 32, 28, 28, 64, 3, 3, 1, 1, 1, 1};
  ConvSchedule s{16, 16, 8, true};
  Rng rng(31);
  Tensor in = Tensor::Random({1, 2, 28, 28, 16}, rng, -1, 1, Layout::NCHWc(16));
  Tensor w = Tensor::Random({4, 2, 3, 3, 16, 16}, rng, -0.5f, 0.5f, Layout::OIHWio(16, 16));
  Tensor out_serial = Tensor::Empty({1, 4, 28, 28, 16}, Layout::NCHWc(16));
  Tensor out_threaded = Tensor::Empty({1, 4, 28, 28, 16}, Layout::NCHWc(16));
  ConvNCHWc(p, s, in, w, nullptr, nullptr, {}, &out_serial, nullptr);
  NeoThreadPool pool(3, /*bind_threads=*/false);
  ConvNCHWc(p, s, in, w, nullptr, nullptr, {}, &out_threaded, &pool);
  // The partition only splits independent output rows: results must be bit-identical.
  EXPECT_EQ(Tensor::MaxAbsDiff(out_serial, out_threaded), 0.0);
}

// Every ISA tier of the template against the reference, across the blockings the
// schedule space emits (oc_bn 4/8/16/32 through the template instantiations, 6 through
// MicroEdge), every reg_n, stride 1/2, pad 0/1, out-width tails (OW = 37/35/19/18 is a
// multiple of no reg_n above 2) and the fused epilogues. The tiers differ only in FMA
// contraction (the AVX2/AVX-512 variants fuse multiply-add, the baseline rounds twice),
// so they are compared by tolerance, not bitwise.
class ConvNCHWcTierParity : public ::testing::TestWithParam<const char*> {};

TEST_P(ConvNCHWcTierParity, EveryBlockingMatchesReference) {
  const char* tier = GetParam();
  if (!SetConvNCHWcIsaOverride(tier)) {
    GTEST_SKIP() << tier << " is not compiled in or not supported by this CPU";
  }
  struct Unpin {
    ~Unpin() { SetConvNCHWcIsaOverride(nullptr); }
  } unpin;
  EXPECT_STREQ(ConvNCHWcIsaName(), tier);
  constexpr double kTierTol = 1e-4;
  NeoThreadPool pool(2, /*bind_threads=*/false);
  const ConvEpilogue epilogues[] = {{}, {true, false, false}, {true, true, true}};
  for (std::int64_t stride : {1, 2}) {
    for (std::int64_t pad : {0, 1}) {
      const Conv2dParams p{1, 16, 7, 37, 96, 3, 3, stride, stride, pad, pad};
      Rng rng(61);
      Tensor in = Tensor::Random({1, p.in_c, p.in_h, p.in_w}, rng, -1, 1, Layout::NCHW());
      Tensor w = Tensor::Random({p.out_c, p.in_c, 3, 3}, rng, -0.5f, 0.5f, Layout::OIHW());
      Tensor bias = Tensor::Random({p.out_c}, rng, -0.2f, 0.2f);
      Tensor res = Tensor::Random({1, p.out_c, p.OutH(), p.OutW()}, rng, -1, 1,
                                  Layout::NCHW());
      for (const ConvEpilogue& e : epilogues) {
        const Tensor* b = e.bias ? &bias : nullptr;
        const Tensor* r = e.residual_add ? &res : nullptr;
        const Tensor expected = ConvRefNCHW(p, in, w, b, r, e);
        for (std::int64_t oc_bn : {4, 8, 16, 32, 6}) {
          for (std::int64_t reg_n : {2, 4, 8, 16, 32}) {
            const ConvSchedule s{8, oc_bn, reg_n, reg_n % 4 == 0};
            const Tensor got = ConvNCHWcWithTransforms(p, s, in, w, b, r, e, &pool);
            EXPECT_LE(Tensor::MaxAbsDiff(got, expected), kTierTol)
                << tier << " " << s.ToString() << " stride " << stride << " pad " << pad
                << " bias " << e.bias << " residual " << e.residual_add;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Tiers, ConvNCHWcTierParity,
                         ::testing::Values("baseline", "avx2", "avx512"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

TEST(ConvNCHWc, IsaOverrideRejectsUnknownTiers) {
  EXPECT_FALSE(SetConvNCHWcIsaOverride("not-an-isa"));
  EXPECT_TRUE(SetConvNCHWcIsaOverride("baseline"));
  EXPECT_STREQ(ConvNCHWcIsaName(), "baseline");
  EXPECT_TRUE(SetConvNCHWcIsaOverride(nullptr));
  EXPECT_STREQ(ConvNCHWcIsaName(), IsaTierName(ConvNCHWcHostTier()));
}

TEST(ConvNCHWc, RejectsMismatchedBlocks) {
  Conv2dParams p{1, 16, 8, 8, 16, 3, 3, 1, 1, 1, 1};
  ConvSchedule s{16, 16, 8, true};
  Rng rng(41);
  Tensor in = Tensor::Random({1, 2, 8, 8, 8}, rng, -1, 1, Layout::NCHWc(8));  // wrong block
  Tensor w = Tensor::Random({1, 1, 3, 3, 16, 16}, rng, -1, 1, Layout::OIHWio(16, 16));
  Tensor out = Tensor::Empty({1, 1, 8, 8, 16}, Layout::NCHWc(16));
  EXPECT_DEATH(ConvNCHWc(p, s, in, w, nullptr, nullptr, {}, &out), "Check failed");
}

class ConvIm2colVsRef : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvIm2colVsRef, MatchesReference) {
  const ConvCase& c = GetParam();
  Rng rng(51);
  Tensor in = Tensor::Random({c.p.batch, c.p.in_c, c.p.in_h, c.p.in_w}, rng, -1, 1,
                             Layout::NCHW());
  Tensor w = Tensor::Random({c.p.out_c, c.p.in_c, c.p.kernel_h, c.p.kernel_w}, rng, -0.5f,
                            0.5f, Layout::OIHW());
  Tensor bias = Tensor::Random({c.p.out_c}, rng, -0.2f, 0.2f);
  Tensor res = Tensor::Random({c.p.batch, c.p.out_c, c.p.OutH(), c.p.OutW()}, rng, -1, 1,
                              Layout::NCHW());
  Tensor expected = RunReference(c, in, w, bias, res);
  Tensor got = ConvIm2col(c.p, in, w, c.e.bias ? &bias : nullptr,
                          c.e.residual_add ? &res : nullptr, c.e);
  EXPECT_LE(Tensor::AllCloseViolation(got, expected, kRtol, kAtol), 0.0) << c.label;
}

std::vector<ConvCase> MakeIm2colSweep() {
  std::vector<ConvCase> cases;
  cases.push_back({{1, 8, 10, 10, 16, 3, 3, 1, 1, 1, 1}, {}, {}, "im2col_3x3"});
  cases.push_back({{1, 8, 11, 11, 16, 3, 3, 2, 2, 1, 1}, {}, {}, "im2col_3x3_s2"});
  cases.push_back({{2, 3, 14, 14, 8, 7, 7, 2, 2, 3, 3}, {}, {}, "im2col_stem"});
  cases.push_back({{1, 8, 10, 10, 16, 1, 1, 1, 1, 0, 0}, {}, {}, "im2col_1x1"});
  cases.push_back(
      {{1, 8, 10, 10, 16, 3, 3, 1, 1, 1, 1}, {}, {true, true, true}, "im2col_epilogue"});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Workloads, ConvIm2colVsRef, ::testing::ValuesIn(MakeIm2colSweep()),
                         [](const ::testing::TestParamInfo<ConvCase>& info) {
                           return info.param.label;
                         });

TEST(ConvRef, KnownTinyExample) {
  // 1x1x3x3 input, 1x1x2x2 kernel of ones, stride 1, no pad: each output = sum of the
  // 2x2 window.
  Conv2dParams p{1, 1, 3, 3, 1, 2, 2, 1, 1, 0, 0};
  Tensor in = Tensor::Empty({1, 1, 3, 3}, Layout::NCHW());
  for (int i = 0; i < 9; ++i) {
    in.data()[i] = static_cast<float>(i + 1);
  }
  Tensor w = Tensor::Full({1, 1, 2, 2}, 1.0f, Layout::OIHW());
  Tensor out = ConvRefNCHW(p, in, w);
  ASSERT_EQ(out.NumElements(), 4);
  EXPECT_FLOAT_EQ(out.data()[0], 1 + 2 + 4 + 5);
  EXPECT_FLOAT_EQ(out.data()[1], 2 + 3 + 5 + 6);
  EXPECT_FLOAT_EQ(out.data()[2], 4 + 5 + 7 + 8);
  EXPECT_FLOAT_EQ(out.data()[3], 5 + 6 + 8 + 9);
}

TEST(Conv2dParams, OutputDimsAndMacs) {
  Conv2dParams p{1, 64, 56, 56, 64, 3, 3, 1, 1, 1, 1};
  EXPECT_EQ(p.OutH(), 56);
  EXPECT_EQ(p.OutW(), 56);
  EXPECT_DOUBLE_EQ(p.Macs(), 1.0 * 64 * 56 * 56 * 64 * 9);
  Conv2dParams strided{1, 3, 224, 224, 64, 7, 7, 2, 2, 3, 3};
  EXPECT_EQ(strided.OutH(), 112);
  EXPECT_EQ(strided.OutW(), 112);
  EXPECT_FALSE(p.CacheKey().empty());
  EXPECT_NE(p.CacheKey(), strided.CacheKey());
}

}  // namespace
}  // namespace neocpu
