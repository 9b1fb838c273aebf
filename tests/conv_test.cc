// Convolution kernel correctness: the NCHW[x]c template (Algorithm 1) and the im2col
// path are validated against the naive NCHW reference across a broad parameterized sweep
// of workloads, schedules and fused epilogues; every conv kernel rejects an output whose
// dims or layout disagree with its parameters.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>

#include "src/base/rng.h"
#include "src/kernels/conv_im2col.h"
#include "src/kernels/conv_nchwc.h"
#include "src/kernels/conv_nchwc_int8.h"
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

// Output buffer of an NCHW-layout conv (reference, im2col).
Tensor NchwOutput(const Conv2dParams& p) {
  return Tensor::Empty({p.batch, p.out_c, p.OutH(), p.OutW()}, Layout::NCHW());
}

Tensor BlockedEmpty(const Tensor& nchw, std::int64_t x) {
  return Tensor::Empty({nchw.dim(0), nchw.dim(1) / x, nchw.dim(2), nchw.dim(3), x},
                       Layout::NCHWc(x));
}

Tensor RunReference(const ConvCase& c, const Tensor& in, const Tensor& w, const Tensor& bias,
                    const Tensor& res) {
  Tensor out = NchwOutput(c.p);
  ConvRefNCHW(c.p, in, w, c.e.bias ? &bias : nullptr, c.e.residual_add ? &res : nullptr, c.e,
              &out);
  return out;
}

// What a framework that wraps a library kernel per op has to do: transform the NCHW
// input (and residual) and the OIHW weight to the blocked layouts, run the template, and
// transform the output back to NCHW.
Tensor ConvNCHWcWithTransforms(const Conv2dParams& p, const ConvSchedule& s,
                               const Tensor& input_nchw, const Tensor& weight_oihw,
                               const Tensor* bias, const Tensor* residual_nchw,
                               const ConvEpilogue& epilogue, ThreadEngine* engine = nullptr) {
  Tensor in_blocked = BlockedEmpty(input_nchw, s.ic_bn);
  TransformLayout(input_nchw, Layout::NCHWc(s.ic_bn), &in_blocked, engine);
  Tensor w_blocked = ReblockWeight(weight_oihw, s.ic_bn, s.oc_bn);
  Tensor res_blocked;
  if (epilogue.residual_add) {
    res_blocked = BlockedEmpty(*residual_nchw, s.oc_bn);
    TransformLayout(*residual_nchw, Layout::NCHWc(s.oc_bn), &res_blocked, engine);
  }
  Tensor out = Tensor::Empty({p.batch, p.out_c / s.oc_bn, p.OutH(), p.OutW(), s.oc_bn},
                             Layout::NCHWc(s.oc_bn));
  ConvNCHWc(p, s, in_blocked, w_blocked, bias, epilogue.residual_add ? &res_blocked : nullptr,
            epilogue, &out, engine);
  Tensor out_nchw = NchwOutput(p);
  TransformLayout(out, Layout::NCHW(), &out_nchw, engine);
  return out_nchw;
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
  // SSD heads (84 = 4*21 channels) and an input block that is no power of two (ic_bn is
  // a runtime loop bound; oc_bn must be templated, see RejectsUntemplatedBlocks).
  add({1, 16, 10, 10, 84, 3, 3, 1, 1, 1, 1}, {16, 4, 8, true}, {}, "oc84_block4");
  add({1, 24, 8, 8, 24, 3, 3, 1, 1, 1, 1}, {12, 8, 4, true}, {}, "ic_block12");
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
  Tensor expected = NchwOutput(p);
  ConvRefNCHW(p, in, w, nullptr, nullptr, {}, &expected);
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

// Every ISA tier of the template against the reference, across every templated
// blocking (oc_bn 4/8/16/32/64, reg_n 2/4/8/16/32), stride 1/2, pad 0/1, out-width
// tails (OW = 37/35/19/18 is a multiple of no reg_n above 2) and the fused epilogues.
// The tiers differ only in FMA contraction (the AVX2/AVX-512 variants fuse
// multiply-add, the baseline rounds twice), so they are compared by tolerance, not
// bitwise.
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
        Tensor expected = NchwOutput(p);
        ConvRefNCHW(p, in, w, b, r, e, &expected);
        for (std::int64_t oc_bn : {4, 8, 16, 32}) {
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

// Small maps, where every block of a row may be guarded: 7² and 14², odd widths, a
// row narrower than reg_n, stride 2 with pad 1, a 1x1 conv, with and without the fused
// bias + residual + ReLU. On each tier, for every templated oc_bn, every reg_n must give
// bitwise the same output (a position's sum does not depend on its block), within
// 1e-4 of the reference.
class ConvNCHWcSmallMapParity : public ::testing::TestWithParam<const char*> {};

TEST_P(ConvNCHWcSmallMapParity, EveryRegNBitwiseEqual) {
  const char* tier = GetParam();
  if (!SetConvNCHWcIsaOverride(tier)) {
    GTEST_SKIP() << tier << " is not compiled in or not supported by this CPU";
  }
  struct Unpin {
    ~Unpin() { SetConvNCHWcIsaOverride(nullptr); }
  } unpin;
  constexpr double kRefTol = 1e-4;
  NeoThreadPool pool(2, /*bind_threads=*/false);
  const Conv2dParams shapes[] = {
      {1, 32, 7, 7, 64, 3, 3, 1, 1, 1, 1},     // stage-4 3x3 at 7^2
      {1, 16, 14, 14, 64, 3, 3, 1, 1, 1, 1},   // 14^2
      {1, 16, 14, 14, 64, 3, 3, 2, 2, 1, 1},   // stride 2, pad 1: 14^2 -> 7^2
      {1, 16, 13, 11, 64, 3, 3, 2, 2, 1, 1},   // odd sizes, stride 2: OW 6
      {1, 16, 9, 11, 64, 3, 3, 1, 1, 1, 1},    // odd width 11
      {1, 16, 5, 3, 64, 3, 3, 1, 1, 1, 1},     // OW 3 < reg_n
      {1, 32, 7, 7, 64, 1, 1, 1, 1, 0, 0},     // 1x1 at 7^2
  };
  const ConvEpilogue epilogues[] = {{}, {true, true, true}};
  for (const Conv2dParams& p : shapes) {
    Rng rng(71);
    Tensor in = Tensor::Random({1, p.in_c, p.in_h, p.in_w}, rng, -1, 1, Layout::NCHW());
    Tensor w = Tensor::Random({p.out_c, p.in_c, p.kernel_h, p.kernel_w}, rng, -0.5f, 0.5f,
                              Layout::OIHW());
    Tensor bias = Tensor::Random({p.out_c}, rng, -0.2f, 0.2f);
    Tensor res =
        Tensor::Random({1, p.out_c, p.OutH(), p.OutW()}, rng, -1, 1, Layout::NCHW());
    for (const ConvEpilogue& e : epilogues) {
      const Tensor* b = e.bias ? &bias : nullptr;
      const Tensor* r = e.residual_add ? &res : nullptr;
      Tensor expected = NchwOutput(p);
      ConvRefNCHW(p, in, w, b, r, e, &expected);
      for (std::int64_t oc_bn : {4, 8, 16, 32, 64}) {
        Tensor first;
        for (std::int64_t reg_n : {2, 4, 8, 16, 32}) {
          const ConvSchedule s{16, oc_bn, reg_n, reg_n != 8};
          const Tensor got = ConvNCHWcWithTransforms(p, s, in, w, b, r, e, &pool);
          const std::string what = std::string(tier) + " " + p.ToString() + " " +
                                   s.ToString() + (e.relu ? " bias+res+relu" : "");
          EXPECT_LE(Tensor::MaxAbsDiff(got, expected), kRefTol) << what;
          if (!first.defined()) {
            first = got;
          } else {
            EXPECT_EQ(std::memcmp(got.data(), first.data(), got.SizeBytes()), 0)
                << what << " differs from reg_n 2";
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Tiers, ConvNCHWcSmallMapParity,
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

// Only templated block shapes run: an oc_bn or reg_n with no instantiation dies.
TEST(ConvNCHWc, RejectsUntemplatedBlocks) {
  Conv2dParams p{1, 16, 8, 8, 84, 3, 3, 1, 1, 1, 1};
  Rng rng(43);
  Tensor in = Tensor::Random({1, 1, 8, 8, 16}, rng, -1, 1, Layout::NCHWc(16));
  Tensor w21 = Tensor::Random({4, 1, 3, 3, 16, 21}, rng, -1, 1, Layout::OIHWio(16, 21));
  Tensor out21 = Tensor::Empty({1, 4, 8, 8, 21}, Layout::NCHWc(21));
  EXPECT_DEATH(ConvNCHWc(p, ConvSchedule{16, 21, 8, true}, in, w21, nullptr, nullptr, {},
                         &out21),
               "no template instantiation");
  Tensor w4 = Tensor::Random({21, 1, 3, 3, 16, 4}, rng, -1, 1, Layout::OIHWio(16, 4));
  Tensor out4 = Tensor::Empty({1, 21, 8, 8, 4}, Layout::NCHWc(4));
  EXPECT_DEATH(ConvNCHWc(p, ConvSchedule{16, 4, 3, true}, in, w4, nullptr, nullptr, {},
                         &out4),
               "no template instantiation");
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
  Tensor got = NchwOutput(c.p);
  ConvIm2col(c.p, in, w, c.e.bias ? &bias : nullptr, c.e.residual_add ? &res : nullptr, c.e,
             &got);
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
  Tensor out = NchwOutput(p);
  ConvRefNCHW(p, in, w, nullptr, nullptr, {}, &out);
  ASSERT_EQ(out.NumElements(), 4);
  EXPECT_FLOAT_EQ(out.data()[0], 1 + 2 + 4 + 5);
  EXPECT_FLOAT_EQ(out.data()[1], 2 + 3 + 5 + 6);
  EXPECT_FLOAT_EQ(out.data()[2], 4 + 5 + 7 + 8);
  EXPECT_FLOAT_EQ(out.data()[3], 5 + 6 + 8 + 9);
}

// Every conv kernel derives its output shape from Conv2dParams (and the schedule's
// blocks), so a mis-sized or mis-tagged output must die before the kernel writes it. The
// wrong-dims outputs are one row taller than the params say: large enough that a kernel
// which skipped the check would finish without touching memory it does not own.
class ConvOutputCheck : public ::testing::Test {
 protected:
  const Conv2dParams p_{1, 16, 8, 8, 16, 3, 3, 1, 1, 1, 1};
  const ConvSchedule s_{16, 16, 8, true};
  Rng rng_{71};
  const Tensor in_ = Tensor::Random({1, 16, 8, 8}, rng_, -1, 1, Layout::NCHW());
  const Tensor w_ = Tensor::Random({16, 16, 3, 3}, rng_, -1, 1, Layout::OIHW());
  const Tensor in_blocked_ =
      Tensor::Random({1, 1, 8, 8, 16}, rng_, -1, 1, Layout::NCHWc(16));
  const Tensor w_blocked_ =
      Tensor::Random({1, 1, 3, 3, 16, 16}, rng_, -1, 1, Layout::OIHWio(16, 16));
};

TEST_F(ConvOutputCheck, RefRejectsWrongDims) {
  Tensor out = Tensor::Empty({1, 16, 9, 8}, Layout::NCHW());
  EXPECT_DEATH(ConvRefNCHW(p_, in_, w_, nullptr, nullptr, {}, &out), "output dims mismatch");
}

TEST_F(ConvOutputCheck, RefRejectsWrongLayout) {
  Tensor out = Tensor::Empty({1, 16, 8, 8}, Layout::Flat());
  EXPECT_DEATH(ConvRefNCHW(p_, in_, w_, nullptr, nullptr, {}, &out),
               "output layout mismatch");
}

TEST_F(ConvOutputCheck, Im2colRejectsWrongDims) {
  Tensor out = Tensor::Empty({1, 16, 9, 8}, Layout::NCHW());
  EXPECT_DEATH(ConvIm2col(p_, in_, w_, nullptr, nullptr, {}, &out), "output dims mismatch");
}

TEST_F(ConvOutputCheck, Im2colRejectsWrongLayout) {
  Tensor out = Tensor::Empty({1, 16, 8, 8}, Layout::Flat());
  EXPECT_DEATH(ConvIm2col(p_, in_, w_, nullptr, nullptr, {}, &out), "output layout mismatch");
}

TEST_F(ConvOutputCheck, NCHWcRejectsWrongDims) {
  Tensor out = Tensor::Empty({1, 1, 9, 8, 16}, Layout::NCHWc(16));
  EXPECT_DEATH(ConvNCHWc(p_, s_, in_blocked_, w_blocked_, nullptr, nullptr, {}, &out),
               "output dims mismatch");
}

TEST_F(ConvOutputCheck, NCHWcRejectsWrongLayout) {
  Tensor out = Tensor::Empty({1, 1, 8, 8, 16}, Layout::Flat());
  EXPECT_DEATH(ConvNCHWc(p_, s_, in_blocked_, w_blocked_, nullptr, nullptr, {}, &out),
               "output layout mismatch");
}

TEST_F(ConvOutputCheck, S8RejectsWrongDims) {
  ConvSchedule s = s_;
  s.dtype = DType::kU8;
  Tensor in = Tensor::Zeros({1, 1, 8, 8, 16}, Layout::NCHWc(16), DType::kU8);
  Tensor w = Tensor::Zeros({1, 1, 3, 3, 16, 16}, Layout::OIHWio(16, 16), DType::kS8);
  Tensor mult = Tensor::Full({16}, 1e-3f);
  Tensor out = Tensor::Empty({1, 1, 9, 8, 16}, Layout::NCHWc(16), DType::kU8);
  EXPECT_DEATH(ConvNCHWcS8(p_, s, in, w, nullptr, mult, {}, /*requant=*/true, &out),
               "output dims mismatch");
}

TEST_F(ConvOutputCheck, S8RejectsWrongLayout) {
  ConvSchedule s = s_;
  s.dtype = DType::kU8;
  Tensor in = Tensor::Zeros({1, 1, 8, 8, 16}, Layout::NCHWc(16), DType::kU8);
  Tensor w = Tensor::Zeros({1, 1, 3, 3, 16, 16}, Layout::OIHWio(16, 16), DType::kS8);
  Tensor mult = Tensor::Full({16}, 1e-3f);
  Tensor out = Tensor::Empty({1, 1, 8, 8, 16}, Layout::Flat(), DType::kU8);
  EXPECT_DEATH(ConvNCHWcS8(p_, s, in, w, nullptr, mult, {}, /*requant=*/true, &out),
               "output layout mismatch");
}

// The matching input check: an input whose spatial dims disagree with the params.
TEST_F(ConvOutputCheck, EveryConvRejectsWrongInputDims) {
  const Tensor in = Tensor::Zeros({1, 16, 7, 8}, Layout::NCHW());
  Tensor out = NchwOutput(p_);
  EXPECT_DEATH(ConvRefNCHW(p_, in, w_, nullptr, nullptr, {}, &out), "input dims mismatch");
  EXPECT_DEATH(ConvIm2col(p_, in, w_, nullptr, nullptr, {}, &out), "input dims mismatch");
  const Tensor in_blocked = Tensor::Zeros({1, 1, 7, 8, 16}, Layout::NCHWc(16));
  Tensor out_blocked = Tensor::Empty({1, 1, 8, 8, 16}, Layout::NCHWc(16));
  EXPECT_DEATH(ConvNCHWc(p_, s_, in_blocked, w_blocked_, nullptr, nullptr, {}, &out_blocked),
               "input dims mismatch");
}

// The f32 kernels add an f32 residual: an integer one dies instead of being read as
// floats.
TEST_F(ConvOutputCheck, F32ConvsRejectIntegerResidual) {
  ConvEpilogue epi;
  epi.residual_add = true;
  Tensor out = NchwOutput(p_);
  const Tensor res = Tensor::Zeros({1, 16, 8, 8}, Layout::NCHW(), DType::kU8);
  EXPECT_DEATH(ConvRefNCHW(p_, in_, w_, nullptr, &res, epi, &out), "tensor holds u8");
  EXPECT_DEATH(ConvIm2col(p_, in_, w_, nullptr, &res, epi, &out), "tensor holds u8");
  Tensor out_blocked = Tensor::Empty({1, 1, 8, 8, 16}, Layout::NCHWc(16));
  const Tensor res_blocked = Tensor::Zeros({1, 1, 8, 8, 16}, Layout::NCHWc(16), DType::kU8);
  EXPECT_DEATH(ConvNCHWc(p_, s_, in_blocked_, w_blocked_, nullptr, &res_blocked, epi,
                         &out_blocked),
               "tensor holds u8");
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
