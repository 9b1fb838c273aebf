// The u8-activation int8 path: kernel-level exactness with zero points and virtual
// padding, bitwise-exact edge and tail blocks on both ISA tiers, the templated-block
// admission rules, cross-tier bitwise parity via the dispatch override, VNNI weight
// packing and the zero-point bias fold, graph-pass structure (integer pooling, sum
// fusion, u8-only selection), the quantized dense path, and the module round trip.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/core/compiler.h"
#include "src/core/presets.h"
#include "src/core/serialization.h"
#include "src/graph/builder.h"
#include "src/kernels/conv_nchwc_int8.h"
#include "src/kernels/quantize.h"
#include "src/models/model_zoo.h"
#include "src/runtime/thread_pool.h"
#include "src/tensor/layout_transform.h"
#include "src/tuning/schedule_space.h"

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

// The two int8 kernel tiers; every test that pins one skips it when the binary or
// the CPU lacks it.
const char* const kInt8Tiers[] = {"baseline", "avx512vnni"};

CompileOptions QuantizedOptions(const Target& target = Target::SkylakeAvx512()) {
  CompileOptions opts = NeoCpuOptions(target);
  opts.quantize = true;
  opts.force_quantize = true;
  return opts;
}

// A u8-activation conv problem with horizontal+vertical padding, a nontrivial zero
// point, bias and ReLU — everything the zero-point fold must get right on borders.
struct U8Case {
  Conv2dParams p;
  ConvSchedule s;
  Tensor in, w_blocked, w_packed, bias, mult;
  std::int32_t in_zero = 131;  // deliberately != 128 to catch hardcoded midpoints
};

U8Case MakeU8Case() {
  U8Case c;
  c.p = Conv2dParams{2, 8, 9, 11, 16, 3, 3, 1, 1, 1, 1};
  c.s = ConvSchedule{8, 16, 8, true};
  c.s.dtype = DType::kU8;
  Rng rng(11);
  c.in = Tensor::Empty({c.p.batch, c.p.in_c / c.s.ic_bn, c.p.in_h, c.p.in_w, c.s.ic_bn},
                       Layout::NCHWc(c.s.ic_bn), DType::kU8);
  for (std::int64_t i = 0; i < c.in.NumElements(); ++i) {
    c.in.data_as<std::uint8_t>()[i] = static_cast<std::uint8_t>(rng.NextBounded(256));
  }
  c.w_blocked = Tensor::Empty({c.p.out_c / c.s.oc_bn, c.p.in_c / c.s.ic_bn, c.p.kernel_h,
                               c.p.kernel_w, c.s.ic_bn, c.s.oc_bn},
                              Layout::OIHWio(c.s.ic_bn, c.s.oc_bn), DType::kS8);
  for (std::int64_t i = 0; i < c.w_blocked.NumElements(); ++i) {
    c.w_blocked.data_as<std::int8_t>()[i] =
        static_cast<std::int8_t>(rng.NextBounded(255)) - 127;
  }
  c.bias = Tensor::Empty({c.p.out_c}, Layout::Flat(), DType::kS32);
  for (std::int64_t o = 0; o < c.p.out_c; ++o) {
    c.bias.data_as<std::int32_t>()[o] =
        static_cast<std::int32_t>(rng.NextBounded(2000)) - 1000;
  }
  // The zero-point correction sums each output channel of the unblocked weight (the
  // lowering folds it before blocking); the blocked tiles are then packed for VNNI.
  FoldZeroPointIntoBias(ReblockWeight(c.w_blocked, 1, 1), c.in_zero, &c.bias);
  c.w_packed = PackWeightsVnni(c.w_blocked);
  c.mult = Tensor::Empty({c.p.out_c}, Layout::Flat());
  for (std::int64_t o = 0; o < c.p.out_c; ++o) {
    c.mult.data()[o] = 1e-4f * (1.0f + static_cast<float>(o));
  }
  return c;
}

// ------------------------------------------------------------------ kernel level

// The u8 kernel against a scalar reference computing sum((u8 - zp) * w) over ALL
// kernel taps (padded positions read a virtual `zp` byte, contributing zero): with
// the zero-point correction pre-folded into the bias the two must agree BIT FOR BIT.
TEST(ConvNCHWcU8, MatchesScalarReferenceWithZeroPointAndPadding) {
  U8Case c = MakeU8Case();
  ConvEpilogue epi;
  epi.bias = true;
  epi.relu = true;
  Tensor out = Tensor::Empty(
      {c.p.batch, c.p.out_c / c.s.oc_bn, c.p.OutH(), c.p.OutW(), c.s.oc_bn},
      Layout::NCHWc(c.s.oc_bn), DType::kF32);
  ConvNCHWcS8(c.p, c.s, c.in, c.w_packed, &c.bias, c.mult, epi, /*requant=*/false,
              &out, nullptr, /*out_zero=*/0, c.in_zero);

  const std::int64_t icb = c.s.ic_bn, ocb = c.s.oc_bn;
  for (std::int64_t n = 0; n < c.p.batch; ++n) {
    for (std::int64_t oc = 0; oc < c.p.out_c; ++oc) {
      for (std::int64_t oh = 0; oh < c.p.OutH(); ++oh) {
        for (std::int64_t ow = 0; ow < c.p.OutW(); ++ow) {
          std::int64_t acc = 0;
          for (std::int64_t ic = 0; ic < c.p.in_c; ++ic) {
            for (std::int64_t kh = 0; kh < c.p.kernel_h; ++kh) {
              for (std::int64_t kw = 0; kw < c.p.kernel_w; ++kw) {
                const std::int64_t ih = oh * c.p.stride_h - c.p.pad_h + kh;
                const std::int64_t iw = ow * c.p.stride_w - c.p.pad_w + kw;
                const bool pad = ih < 0 || ih >= c.p.in_h || iw < 0 || iw >= c.p.in_w;
                const std::int64_t in_at =
                    ((((n * (c.p.in_c / icb) + ic / icb) * c.p.in_h + ih) * c.p.in_w +
                      iw) *
                     icb) +
                    ic % icb;
                const std::int32_t val =
                    pad ? c.in_zero
                        : static_cast<std::int32_t>(c.in.data_as<std::uint8_t>()[in_at]);
                const std::int64_t w_at =
                    ((((((oc / ocb) * (c.p.in_c / icb) + ic / icb) * c.p.kernel_h + kh) *
                           c.p.kernel_w +
                       kw) *
                          icb +
                      ic % icb) *
                     ocb) +
                    oc % ocb;
                acc += (val - c.in_zero) *
                       static_cast<std::int32_t>(c.w_blocked.data_as<std::int8_t>()[w_at]);
              }
            }
          }
          // The kernel computes sum(val*w) + folded_bias where folded = raw -
          // zp*sum(w); the reference computed sum((val-zp)*w) = sum(val*w) -
          // zp*sum(w), so adding folded + zp*sum(w) (= the raw bias) makes the two
          // sides identical.
          acc += c.bias.data_as<std::int32_t>()[oc] +
                 [&] {
                   std::int64_t wsum = 0;
                   for (std::int64_t ic = 0; ic < c.p.in_c; ++ic) {
                     for (std::int64_t kh = 0; kh < c.p.kernel_h; ++kh) {
                       for (std::int64_t kw = 0; kw < c.p.kernel_w; ++kw) {
                         const std::int64_t w_at =
                             ((((((oc / ocb) * (c.p.in_c / icb) + ic / icb) *
                                     c.p.kernel_h +
                                 kh) *
                                    c.p.kernel_w +
                                kw) *
                                   icb +
                               ic % icb) *
                              ocb) +
                             oc % ocb;
                         wsum += c.w_blocked.data_as<std::int8_t>()[w_at];
                       }
                     }
                   }
                   return static_cast<std::int64_t>(c.in_zero) * wsum;
                 }();
          if (acc < 0) {
            acc = 0;
          }
          const float expect = static_cast<float>(acc) * c.mult.data()[oc];
          const std::int64_t out_at =
              ((((n * (c.p.out_c / ocb) + oc / ocb) * c.p.OutH() + oh) * c.p.OutW() +
                ow) *
               ocb) +
              oc % ocb;
          ASSERT_EQ(out.data()[out_at], expect)
              << "n=" << n << " oc=" << oc << " oh=" << oh << " ow=" << ow;
        }
      }
    }
  }
}

// Both int8 tiers, where the host supports them, must produce byte-identical
// requantized output — the cross-ISA parity contract that makes tuning results and
// serialized modules portable across deployment hosts.
TEST(ConvNCHWcU8, CrossIsaBitwiseParity) {
  U8Case c = MakeU8Case();
  ConvEpilogue epi;
  epi.bias = true;
  epi.relu = true;
  auto run = [&]() {
    Tensor out = Tensor::Empty(
        {c.p.batch, c.p.out_c / c.s.oc_bn, c.p.OutH(), c.p.OutW(), c.s.oc_bn},
        Layout::NCHWc(c.s.oc_bn), DType::kU8);
    ConvNCHWcS8(c.p, c.s, c.in, c.w_packed, &c.bias, c.mult, epi, /*requant=*/true,
                &out, nullptr, /*out_zero=*/128, c.in_zero);
    return out;
  };
  const Tensor reference = run();  // auto dispatch
  int tiers_run = 0;
  for (const char* tier : kInt8Tiers) {
    if (!SetConvNCHWcS8IsaOverride(tier)) {
      continue;  // tier not compiled in or CPU lacks it
    }
    EXPECT_STREQ(ConvNCHWcS8IsaName(), tier);
    const Tensor out = run();
    EXPECT_EQ(std::memcmp(out.data_as<std::uint8_t>(),
                          reference.data_as<std::uint8_t>(),
                          static_cast<std::size_t>(out.NumElements())),
              0)
        << "tier " << tier << " diverged from auto dispatch";
    ++tiers_run;
  }
  SetConvNCHWcS8IsaOverride(nullptr);
  EXPECT_GE(tiers_run, 1) << "at least the baseline tier must always be available";
}

// The fused residual epilogue (sum fusion) against a scalar reference, bit for bit, on
// every tier the host runs and so across tiers: a u8 residual with a nonzero zero point
// and an f32 one, requantized and dequantized output, ReLU on and off. The 7x13 output
// with pad 1 at reg_n 8 puts padded edges in both blocks of each row and a tail that
// stores 5 of its 8 positions. The reference computes
// (acc + bias) * mult + (res - res_zero) * res_mult, then ReLU, then lrintf + clamp.
TEST(ConvNCHWcU8, ResidualEpilogueMatchesScalarReferenceOnEveryTier) {
  const Conv2dParams p{1, 8, 7, 13, 32, 3, 3, 1, 1, 1, 1};
  ConvSchedule s{8, 16, 8, true};
  s.dtype = DType::kU8;
  const std::int64_t icb = s.ic_bn, ocb = s.oc_bn;
  const std::int64_t oh_n = p.OutH(), ow_n = p.OutW();
  const std::int32_t in_zero = 131, res_zero = 77, out_zero = 37;
  const float res_scale = 0.05f, out_scale = 0.04f;
  Rng rng(29);
  Tensor in = Tensor::Empty({1, p.in_c / icb, p.in_h, p.in_w, icb}, Layout::NCHWc(icb),
                            DType::kU8);
  for (std::int64_t i = 0; i < in.NumElements(); ++i) {
    in.data_as<std::uint8_t>()[i] = static_cast<std::uint8_t>(rng.NextBounded(256));
  }
  Tensor w = Tensor::Empty({p.out_c / ocb, p.in_c / icb, 3, 3, icb, ocb},
                           Layout::OIHWio(icb, ocb), DType::kS8);
  for (std::int64_t i = 0; i < w.NumElements(); ++i) {
    w.data_as<std::int8_t>()[i] = static_cast<std::int8_t>(rng.NextBounded(255)) - 127;
  }
  Tensor raw_bias = Tensor::Empty({p.out_c}, Layout::Flat(), DType::kS32);
  for (std::int64_t o = 0; o < p.out_c; ++o) {
    raw_bias.data_as<std::int32_t>()[o] =
        static_cast<std::int32_t>(rng.NextBounded(20000)) - 10000;
  }
  Tensor bias = raw_bias.Clone();
  FoldZeroPointIntoBias(ReblockWeight(w, 1, 1), in_zero, &bias);
  const Tensor w_kernel = PackWeightsVnni(w);
  std::vector<float> base_mult(static_cast<std::size_t>(p.out_c));
  for (std::int64_t o = 0; o < p.out_c; ++o) {
    base_mult[static_cast<std::size_t>(o)] = 2e-5f * static_cast<float>(1 + o % 5);
  }

  const std::vector<std::int64_t> out_dims = {1, p.out_c / ocb, oh_n, ow_n, ocb};
  Tensor res_u8 = Tensor::Empty(out_dims, Layout::NCHWc(ocb), DType::kU8);
  for (std::int64_t i = 0; i < res_u8.NumElements(); ++i) {
    res_u8.data_as<std::uint8_t>()[i] = static_cast<std::uint8_t>(rng.NextBounded(256));
  }
  const Tensor res_f32 = Tensor::Random(out_dims, rng, -4.0f, 4.0f, Layout::NCHWc(ocb));

  // Exact integer accumulator plus raw bias per output element (NCHWc order).
  std::vector<std::int32_t> acc(static_cast<std::size_t>(res_u8.NumElements()));
  for (std::int64_t oc = 0; oc < p.out_c; ++oc) {
    for (std::int64_t oh = 0; oh < oh_n; ++oh) {
      for (std::int64_t ow = 0; ow < ow_n; ++ow) {
        std::int32_t a = raw_bias.data_as<std::int32_t>()[oc];
        for (std::int64_t ic = 0; ic < p.in_c; ++ic) {
          for (std::int64_t kh = 0; kh < 3; ++kh) {
            for (std::int64_t kw = 0; kw < 3; ++kw) {
              const std::int64_t ih = oh - 1 + kh, iw = ow - 1 + kw;
              std::int32_t val = in_zero;
              if (ih >= 0 && ih < p.in_h && iw >= 0 && iw < p.in_w) {
                val = in.data_as<std::uint8_t>()
                          [(((ic / icb) * p.in_h + ih) * p.in_w + iw) * icb + ic % icb];
              }
              a += (val - in_zero) *
                   w.data_as<std::int8_t>()
                       [(((((oc / ocb) * (p.in_c / icb) + ic / icb) * 3 + kh) * 3 + kw) *
                             icb +
                         ic % icb) *
                            ocb +
                        oc % ocb];
            }
          }
        }
        acc[static_cast<std::size_t>((((oc / ocb) * oh_n + oh) * ow_n + ow) * ocb +
                                     oc % ocb)] = a;
      }
    }
  }

  for (const bool u8_res : {true, false}) {
    for (const bool requant : {true, false}) {
      for (const bool relu : {false, true}) {
        SCOPED_TRACE(std::string(u8_res ? "u8" : "f32") + " residual, " +
                     (requant ? "requant" : "dequant") + (relu ? ", relu" : ""));
        const float denom = requant ? out_scale : 1.0f;
        Tensor mult = Tensor::Empty({p.out_c}, Layout::Flat());
        for (std::int64_t o = 0; o < p.out_c; ++o) {
          mult.data()[o] = base_mult[static_cast<std::size_t>(o)] / denom;
        }
        S8Residual residual;
        residual.tensor = u8_res ? &res_u8 : &res_f32;
        residual.mult = (u8_res ? res_scale : 1.0f) / denom;
        residual.zero = u8_res ? res_zero : 0;
        ConvEpilogue epi;
        epi.bias = true;
        epi.residual_add = true;
        epi.relu = relu;

        const DType out_dtype = requant ? DType::kU8 : DType::kF32;
        Tensor expected = Tensor::Empty(out_dims, Layout::NCHWc(ocb), out_dtype);
        int clamped = 0;
        for (std::size_t i = 0; i < acc.size(); ++i) {
          const std::int64_t oc = (static_cast<std::int64_t>(i) / (oh_n * ow_n * ocb)) *
                                      ocb +
                                  static_cast<std::int64_t>(i) % ocb;
          // volatile keeps the products out of an FMA, as the kernel TUs do.
          const volatile float scaled = static_cast<float>(acc[i]) * mult.data()[oc];
          const volatile float res_term =
              u8_res ? static_cast<float>(res_u8.data_as<std::uint8_t>()[i] - res_zero) *
                           residual.mult
                     : res_f32.data()[i] * residual.mult;
          float v = scaled + res_term;
          if (relu && v < 0.0f) {
            v = 0.0f;
          }
          if (requant) {
            long q = std::lrintf(v) + out_zero;
            clamped += q < 0 || q > 255;
            q = q < 0 ? 0 : (q > 255 ? 255 : q);
            expected.data_as<std::uint8_t>()[i] = static_cast<std::uint8_t>(q);
          } else {
            expected.data()[i] = v;
          }
        }
        if (requant) {
          EXPECT_GT(clamped, 0) << "the case should exercise the clamp";
        }

        int tiers_run = 0;
        for (const char* tier : kInt8Tiers) {
          if (!SetConvNCHWcS8IsaOverride(tier)) {
            continue;  // tier not compiled in or CPU lacks it
          }
          Tensor out = Tensor::Empty(out_dims, Layout::NCHWc(ocb), out_dtype);
          ConvNCHWcS8(p, s, in, w_kernel, &bias, mult, epi, requant, &out, nullptr,
                      requant ? out_zero : 0, in_zero, residual);
          EXPECT_EQ(std::memcmp(out.data(), expected.data(), out.SizeBytes()), 0)
              << "tier " << tier;
          ++tiers_run;
        }
        SetConvNCHWcS8IsaOverride(nullptr);
        EXPECT_GE(tiers_run, 1);
      }
    }
  }
}

// Every output position runs the register-blocked template: blocks that touch an image
// edge or the out-width tail take its guarded instantiation, which reads the zero-point
// column outside the image. Each shape below runs on both tiers where the host
// supports them, and each tier's output must equal the exact integer conv bit for bit. The
// multiplier is 1 and every sum stays below 2^24, so the f32 output is the s32
// accumulator plus bias, exactly. A case with `real_in_c` set is a quad-padded conv:
// the input channels from real_in_c on hold the zero point and weigh 0, as the image's
// quantize and the lowering lay them out, and the reference sums the real ones only.
struct GuardCase {
  const char* label;
  Conv2dParams p;
  std::int64_t ic_bn, oc_bn, reg_n;
  std::int64_t real_in_c = 0;  // 0: every input channel is real
};

void ExpectTiersMatchIntegerReference(const GuardCase& gc) {
  SCOPED_TRACE(std::string(gc.label) + " reg_n=" + std::to_string(gc.reg_n));
  const Conv2dParams& p = gc.p;
  const std::int32_t in_zero = 131;
  ConvSchedule s{gc.ic_bn, gc.oc_bn, gc.reg_n, true};
  s.dtype = DType::kU8;
  const std::int64_t icb = s.ic_bn, ocb = s.oc_bn;
  Rng rng(23);
  Tensor in = Tensor::Empty({p.batch, p.in_c / icb, p.in_h, p.in_w, icb},
                            Layout::NCHWc(icb), DType::kU8);
  for (std::int64_t i = 0; i < in.NumElements(); ++i) {
    in.data_as<std::uint8_t>()[i] = static_cast<std::uint8_t>(rng.NextBounded(256));
  }
  Tensor w = Tensor::Empty(
      {p.out_c / ocb, p.in_c / icb, p.kernel_h, p.kernel_w, icb, ocb},
      Layout::OIHWio(icb, ocb), DType::kS8);
  for (std::int64_t i = 0; i < w.NumElements(); ++i) {
    w.data_as<std::int8_t>()[i] = static_cast<std::int8_t>(rng.NextBounded(255)) - 127;
  }
  Tensor raw_bias = Tensor::Empty({p.out_c}, Layout::Flat(), DType::kS32);
  for (std::int64_t o = 0; o < p.out_c; ++o) {
    raw_bias.data_as<std::int32_t>()[o] =
        static_cast<std::int32_t>(rng.NextBounded(2000)) - 1000;
  }
  const std::int64_t real_c = gc.real_in_c > 0 ? gc.real_in_c : p.in_c;
  const std::int64_t plane = p.in_h * p.in_w, taps = p.kernel_h * p.kernel_w;
  for (std::int64_t i = 0; i < in.NumElements(); ++i) {
    if (i / (plane * icb) % (p.in_c / icb) * icb + i % icb >= real_c) {
      in.data_as<std::uint8_t>()[i] = static_cast<std::uint8_t>(in_zero);
    }
  }
  for (std::int64_t i = 0; i < w.NumElements(); ++i) {
    if (i / (taps * icb * ocb) % (p.in_c / icb) * icb + i / ocb % icb >= real_c) {
      w.data_as<std::int8_t>()[i] = 0;
    }
  }
  Tensor bias = raw_bias.Clone();
  FoldZeroPointIntoBias(ReblockWeight(w, 1, 1), in_zero, &bias);
  const Tensor w_kernel = PackWeightsVnni(w);

  // Exact reference: sum((x - in_zero) * w) over every tap, padded taps reading
  // in_zero, plus the raw bias.
  const std::int64_t oh_n = p.OutH(), ow_n = p.OutW();
  Tensor expected = Tensor::Empty({p.batch, p.out_c / ocb, oh_n, ow_n, ocb},
                                  Layout::NCHWc(ocb), DType::kF32);
  for (std::int64_t n = 0; n < p.batch; ++n) {
    for (std::int64_t oc = 0; oc < p.out_c; ++oc) {
      for (std::int64_t oh = 0; oh < oh_n; ++oh) {
        for (std::int64_t ow = 0; ow < ow_n; ++ow) {
          std::int64_t acc = raw_bias.data_as<std::int32_t>()[oc];
          for (std::int64_t ic = 0; ic < real_c; ++ic) {
            for (std::int64_t kh = 0; kh < p.kernel_h; ++kh) {
              for (std::int64_t kw = 0; kw < p.kernel_w; ++kw) {
                const std::int64_t ih = oh * p.stride_h - p.pad_h + kh;
                const std::int64_t iw = ow * p.stride_w - p.pad_w + kw;
                std::int32_t val = in_zero;
                if (ih >= 0 && ih < p.in_h && iw >= 0 && iw < p.in_w) {
                  const std::int64_t at =
                      (((n * (p.in_c / icb) + ic / icb) * p.in_h + ih) * p.in_w + iw) *
                          icb +
                      ic % icb;
                  val = in.data_as<std::uint8_t>()[at];
                }
                const std::int64_t w_at =
                    (((((oc / ocb) * (p.in_c / icb) + ic / icb) * p.kernel_h + kh) *
                          p.kernel_w +
                      kw) *
                         icb +
                     ic % icb) *
                        ocb +
                    oc % ocb;
                acc += (val - in_zero) * w.data_as<std::int8_t>()[w_at];
              }
            }
          }
          ASSERT_LT(acc < 0 ? -acc : acc, std::int64_t{1} << 24);
          expected.data()[(((n * (p.out_c / ocb) + oc / ocb) * oh_n + oh) * ow_n + ow) *
                              ocb +
                          oc % ocb] = static_cast<float>(acc);
        }
      }
    }
  }

  ConvEpilogue epi;
  epi.bias = true;
  const Tensor mult = Tensor::Full({p.out_c}, 1.0f);
  int tiers_run = 0;
  for (const char* tier : kInt8Tiers) {
    if (!SetConvNCHWcS8IsaOverride(tier)) {
      continue;  // tier not compiled in or CPU lacks it
    }
    Tensor out = Tensor::Empty(expected.dims(), Layout::NCHWc(ocb), DType::kF32);
    ConvNCHWcS8(p, s, in, w_kernel, &bias, mult, epi, /*requant=*/false, &out, nullptr,
                /*out_zero=*/0, in_zero);
    EXPECT_EQ(std::memcmp(out.data(), expected.data(),
                          static_cast<std::size_t>(out.NumElements()) * sizeof(float)),
              0)
        << "tier " << tier;
    ++tiers_run;
  }
  SetConvNCHWcS8IsaOverride(nullptr);
  EXPECT_GE(tiers_run, 1);
}

TEST(ConvNCHWcInt8Guarded, EdgeAndTailBlocksMatchIntegerReferenceOnEveryTier) {
  // 7x7 output, pad 1: every block of reg_n >= 8 is guarded (reg_n 32 computes 32
  // positions and stores 7); reg_n 2 and 4 also get interior blocks.
  for (const std::int64_t reg_n : {2, 4, 8, 32}) {
    for (const std::int64_t oc_bn : {8, 64}) {  // the portable loop and the VNNI one
      ExpectTiersMatchIntegerReference(
          {"7x7 pad 1", {1, 8, 7, 7, 64, 3, 3, 1, 1, 1, 1}, 8, oc_bn, reg_n});
    }
  }
  // 56 wide at reg_n 16: guarded left block, interior blocks, and a guarded tail that
  // stores 8 of its 16 positions.
  ExpectTiersMatchIntegerReference(
      {"56 wide", {1, 8, 2, 56, 32, 3, 3, 1, 1, 1, 1}, 8, 32, 16});
  // A stem-like 7x7 kernel, stride 2, pad 3 on one quad of input channels, and the
  // quad-padded stem itself: 3 real channels and a pad channel, into oc_bn 64.
  for (const std::int64_t reg_n : {2, 4}) {
    ExpectTiersMatchIntegerReference(
        {"7x7 s2 p3", {1, 4, 15, 15, 16, 7, 7, 2, 2, 3, 3}, 4, 16, reg_n});
  }
  for (const std::int64_t reg_n : {4, 8}) {
    ExpectTiersMatchIntegerReference(
        {"7x7 s2 p3, 3->4 padded", {1, 4, 15, 15, 64, 7, 7, 2, 2, 3, 3}, 4, 64, reg_n, 3});
  }
  // A 1x1 stride-2 kernel without padding: only the out-width tail is guarded.
  ExpectTiersMatchIntegerReference(
      {"1x1 s2", {1, 8, 9, 9, 32, 1, 1, 2, 2, 0, 0}, 8, 32, 4});
}

// The kernel is instantiated for a fixed set of block shapes and rejects any other
// instead of falling back to a slower loop.
TEST(ConvNCHWcInt8Guarded, RejectsUntemplatedBlocks) {
  const Conv2dParams p{1, 4, 5, 5, 12, 3, 3, 1, 1, 1, 1};
  ConvSchedule s{4, 12, 4, true};
  s.dtype = DType::kU8;
  const Tensor in = Tensor::Zeros({1, 1, 5, 5, 4}, Layout::NCHWc(4), DType::kU8);
  const Tensor w = Tensor::Zeros({1, 1, 3, 3, 4, 12}, Layout::OIHWio(4, 12), DType::kS8);
  const Tensor mult = Tensor::Full({12}, 1.0f);
  Tensor out = Tensor::Empty({1, 1, 5, 5, 12}, Layout::NCHWc(12), DType::kF32);
  EXPECT_DEATH(ConvNCHWcS8(p, s, in, w, nullptr, mult, {}, false, &out),
               "no template instantiation");
  ConvSchedule odd_regn{4, 4, 6, true};
  odd_regn.dtype = DType::kU8;
  const Conv2dParams p4{1, 4, 5, 5, 4, 3, 3, 1, 1, 1, 1};
  const Tensor w4 = Tensor::Zeros({1, 1, 3, 3, 4, 4}, Layout::OIHWio(4, 4), DType::kS8);
  Tensor out4 = Tensor::Empty({1, 1, 5, 5, 4}, Layout::NCHWc(4), DType::kF32);
  EXPECT_DEATH(ConvNCHWcS8(p4, odd_regn, in, w4, nullptr, Tensor::Full({4}, 1.0f), {},
                           false, &out4),
               "no template instantiation");
}

// PackWeightsVnni is a pure intra-tile permutation: element (o, i, kh, kw, ici, ocj)
// moves to packed offset [ici/4][ocj][4] within the same tile.
TEST(PackWeightsVnni, ReordersInnerTileOnly) {
  const std::int64_t icb = 8, ocb = 4;
  Tensor w = Tensor::Empty({2, 3, 1, 1, icb, ocb}, Layout::OIHWio(icb, ocb), DType::kS8);
  for (std::int64_t i = 0; i < w.NumElements(); ++i) {
    w.data_as<std::int8_t>()[i] = static_cast<std::int8_t>(i % 127);
  }
  Tensor packed = PackWeightsVnni(w);
  ASSERT_EQ(packed.NumElements(), w.NumElements());
  const std::int64_t tile = icb * ocb;
  for (std::int64_t t = 0; t < w.NumElements() / tile; ++t) {
    for (std::int64_t ici = 0; ici < icb; ++ici) {
      for (std::int64_t ocj = 0; ocj < ocb; ++ocj) {
        const std::int8_t orig = w.data_as<std::int8_t>()[t * tile + ici * ocb + ocj];
        const std::int64_t packed_at =
            t * tile + (ici / 4) * ocb * 4 + ocj * 4 + (ici % 4);
        ASSERT_EQ(packed.data_as<std::int8_t>()[packed_at], orig)
            << "tile " << t << " ici " << ici << " ocj " << ocj;
      }
    }
  }
}

// u8 feature maps relayout exactly like f32 ones (pure index permutation).
TEST(LayoutTransformU8, BlockedRoundTrip) {
  Tensor x = Tensor::Empty({2, 8, 5, 5}, Layout::NCHW(), DType::kU8);
  for (std::int64_t i = 0; i < x.NumElements(); ++i) {
    x.data_as<std::uint8_t>()[i] = static_cast<std::uint8_t>(i % 251);
  }
  Tensor blocked = Tensor::Empty({2, 2, 5, 5, 4}, Layout::NCHWc(4), DType::kU8);
  TransformLayout(x, Layout::NCHWc(4), &blocked);
  Tensor reblocked = Tensor::Empty({2, 1, 5, 5, 8}, Layout::NCHWc(8), DType::kU8);
  TransformLayout(blocked, Layout::NCHWc(8), &reblocked);
  Tensor back = Tensor::Empty(x.dims(), Layout::NCHW(), DType::kU8);
  TransformLayout(reblocked, Layout::NCHW(), &back);
  for (std::int64_t i = 0; i < x.NumElements(); ++i) {
    ASSERT_EQ(back.data_as<std::uint8_t>()[i], x.data_as<std::uint8_t>()[i]) << i;
  }
}

// The image's one quantize pass: f32 NCHW into u8 NCHW[x]c, the channels padded to
// whole blocks with the zero point. Element (n, c, y, z) of the output sits at
// ((n * ceil(C/x) + c / x) * H * W + y * W + z) * x + c % x; every (n, block, row) of
// the grid is checked, serial and on a 4-worker pool, on maps both taller and
// shorter than the worker count.
TEST(QuantizeBlocked, WritesPaddedBlocksOfTheImage) {
  const float scale = 0.0625f;  // an exact reciprocal: x / scale == x * (1 / scale)
  const std::int32_t zero = 77;
  NeoThreadPool pool(4, /*bind_threads=*/false);
  for (const std::int64_t c : {3, 5}) {
    for (const std::int64_t x : {4, 8}) {
      for (const std::int64_t h : {2, 7}) {
        for (ThreadEngine* engine : {static_cast<ThreadEngine*>(nullptr),
                                     static_cast<ThreadEngine*>(&pool)}) {
          SCOPED_TRACE("C=" + std::to_string(c) + " x=" + std::to_string(x) +
                       " h=" + std::to_string(h) + (engine ? " pool" : " serial"));
          const std::int64_t n = 2, w = 5, cb = (c + x - 1) / x;
          Rng rng(static_cast<std::uint64_t>(c * 100 + x * 10 + h));
          const Tensor in = Tensor::Random({n, c, h, w}, rng, -8.0f, 8.0f, Layout::NCHW());
          Tensor out = Tensor::Empty({n, cb, h, w, x}, Layout::NCHWc(x), DType::kU8);
          std::memset(out.data(), 0xAB, static_cast<std::size_t>(out.NumElements()));
          Quantize(in, scale, zero, &out, engine);
          const std::uint8_t* q = out.data_as<std::uint8_t>();
          for (std::int64_t ni = 0; ni < n; ++ni) {
            for (std::int64_t ci = 0; ci < cb * x; ++ci) {
              for (std::int64_t y = 0; y < h; ++y) {
                for (std::int64_t z = 0; z < w; ++z) {
                  const std::int64_t at = ((ni * cb + ci / x) * h * w + y * w + z) * x + ci % x;
                  const std::int32_t want =
                      ci < c ? RoundClamp(in.data()[((ni * c + ci) * h + y) * w + z] / scale,
                                          zero, 0.0f, 255.0f)
                             : zero;
                  ASSERT_EQ(q[at], want) << "n " << ni << " c " << ci << " y " << y
                                         << " z " << z;
                }
              }
            }
          }
        }
      }
    }
  }
}

// ------------------------------------------------------------------ schedule space

// u8 admission: only quad-divisible ic blocks are legal (4 input channels per
// dot-product group), over the input channels padded to a quad, so a 3-channel stem
// runs ic_bn 4 and nothing else.
TEST(U8ScheduleSpace, RequiresQuadDivisibleIcBlocks) {
  const Target t = Target::SkylakeAvx512();
  const Conv2dParams stem{1, 3, 32, 32, 64, 7, 7, 2, 2, 3, 3};
  EXPECT_EQ(stem.QuadPadded().in_c, 4);
  for (const bool quick : {false, true}) {
    const auto stem_space = EnumerateS8Schedules(stem, t, quick);
    ASSERT_FALSE(stem_space.empty()) << "quick=" << quick;
    for (const ConvSchedule& s : stem_space) {
      EXPECT_EQ(s.ic_bn, 4) << s.ToString();
    }
  }

  const Conv2dParams wide{1, 64, 14, 14, 64, 3, 3, 1, 1, 1, 1};
  const auto u8_space = EnumerateS8Schedules(wide, t);
  ASSERT_FALSE(u8_space.empty());
  for (const ConvSchedule& s : u8_space) {
    EXPECT_EQ(s.dtype, DType::kU8);
    EXPECT_EQ(s.ic_bn % 4, 0) << s.ic_bn;
  }
}

// The int8 space admits only the oc_bn values the kernel is instantiated for. A
// 126-channel SSD class head has none among its factors, so it has no int8 space.
TEST(Int8ScheduleSpace, AdmitsOnlyTemplatedBlocks) {
  const Target t = Target::SkylakeAvx512();
  const Conv2dParams head{1, 256, 5, 5, 126, 3, 3, 1, 1, 1, 1};
  for (const bool quick : {false, true}) {
    EXPECT_TRUE(EnumerateS8Schedules(head, t, quick).empty()) << "quick=" << quick;
  }
  const Conv2dParams odd{1, 64, 14, 14, 96, 3, 3, 1, 1, 1, 1};
  std::set<std::int64_t> oc_blocks;
  for (const ConvSchedule& s : EnumerateS8Schedules(odd, t)) {
    EXPECT_TRUE(IsTemplated(s)) << s.ToString();
    oc_blocks.insert(s.oc_bn);
  }
  EXPECT_EQ(oc_blocks, (std::set<std::int64_t>{4, 8, 16, 32}));
}

// A conv with no int8 space keeps its f32 schedule inside a forced-int8 compile.
TEST(QuantizeGraph, ConvWithoutTemplatedBlockStaysF32) {
  GraphBuilder b("odd_head");
  int x = b.Input({1, 16, 8, 8});
  x = b.Conv(x, 32, 3, 1, 1, /*bias=*/true, "body");
  x = b.Relu(x);
  x = b.Conv(x, 126, 3, 1, 1, /*bias=*/true, "head");
  Graph model = b.Finish({x});

  CompiledModel compiled = Compile(model, QuantizedOptions());
  for (int id = 0; id < compiled.graph().num_nodes(); ++id) {
    const Node& node = compiled.graph().node(id);
    if (node.IsConv()) {
      EXPECT_EQ(node.attrs.qconv.enabled, node.name == "body") << node.name;
    }
  }
  Tensor input = InputFor(model);
  const Tensor expected = Executor(&model).Run(input);
  EXPECT_LE(Tensor::MaxAbsDiff(compiled.Run(input), expected), 0.05);
}

// ------------------------------------------------------------------ pass structure

// conv -> maxpool -> conv stays one integer region: the pool runs natively on the
// quantized dtype, so there is exactly one entry quantize and no dequantize at all
// (the exit fuses into the last conv).
TEST(QuantizeGraphU8, PoolingStaysInsideIntegerRegion) {
  GraphBuilder b("pool_chain");
  int x = b.Input({1, 32, 16, 16});
  x = b.Conv(x, 32, 3, 1, 1, /*bias=*/true, "c1");
  x = b.Relu(x);
  x = b.MaxPool(x, 2, 2, 0);
  x = b.Conv(x, 32, 3, 1, 1, /*bias=*/true, "c2");
  Graph model = b.Finish({x});

  CompiledModel compiled = Compile(model, QuantizedOptions());
  EXPECT_EQ(compiled.stats().num_quantized_convs, 2);
  const Graph& g = compiled.graph();
  EXPECT_EQ(g.CountNodes(OpType::kQuantize), 1);
  EXPECT_EQ(g.CountNodes(OpType::kDequantize), 0);
  bool integer_pool = false;
  for (int id = 0; id < g.num_nodes(); ++id) {
    if (g.node(id).type == OpType::kMaxPool && g.node(id).out_dtype != DType::kF32) {
      integer_pool = true;
    }
  }
  EXPECT_TRUE(integer_pool) << "maxpool should execute on the quantized dtype";

  Tensor input = InputFor(model);
  const Tensor expected = Executor(&model).Run(input);
  EXPECT_LE(Tensor::MaxAbsDiff(compiled.Run(input), expected), 0.05);
}

// A forced compile rewires every conv with a legal quad blocking to u8 activations
// with a nonzero zero point; the requantized outputs feeding them are u8 too.
TEST(QuantizeGraphU8, ForcedQuantizeSelectsU8Schedules) {
  GraphBuilder b("u8_chain");
  int x = b.Input({1, 32, 16, 16});
  x = b.Conv(x, 32, 3, 1, 1, /*bias=*/true, "c1");
  x = b.Relu(x);
  x = b.Conv(x, 32, 3, 1, 1, /*bias=*/true, "c2");
  x = b.Relu(x);
  x = b.Conv(x, 32, 1, 1, 0, /*bias=*/true, "c3");
  Graph model = b.Finish({x});

  CompiledModel compiled = Compile(model, QuantizedOptions());
  EXPECT_EQ(compiled.stats().num_quantized_convs, 3);
  const Graph& g = compiled.graph();
  int u8_convs = 0;
  for (int id = 0; id < g.num_nodes(); ++id) {
    const Node& node = g.node(id);
    if (node.IsConv() && node.attrs.qconv.enabled) {
      EXPECT_EQ(g.node(node.inputs[0]).out_dtype, DType::kU8) << node.name;
      EXPECT_EQ(node.attrs.schedule.dtype, DType::kU8) << node.name;
      EXPECT_EQ(node.attrs.schedule.ic_bn % 4, 0) << node.name;
      EXPECT_EQ(node.out_dtype, node.attrs.qconv.requant ? DType::kU8 : DType::kF32)
          << node.name;
      ++u8_convs;
    }
  }
  EXPECT_EQ(u8_convs, 3);

  Tensor input = InputFor(model);
  const Tensor expected = Executor(&model).Run(input);
  EXPECT_LE(Tensor::MaxAbsDiff(compiled.Run(input), expected), 0.05);
}

// u8 is the only quantized activation dtype. A forced compile of resnet18 on the VNNI
// profile runs the 3-channel stem in u8 too, on its channels padded to a quad: the one
// quantize reads the graph input and writes the stem's NCHW4c blocks with the pad
// channel at the zero point, and the maxpool after the stem compares u8 codes. Every
// quantized conv reads u8 and every quantize node writes u8.
TEST(QuantizeGraphU8, ResNet18HasNoS8Activations) {
  Graph model = BuildResNet(18, 1, 64);
  CompiledModel compiled = Compile(model, QuantizedOptions(Target::CascadeLakeVnni()));
  const Graph& g = compiled.graph();
  int stems = 0, u8_convs = 0, quantizes = 0, u8_pools = 0;
  for (int id = 0; id < g.num_nodes(); ++id) {
    const Node& node = g.node(id);
    if (node.IsConv() && node.name == "stem") {
      ++stems;
      EXPECT_TRUE(node.attrs.qconv.enabled) << node.name;
      EXPECT_EQ(node.attrs.conv.in_c, 4) << node.name;
      EXPECT_EQ(node.attrs.schedule.ic_bn, 4) << node.name;
    }
    if (node.IsConv()) {
      EXPECT_TRUE(node.attrs.qconv.enabled) << node.name;
      EXPECT_EQ(g.node(node.inputs[0]).out_dtype, DType::kU8) << node.name;
      EXPECT_EQ(node.attrs.schedule.dtype, DType::kU8) << node.name;
      ++u8_convs;
    }
    if (node.type == OpType::kQuantize) {
      EXPECT_EQ(node.out_dtype, DType::kU8) << node.name;
      EXPECT_EQ(g.node(node.inputs[0]).type, OpType::kInput) << node.name;
      EXPECT_EQ(node.out_layout, Layout::NCHWc(4)) << node.name;
      EXPECT_EQ(node.out_dims, (std::vector<std::int64_t>{1, 4, 64, 64})) << node.name;
      ++quantizes;
    }
    if (node.type == OpType::kMaxPool) {
      EXPECT_EQ(node.out_dtype, DType::kU8) << node.name;
      ++u8_pools;
    }
  }
  EXPECT_EQ(stems, 1);
  EXPECT_EQ(u8_convs, 20);
  EXPECT_EQ(quantizes, 1);
  EXPECT_EQ(u8_pools, 1);

  Tensor input = InputFor(model);
  const Tensor expected = Executor(&model).Run(input);
  EXPECT_LE(Tensor::MaxAbsDiff(compiled.Run(input), expected), 0.05);
}

// A pool read both by a quantized conv and as a conv's residual stays integer: the
// pool runs on u8 codes, and the residual conv c3 — quantized too — reads them directly
// in its u8 epilogue (sum fusion, the rescale params on qin_scales/qin_zeros), so the
// graph needs one entry quantize and no standalone dequantize.
TEST(QuantizeGraphU8, SumFusionReadsIntegerResidual) {
  GraphBuilder b("sum_fusion");
  int x = b.Input({1, 16, 16, 16});
  x = b.Relu(b.Conv(x, 32, 3, 1, 1, /*bias=*/true, "c1"));
  const int pool = b.MaxPool(x, 2, 2, 0);
  x = b.Relu(b.Conv(pool, 32, 3, 1, 1, /*bias=*/true, "c2"));
  x = b.Conv(x, 32, 3, 1, 1, /*bias=*/true, "c3");
  Graph model = b.Finish({b.Add(x, pool)});

  CompiledModel compiled = Compile(model, QuantizedOptions());
  EXPECT_EQ(compiled.stats().num_quantized_convs, 3);  // c3 fuses the residual add
  const Graph& g = compiled.graph();
  EXPECT_EQ(g.CountNodes(OpType::kQuantize), 1);
  EXPECT_EQ(g.CountNodes(OpType::kDequantize), 0);
  int fused_residual = 0, integer_pools = 0;
  for (int id = 0; id < g.num_nodes(); ++id) {
    const Node& node = g.node(id);
    if (node.IsConv() && node.attrs.epilogue.residual_add) {
      EXPECT_EQ(node.name, "c3");
      EXPECT_TRUE(node.attrs.schedule.IsQuantized()) << node.name;
      // {data, w8, b32, residual, multiplier}: the residual is the u8 pool, possibly
      // through a reblock to the conv's output blocking.
      int res = node.inputs[node.inputs.size() - 2];
      if (g.node(res).type == OpType::kLayoutTransform) {
        res = g.node(res).inputs[0];
      }
      EXPECT_EQ(g.node(res).type, OpType::kMaxPool) << node.name;
      EXPECT_EQ(g.node(res).out_dtype, DType::kU8) << node.name;
      EXPECT_EQ(node.attrs.qin_scales.size(), 1u);
      EXPECT_EQ(node.attrs.qin_zeros.size(), 1u);
      ++fused_residual;
    }
    if (node.type == OpType::kMaxPool && node.out_dtype == DType::kU8) {
      ++integer_pools;
    }
  }
  EXPECT_EQ(fused_residual, 1);
  EXPECT_EQ(integer_pools, 1);

  Tensor input = InputFor(model);
  const Tensor expected = Executor(&model).Run(input);
  EXPECT_LE(Tensor::MaxAbsDiff(compiled.Run(input), expected), 0.05);
}

// A residual conv that stays f32 (its 6 input channels are not a quad multiple, and it
// does not read the image, whose quantize alone writes pad channels) while its
// residual's producer requantizes for a u8 reader: the conv reads the residual through
// the one shared kDequantize, like any other f32 reader, and its f32 kernel adds it.
TEST(QuantizeGraphU8, F32ResidualConvReadsSharedDequantize) {
  GraphBuilder b("f32_residual");
  const int x = b.Input({1, 16, 8, 8});
  const int c1 = b.Relu(b.Conv(x, 32, 3, 1, 1, /*bias=*/true, "c1"));
  const int c2 = b.Conv(c1, 32, 3, 1, 1, /*bias=*/true, "c2");  // the u8 reader
  const int narrow = b.Relu(b.Conv(x, 6, 3, 1, 1, /*bias=*/true, "narrow"));
  const int res = b.Conv(narrow, 32, 3, 1, 1, /*bias=*/true, "res");
  Graph model = b.Finish({b.Concat({b.Add(res, c1), c2})});

  // Calibrated on the test input, so the tolerance checks the route rather than the
  // clipping of values a synthetic calibration batch never reached.
  const Tensor input = InputFor(model);
  CompileOptions opts = QuantizedOptions();
  opts.calibration_inputs = {input};
  CompiledModel compiled = Compile(model, opts);
  const Graph& g = compiled.graph();
  EXPECT_EQ(g.CountNodes(OpType::kDequantize), 1);
  int residual_convs = 0;
  for (int id = 0; id < g.num_nodes(); ++id) {
    const Node& node = g.node(id);
    if (!node.IsConv() || !node.attrs.epilogue.residual_add) {
      continue;
    }
    ++residual_convs;
    EXPECT_EQ(node.name, "res");
    EXPECT_FALSE(node.attrs.qconv.enabled);
    EXPECT_FALSE(node.attrs.schedule.IsQuantized());
    EXPECT_TRUE(node.attrs.qin_scales.empty());
    int res = node.inputs.back();
    if (g.node(res).type == OpType::kLayoutTransform) {
      res = g.node(res).inputs[0];
    }
    ASSERT_EQ(g.node(res).type, OpType::kDequantize);
    const Node& producer = g.node(g.node(res).inputs[0]);
    EXPECT_EQ(producer.name, "c1");
    EXPECT_EQ(producer.out_dtype, DType::kU8);
  }
  EXPECT_EQ(residual_convs, 1);

  const Tensor expected = Executor(&model).Run(input);
  EXPECT_LE(Tensor::MaxAbsDiff(compiled.Run(input), expected), 0.05);
}

// resnet18's quantized boundary structure. One quantize converts the image into the
// quad-padded stem's blocks; from there every conv, the maxpool and every block stay u8
// from input to output: the residual conv ending each block adds its shortcut in the u8
// epilogue, and the last one dequantizes into its f32 output. 20 of 20 convs quantized,
// one quantize, no standalone dequantize, and no layout transform until the f32 tail.
TEST(QuantizeGraphU8, ResNet18BoundaryStructure) {
  Graph model = BuildResNet(18, 1, 64);
  CompiledModel compiled = Compile(model, QuantizedOptions());
  EXPECT_EQ(compiled.stats().num_quantized_convs, 20);
  EXPECT_EQ(compiled.stats().num_convs, 20);
  const Graph& g = compiled.graph();
  EXPECT_EQ(g.CountNodes(OpType::kQuantize), 1);
  EXPECT_EQ(g.CountNodes(OpType::kDequantize), 0);
  for (int id = 0; id < g.num_nodes(); ++id) {
    if (g.node(id).type == OpType::kLayoutTransform) {
      EXPECT_EQ(g.node(id).out_dtype, DType::kF32) << g.node(id).name;
    }
  }
  // A residual is read as u8 (with its producer's scale and zero point) wherever u8
  // codes of it exist; the first block reads the u8 maxpool. The three downsampling
  // blocks read their projection's f32 output: a residual read does not make its
  // producer requantize.
  int u8_residuals = 0, f32_residuals = 0;
  for (int id = 0; id < g.num_nodes(); ++id) {
    const Node& node = g.node(id);
    if (!node.IsConv() || !node.attrs.epilogue.residual_add) {
      continue;
    }
    ASSERT_TRUE(node.attrs.schedule.IsQuantized()) << node.name;
    int res = node.inputs[node.inputs.size() - 2];
    if (g.node(res).type == OpType::kLayoutTransform) {
      res = g.node(res).inputs[0];
    }
    if (g.node(res).out_dtype == DType::kU8) {
      EXPECT_EQ(node.attrs.qin_zeros.size(), 1u) << node.name;
      ++u8_residuals;
      if (node.name == "stage1.unit1.conv2") {
        EXPECT_EQ(g.node(res).type, OpType::kMaxPool) << node.name;
      }
    } else {
      EXPECT_TRUE(node.attrs.qin_scales.empty()) << node.name;
      ++f32_residuals;
    }
  }
  EXPECT_EQ(u8_residuals, 5);
  EXPECT_EQ(f32_residuals, 3);

  Tensor input = InputFor(model);
  const Tensor expected = Executor(&model).Run(input);
  EXPECT_LE(Tensor::MaxAbsDiff(compiled.Run(input), expected), 0.05);
}

// ------------------------------------------------------------------ dense path

// quantize_dense routes constant-weight dense layers through the one quantized dense
// kernel, the tuned packed u8*s8 GEMM.
TEST(QuantizeDense, DenseLayersQuantizeWithinTolerance) {
  Graph model = BuildTinyCnn(1, 32);
  Tensor input = InputFor(model);
  const Tensor expected = Executor(&model).Run(input);

  CompileOptions opts = QuantizedOptions();
  opts.quantize_dense = true;
  CompiledModel compiled = Compile(model, opts);
  int dense = 0;
  int quantized_dense = 0;
  for (int id = 0; id < compiled.graph().num_nodes(); ++id) {
    const Node& node = compiled.graph().node(id);
    if (node.type != OpType::kDense) {
      continue;
    }
    ++dense;
    EXPECT_TRUE(node.attrs.has_gemm) << node.name;
    if (node.attrs.qconv.enabled) {
      ++quantized_dense;
      EXPECT_EQ(node.attrs.gemm.dtype, DType::kU8) << node.name;
    } else {
      EXPECT_EQ(node.attrs.gemm.dtype, DType::kF32) << node.name;
    }
  }
  EXPECT_GT(dense, 0);
  EXPECT_GT(quantized_dense, 0);
  EXPECT_LE(Tensor::MaxAbsDiff(compiled.Run(input), expected), 0.05);
}

// ------------------------------------------------------------------ persistence

// A forced-quantize model's module (config fields, calibration) re-lowers to the same
// u8 state (zero points, per-input rescale params, tensor dtypes) bit-exactly.
TEST(U8Serialization, ModuleRoundTripsU8State) {
  Graph model = BuildResNet(18, 1, 64);
  Tensor input = InputFor(model);
  CompileOptions opts = QuantizedOptions();
  opts.calibration_policy = CalibrationPolicy::kPercentile;
  CompiledModel compiled = Compile(model, opts);
  ASSERT_GT(compiled.stats().num_quantized_convs, 0);
  const Tensor expected = compiled.Run(input);

  const std::string path = ::testing::TempDir() + "/u8_module.neoc";
  ASSERT_TRUE(SaveModule(compiled, path));
  CompiledModel loaded;
  ASSERT_TRUE(LoadModule(path, &loaded));
  EXPECT_EQ(loaded.config().calibration_policy, CalibrationPolicy::kPercentile);
  EXPECT_EQ(loaded.config().quantize_dense, false);
  ASSERT_EQ(loaded.graph().num_nodes(), compiled.graph().num_nodes());
  for (int id = 0; id < compiled.graph().num_nodes(); ++id) {
    const Node& a = compiled.graph().node(id);
    const Node& b = loaded.graph().node(id);
    EXPECT_EQ(a.attrs.qconv.in_zero, b.attrs.qconv.in_zero) << a.name;
    EXPECT_EQ(a.attrs.qconv.out_zero, b.attrs.qconv.out_zero) << a.name;
    EXPECT_EQ(a.attrs.qin_scales, b.attrs.qin_scales) << a.name;
    EXPECT_EQ(a.attrs.qin_zeros, b.attrs.qin_zeros) << a.name;
    EXPECT_EQ(a.out_dtype, b.out_dtype) << a.name;
  }
  EXPECT_EQ(Tensor::MaxAbsDiff(loaded.Run(input), expected), 0.0);
}

}  // namespace
}  // namespace neocpu
