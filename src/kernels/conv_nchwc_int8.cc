// Baseline instantiation + validation + runtime ISA dispatch of the s8 NCHWc direct
// convolution. The baseline row driver compiles at the library's portable ISA; wider
// variants live in conv_nchwc_int8_avx{2,512}.cc behind per-file flags, and this TU
// (always portable code itself) picks the widest one the running CPU supports.
#define NEOCPU_S8_VARIANT_NS s8_baseline
#define NEOCPU_S8_ROW_FN ConvS8RowBaseline
#include "src/kernels/conv_nchwc_int8_impl.h"

#include <cstring>

#include "src/base/logging.h"
#include "src/kernels/conv_nchwc_int8.h"
#include "src/kernels/isa_tiers.h"

namespace neocpu {
namespace detail {

#ifdef NEOCPU_HAVE_AVX2
void ConvS8RowAvx2(const S8ConvArgs&, std::int64_t);
#endif
#ifdef NEOCPU_HAVE_AVX512
void ConvS8RowAvx512(const S8ConvArgs&, std::int64_t);
#endif
#ifdef NEOCPU_HAVE_AVX512VNNI
void ConvS8RowAvx512Vnni(const S8ConvArgs&, std::int64_t);
#endif

namespace {

IsaTierTable<S8RowFn>& Tiers() {
  static IsaTierTable<S8RowFn> tiers({
#ifdef NEOCPU_HAVE_AVX512VNNI
      {IsaTier::kAvx512Vnni, &ConvS8RowAvx512Vnni},
#endif
#ifdef NEOCPU_HAVE_AVX512
      {IsaTier::kAvx512, &ConvS8RowAvx512},
#endif
#ifdef NEOCPU_HAVE_AVX2
      {IsaTier::kAvx2, &ConvS8RowAvx2},
#endif
      {IsaTier::kBaseline, &ConvS8RowBaseline},
  });
  return tiers;
}

}  // namespace
}  // namespace detail

const char* ConvNCHWcS8IsaName() { return detail::Tiers().ActiveName(); }

bool SetConvNCHWcS8IsaOverride(const char* name) { return detail::Tiers().Pin(name); }

void ConvNCHWcS8(const Conv2dParams& p, const ConvSchedule& s, const Tensor& input,
                 const Tensor& weight, const Tensor* bias, const Tensor& multiplier,
                 const ConvEpilogue& epilogue, bool requant, Tensor* output,
                 ThreadEngine* engine, std::int32_t out_zero, std::int32_t in_zero) {
  NEOCPU_CHECK(output != nullptr);
  const bool src_u8 = input.dtype() == DType::kU8;
  NEOCPU_CHECK(input.dtype() == DType::kS8 || src_u8) << input.DebugString();
  NEOCPU_CHECK(weight.dtype() == DType::kS8) << weight.DebugString();
  if (requant) {
    NEOCPU_CHECK(output->dtype() == DType::kS8 || output->dtype() == DType::kU8)
        << output->DebugString();
  } else {
    NEOCPU_CHECK(output->dtype() == DType::kF32) << output->DebugString();
  }
  // u8 activations pair with VNNI-packed weights: 4 consecutive input channels feed
  // one dot-product lane, so the channel block must split into quads.
  if (src_u8) {
    NEOCPU_CHECK_EQ(s.ic_bn % 4, 0) << "u8 conv requires ic_bn % 4 == 0";
  }
  NEOCPU_CHECK(multiplier.dtype() == DType::kF32);
  NEOCPU_CHECK_EQ(multiplier.NumElements(), p.out_c);
  NEOCPU_CHECK_EQ(input.ndim(), 5);
  NEOCPU_CHECK_EQ(weight.ndim(), 6);
  NEOCPU_CHECK_EQ(output->ndim(), 5);
  NEOCPU_CHECK(IsInt8Templated(s))
      << "int8 conv has no template instantiation for " << s.ToString();
  NEOCPU_CHECK_LE(s.ic_bn, kMaxChannelBlock);
  NEOCPU_CHECK_EQ(input.dim(4), s.ic_bn);
  NEOCPU_CHECK_EQ(output->dim(4), s.oc_bn);
  NEOCPU_CHECK_EQ(weight.dim(4), s.ic_bn);
  NEOCPU_CHECK_EQ(weight.dim(5), s.oc_bn);
  NEOCPU_CHECK_EQ(p.in_c % s.ic_bn, 0);
  NEOCPU_CHECK_EQ(p.out_c % s.oc_bn, 0);
  NEOCPU_CHECK(!epilogue.bias || (bias != nullptr && bias->dtype() == DType::kS32));
  NEOCPU_CHECK(!epilogue.residual_add) << "int8 conv does not fuse residual adds";

  detail::S8ConvArgs a;
  a.n = p.batch;
  a.icb_count = p.in_c / s.ic_bn;
  a.ih = p.in_h;
  a.iw = p.in_w;
  a.icb = s.ic_bn;
  a.ocb_count = p.out_c / s.oc_bn;
  a.oh = p.OutH();
  a.ow = p.OutW();
  a.ocb = s.oc_bn;
  a.kh = p.kernel_h;
  a.kw = p.kernel_w;
  a.sh = p.stride_h;
  a.sw = p.stride_w;
  a.ph = p.pad_h;
  a.pw = p.pad_w;
  a.in_sh = a.iw * a.icb;
  a.in_sc = a.ih * a.in_sh;
  a.in_sn = a.icb_count * a.in_sc;
  a.w_sc = a.kh * a.kw * a.icb * a.ocb;
  a.w_so = a.icb_count * a.w_sc;
  a.out_sh = a.ow * a.ocb;
  a.out_sc = a.oh * a.out_sh;
  a.out_sn = a.ocb_count * a.out_sc;
  a.reg_n = s.reg_n;
  a.unroll_ker = s.unroll_ker;
  // Interior out-width range where no horizontal padding check is needed (same bounds
  // as the fp32 template).
  a.ow_lo = a.pw == 0 ? 0 : (a.pw + a.sw - 1) / a.sw;
  const std::int64_t ow_hi_incl = (a.iw + a.pw - a.kw) / a.sw;
  a.ow_hi = a.ow < ow_hi_incl + 1 ? a.ow : ow_hi_incl + 1;

  a.in = reinterpret_cast<const std::int8_t*>(input.data());
  a.w = weight.data_as<std::int8_t>();
  a.bias = epilogue.bias ? bias->data_as<std::int32_t>() : nullptr;
  a.mult = multiplier.data_as<float>();
  a.relu = epilogue.relu;
  a.requant = requant;
  a.src_u8 = src_u8;
  a.in_zero = src_u8 ? in_zero : 0;
  std::memset(a.pad_col, a.in_zero, sizeof(a.pad_col));
  a.out_u8 = requant && output->dtype() == DType::kU8;
  a.out_zero = a.out_u8 ? out_zero : 0;
  a.out = output->data();

  const detail::S8RowFn row_fn = detail::Tiers().Active().fn;
  SerialEngine serial;
  ThreadEngine& eng = engine != nullptr ? *engine : static_cast<ThreadEngine&>(serial);
  const std::int64_t total_rows = a.n * a.ocb_count * a.oh;
  ParallelFor(eng, total_rows, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t row = begin; row < end; ++row) {
      row_fn(a, row);
    }
  });
}

}  // namespace neocpu
