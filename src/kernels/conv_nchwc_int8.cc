// Baseline instantiation + validation + runtime ISA dispatch of the u8·s8 NCHWc direct
// convolution. The baseline row driver compiles at the library's portable ISA; the
// VNNI variant lives in conv_nchwc_int8_avx512vnni.cc behind per-file flags, and this
// TU (always portable code itself) picks it when the running CPU supports it.
#define NEOCPU_CONV_VARIANT_NS s8_baseline
#define NEOCPU_S8_ROW_FN ConvS8RowBaseline
#include "src/kernels/conv_nchwc_int8_impl.h"

#include <cstring>

#include "src/base/logging.h"
#include "src/kernels/conv_nchwc_int8.h"
#include "src/kernels/isa_tiers.h"
#include "src/tensor/tensor_check.h"

namespace neocpu {
namespace detail {

#ifdef NEOCPU_HAVE_AVX512VNNI
void ConvS8RowAvx512Vnni(const S8ConvArgs&, std::int64_t);
#endif

namespace {

IsaTierTable<S8RowFn>& Tiers() {
  static IsaTierTable<S8RowFn> tiers({
#ifdef NEOCPU_HAVE_AVX512VNNI
      {IsaTier::kAvx512Vnni, &ConvS8RowAvx512Vnni},
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
                 ThreadEngine* engine, std::int32_t out_zero, std::int32_t in_zero,
                 const S8Residual& residual) {
  NEOCPU_CHECK(IsTemplated(s))
      << "int8 conv has no template instantiation for " << s.ToString();
  NEOCPU_CHECK_LE(s.ic_bn, kMaxChannelBlock);
  NEOCPU_CHECK_EQ(p.in_c % s.ic_bn, 0);
  NEOCPU_CHECK_EQ(p.out_c % s.oc_bn, 0);
  CheckKernelInput(input, {p.batch, p.in_c / s.ic_bn, p.in_h, p.in_w, s.ic_bn},
                   "conv_nchwc_s8");
  CheckKernelOutput(output, {p.batch, p.out_c / s.oc_bn, p.OutH(), p.OutW(), s.oc_bn},
                    Layout::NCHWc(s.oc_bn), "conv_nchwc_s8");
  NEOCPU_CHECK(input.dtype() == DType::kU8) << input.DebugString();
  NEOCPU_CHECK(weight.dtype() == DType::kS8) << weight.DebugString();
  NEOCPU_CHECK(output->dtype() == (requant ? DType::kU8 : DType::kF32))
      << output->DebugString();
  // VNNI-packed weights: 4 consecutive input channels feed one dot-product lane, so
  // the channel block must split into quads.
  NEOCPU_CHECK_EQ(s.ic_bn % 4, 0) << "int8 conv requires ic_bn % 4 == 0";
  NEOCPU_CHECK(multiplier.dtype() == DType::kF32);
  NEOCPU_CHECK_EQ(multiplier.NumElements(), p.out_c);
  NEOCPU_CHECK_EQ(weight.ndim(), 6);
  NEOCPU_CHECK_EQ(weight.dim(4), s.ic_bn);
  NEOCPU_CHECK_EQ(weight.dim(5), s.oc_bn);
  NEOCPU_CHECK(!epilogue.bias || (bias != nullptr && bias->dtype() == DType::kS32));
  NEOCPU_CHECK_EQ(epilogue.residual_add, residual.tensor != nullptr)
      << "conv_nchwc_s8: a residual tensor is required iff epilogue.residual_add";
  if (residual.tensor != nullptr) {
    CheckKernelInput(*residual.tensor, output->dims(), "conv_nchwc_s8 residual");
    NEOCPU_CHECK(residual.tensor->dtype() == DType::kU8 ||
                 (residual.tensor->dtype() == DType::kF32 && residual.zero == 0))
        << residual.tensor->DebugString();
  }

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

  a.in = input.data_as<std::uint8_t>();
  a.w = weight.data_as<std::int8_t>();
  a.bias = epilogue.bias ? bias->data_as<std::int32_t>() : nullptr;
  a.mult = multiplier.data_as<float>();
  a.relu = epilogue.relu;
  a.requant = requant;
  a.in_zero = in_zero;
  std::memset(a.pad_col, a.in_zero, sizeof(a.pad_col));
  a.out_zero = requant ? out_zero : 0;
  a.out = output->data();
  if (residual.tensor != nullptr) {
    a.res = residual.tensor->data();
    a.res_u8 = residual.tensor->dtype() == DType::kU8;
    a.res_mult = residual.mult;
    a.res_zero = residual.zero;
  }

  const detail::S8RowFn row_fn = detail::Tiers().Active().fn;
  ThreadEngine& eng = EngineOrSerial(engine);
  const std::int64_t total_rows = a.n * a.ocb_count * a.oh;
  ParallelFor(eng, total_rows, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t row = begin; row < end; ++row) {
      row_fn(a, row);
    }
  });
}

}  // namespace neocpu
