// Baseline instantiation + validation + threading + runtime ISA dispatch of the fp32
// NCHWc direct convolution. The baseline row driver compiles at the library's portable
// ISA; wider variants live in conv_nchwc_avx{2,512}.cc behind per-file flags, and this
// TU (always portable code itself) picks the widest one the running CPU supports.
#define NEOCPU_CONV_VARIANT_NS conv_f32_baseline
#define NEOCPU_CONV_ROWS_FN ConvF32RowsBaseline
#include "src/kernels/conv_nchwc_impl.h"

#include "src/kernels/conv_nchwc.h"

#include <algorithm>

#include "src/base/logging.h"
#include "src/kernels/isa_tiers.h"
#include "src/tensor/tensor_check.h"

namespace neocpu {
namespace detail {

#ifdef NEOCPU_HAVE_AVX2
void ConvF32RowsAvx2(const F32ConvArgs&, std::int64_t, std::int64_t);
#endif
#ifdef NEOCPU_HAVE_AVX512
void ConvF32RowsAvx512(const F32ConvArgs&, std::int64_t, std::int64_t);
#endif

namespace {

IsaTierTable<F32RowsFn>& Tiers() {
  static IsaTierTable<F32RowsFn> tiers({
#ifdef NEOCPU_HAVE_AVX512
      {IsaTier::kAvx512, &ConvF32RowsAvx512},
#endif
#ifdef NEOCPU_HAVE_AVX2
      {IsaTier::kAvx2, &ConvF32RowsAvx2},
#endif
      {IsaTier::kBaseline, &ConvF32RowsBaseline},
  });
  return tiers;
}

}  // namespace
}  // namespace detail

const char* ConvNCHWcIsaName() { return detail::Tiers().ActiveName(); }

bool SetConvNCHWcIsaOverride(const char* name) { return detail::Tiers().Pin(name); }

IsaTier ConvNCHWcHostTier() { return detail::Tiers().Widest(); }

void ConvNCHWc(const Conv2dParams& p, const ConvSchedule& s, const Tensor& input,
               const Tensor& weight, const Tensor* bias, const Tensor* residual,
               const ConvEpilogue& epilogue, Tensor* output, ThreadEngine* engine) {
  NEOCPU_CHECK_LE(s.reg_n, kMaxRegN);
  NEOCPU_CHECK_LE(s.oc_bn, kMaxChannelBlock);
  NEOCPU_CHECK_LE(s.ic_bn, kMaxChannelBlock);
  NEOCPU_CHECK_EQ(p.in_c % s.ic_bn, 0);
  NEOCPU_CHECK_EQ(p.out_c % s.oc_bn, 0);
  CheckKernelInput(input, {p.batch, p.in_c / s.ic_bn, p.in_h, p.in_w, s.ic_bn}, "conv_nchwc");
  NEOCPU_CHECK_EQ(weight.ndim(), 6);
  NEOCPU_CHECK_EQ(weight.dim(4), s.ic_bn);
  NEOCPU_CHECK_EQ(weight.dim(5), s.oc_bn);
  CheckKernelOutput(output, {p.batch, p.out_c / s.oc_bn, p.OutH(), p.OutW(), s.oc_bn},
                    Layout::NCHWc(s.oc_bn), "conv_nchwc");
  NEOCPU_CHECK(!epilogue.bias || bias != nullptr);
  NEOCPU_CHECK(!epilogue.residual_add || residual != nullptr);

  detail::F32ConvArgs d;
  d.n = p.batch;
  d.icb_count = p.in_c / s.ic_bn;
  d.ih = p.in_h;
  d.iw = p.in_w;
  d.icb = s.ic_bn;
  d.ocb_count = p.out_c / s.oc_bn;
  d.oh = p.OutH();
  d.ow = p.OutW();
  d.ocb = s.oc_bn;
  d.kh = p.kernel_h;
  d.kw = p.kernel_w;
  d.sh = p.stride_h;
  d.sw = p.stride_w;
  d.ph = p.pad_h;
  d.pw = p.pad_w;
  d.in_sh = d.iw * d.icb;
  d.in_sc = d.ih * d.in_sh;
  d.in_sn = d.icb_count * d.in_sc;
  d.w_sc = d.kh * d.kw * d.icb * d.ocb;
  d.w_so = d.icb_count * d.w_sc;
  d.out_sh = d.ow * d.ocb;
  d.out_sc = d.oh * d.out_sh;
  d.out_sn = d.ocb_count * d.out_sc;
  d.reg_n = s.reg_n;
  d.unroll_ker = s.unroll_ker;
  // Interior out_width range where no horizontal padding check is needed:
  //   iw0 = ow*sw - pw >= 0          => ow >= ceil(pw / sw)
  //   iw_last = ow*sw - pw + kw - 1 < iw  => ow <= (iw + pw - kw) / sw
  d.ow_lo = d.pw == 0 ? 0 : (d.pw + d.sw - 1) / d.sw;
  d.ow_hi = std::min(d.ow, (d.iw + d.pw - d.kw) / d.sw + 1);

  d.in = input.data();
  d.w = weight.data();
  d.bias = epilogue.bias ? bias->data() : nullptr;
  d.res = epilogue.residual_add ? residual->data() : nullptr;
  d.relu = epilogue.relu;
  d.out = output->data();

  const detail::F32RowsFn rows_fn = detail::Tiers().Active().fn;
  ThreadEngine& eng = EngineOrSerial(engine);
  // "for each disjoint chunk of OFMAP do  . parallel" — chunks are (n, oc_block, oh) rows.
  ParallelFor(eng, d.n * d.ocb_count * d.oh,
              [&](std::int64_t begin, std::int64_t end) { rows_fn(d, begin, end); });
}

}  // namespace neocpu
