#include "src/kernels/conv_ref.h"

#include <algorithm>

#include "src/base/logging.h"
#include "src/tensor/tensor_check.h"

namespace neocpu {

void ConvRefNCHW(const Conv2dParams& p, const Tensor& input, const Tensor& weight,
                 const Tensor* bias, const Tensor* residual, const ConvEpilogue& epilogue,
                 Tensor* output, ThreadEngine* engine) {
  const std::int64_t oh_count = p.OutH();
  const std::int64_t ow_count = p.OutW();
  CheckKernelInput(input, {p.batch, p.in_c, p.in_h, p.in_w}, "conv_ref");
  NEOCPU_CHECK_EQ(weight.ndim(), 4);
  CheckKernelOutput(output, {p.batch, p.out_c, oh_count, ow_count}, Layout::NCHW(),
                    "conv_ref");
  const float* in_base = input.data();
  const float* w_base = weight.data();
  const float* bias_base = epilogue.bias && bias != nullptr ? bias->data() : nullptr;
  const float* res_base =
      epilogue.residual_add && residual != nullptr ? residual->data() : nullptr;
  float* out_base = output->data();

  ThreadEngine& eng = EngineOrSerial(engine);

  const std::int64_t in_plane = p.in_h * p.in_w;
  const std::int64_t out_plane = oh_count * ow_count;

  ParallelFor(eng, p.batch * p.out_c, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t idx = begin; idx < end; ++idx) {
      const std::int64_t n = idx / p.out_c;
      const std::int64_t oc = idx % p.out_c;
      float* out_ch = out_base + idx * out_plane;
      const float init = bias_base != nullptr ? bias_base[oc] : 0.0f;
      std::fill(out_ch, out_ch + out_plane, init);

      for (std::int64_t ic = 0; ic < p.in_c; ++ic) {
        const float* in_ch = in_base + (n * p.in_c + ic) * in_plane;
        const float* w_ch = w_base + (oc * p.in_c + ic) * p.kernel_h * p.kernel_w;
        for (std::int64_t kh = 0; kh < p.kernel_h; ++kh) {
          for (std::int64_t kw = 0; kw < p.kernel_w; ++kw) {
            const float wv = w_ch[kh * p.kernel_w + kw];
            if (wv == 0.0f) {
              continue;
            }
            for (std::int64_t oh = 0; oh < oh_count; ++oh) {
              const std::int64_t ih = oh * p.stride_h - p.pad_h + kh;
              if (ih < 0 || ih >= p.in_h) {
                continue;
              }
              const float* in_row = in_ch + ih * p.in_w;
              float* out_row = out_ch + oh * ow_count;
              // Valid out_width range for this kw (unguarded, vectorizable inner loop).
              const std::int64_t lo =
                  std::max<std::int64_t>(0, (p.pad_w - kw + p.stride_w - 1) / p.stride_w);
              // Guard the numerator: truncation-toward-zero on a negative value would
              // yield hi=1 instead of 0 and read one element past the input row.
              const std::int64_t hi_num = p.in_w - 1 + p.pad_w - kw;
              const std::int64_t hi =
                  hi_num < 0
                      ? 0
                      : std::min<std::int64_t>(ow_count, hi_num / p.stride_w + 1);
              if (p.stride_w == 1) {
                const float* in_shift = in_row - p.pad_w + kw;
                for (std::int64_t ow = lo; ow < hi; ++ow) {
                  out_row[ow] += in_shift[ow] * wv;
                }
              } else {
                for (std::int64_t ow = lo; ow < hi; ++ow) {
                  out_row[ow] += in_row[ow * p.stride_w - p.pad_w + kw] * wv;
                }
              }
            }
          }
        }
      }

      if (res_base != nullptr) {
        const float* res_ch = res_base + idx * out_plane;
        for (std::int64_t i = 0; i < out_plane; ++i) {
          out_ch[i] += res_ch[i];
        }
      }
      if (epilogue.relu) {
        for (std::int64_t i = 0; i < out_plane; ++i) {
          out_ch[i] = out_ch[i] > 0.0f ? out_ch[i] : 0.0f;
        }
      }
    }
  });
}

}  // namespace neocpu
