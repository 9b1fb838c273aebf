#include "src/kernels/conv_im2col.h"

#include <cstring>

#include "src/base/logging.h"
#include "src/kernels/gemm_packed.h"
#include "src/tensor/tensor_check.h"

namespace neocpu {
namespace {

// Expands one image's receptive fields into col[IC*KH*KW, OH*OW].
void Im2col(const Conv2dParams& p, const float* in, float* col, ThreadEngine& eng) {
  const std::int64_t oh_count = p.OutH();
  const std::int64_t ow_count = p.OutW();
  const std::int64_t out_plane = oh_count * ow_count;
  const std::int64_t rows = p.in_c * p.kernel_h * p.kernel_w;
  ParallelFor(eng, rows, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t r = begin; r < end; ++r) {
      const std::int64_t kw = r % p.kernel_w;
      const std::int64_t kh = (r / p.kernel_w) % p.kernel_h;
      const std::int64_t ic = r / (p.kernel_w * p.kernel_h);
      const float* in_ch = in + ic * p.in_h * p.in_w;
      float* col_row = col + r * out_plane;
      for (std::int64_t oh = 0; oh < oh_count; ++oh) {
        const std::int64_t ih = oh * p.stride_h - p.pad_h + kh;
        float* dst = col_row + oh * ow_count;
        if (ih < 0 || ih >= p.in_h) {
          std::memset(dst, 0, static_cast<std::size_t>(ow_count) * sizeof(float));
          continue;
        }
        const float* in_row = in_ch + ih * p.in_w;
        for (std::int64_t ow = 0; ow < ow_count; ++ow) {
          const std::int64_t iw = ow * p.stride_w - p.pad_w + kw;
          dst[ow] = (iw >= 0 && iw < p.in_w) ? in_row[iw] : 0.0f;
        }
      }
    }
  });
}

// The GEMM C[out_c, out_plane] = W[out_c, k] * col[k, out_plane] runs on the packed
// kernel family at its default blocking — im2col is a baseline, so its GEMM is not
// schedule-searched, but it shares the register micro-kernels and ISA dispatch with
// the tuned dense path. ConvIm2colWorkspaceBytes and the kernel must agree on this
// schedule: the workspace is carved as [col | packed B | packed A].
GemmSchedule Im2colGemmSchedule() { return GemmSchedule{}; }

std::int64_t ColElems(const Conv2dParams& p) {
  return p.in_c * p.kernel_h * p.kernel_w * p.OutH() * p.OutW();
}

}  // namespace

std::size_t ConvIm2colWorkspaceBytes(const Conv2dParams& p) {
  const GemmSchedule s = Im2colGemmSchedule();
  const std::int64_t k = p.in_c * p.kernel_h * p.kernel_w;
  const std::int64_t out_plane = p.OutH() * p.OutW();
  return (static_cast<std::size_t>(ColElems(p)) + PackedBF32Elems(out_plane, k, s) +
          PackedAF32Elems(p.out_c, k, s)) *
         sizeof(float);
}

void ConvIm2col(const Conv2dParams& p, const Tensor& input, const Tensor& weight,
                const Tensor* bias, const Tensor* residual, const ConvEpilogue& epilogue,
                Tensor* output, ThreadEngine* engine, float* workspace) {
  const std::int64_t oh_count = p.OutH();
  const std::int64_t ow_count = p.OutW();
  CheckKernelInput(input, {p.batch, p.in_c, p.in_h, p.in_w}, "conv_im2col");
  CheckKernelOutput(output, {p.batch, p.out_c, oh_count, ow_count}, Layout::NCHW(),
                    "conv_im2col");
  ThreadEngine& eng = EngineOrSerial(engine);
  const GemmSchedule s = Im2colGemmSchedule();
  const std::int64_t out_plane = oh_count * ow_count;
  const std::int64_t k = p.in_c * p.kernel_h * p.kernel_w;
  Tensor ws_owned;  // fallback when the caller supplies no planned workspace
  if (workspace == nullptr) {
    ws_owned = Tensor::Empty(
        {static_cast<std::int64_t>(ConvIm2colWorkspaceBytes(p) / sizeof(float))});
    workspace = ws_owned.data();
  }
  float* col = workspace;
  float* packed_b = col + ColElems(p);
  float* packed_a = packed_b + PackedBF32Elems(out_plane, k, s);
  const float* bias_base = epilogue.bias && bias != nullptr ? bias->data() : nullptr;
  const float* res_base =
      epilogue.residual_add && residual != nullptr ? residual->data_as<float>() : nullptr;
  // The conv bias is per output channel — a per-M broadcast, which the GEMM epilogue
  // (per-N bias) cannot express; ReLU fuses into the GEMM only when it is the whole
  // epilogue.
  const bool fuse_relu = epilogue.relu && bias_base == nullptr && res_base == nullptr;
  const bool post_pass = bias_base != nullptr || res_base != nullptr;

  for (std::int64_t n = 0; n < p.batch; ++n) {
    const float* in_n = input.data() + n * p.in_c * p.in_h * p.in_w;
    float* out_n = output->data() + n * p.out_c * out_plane;
    Im2col(p, in_n, col, eng);
    PackBF32(col, out_plane, k, s, packed_b);
    GemmPackedF32(p.out_c, out_plane, k, weight.data(), packed_b, nullptr, fuse_relu,
                  out_n, s, packed_a, &eng);
    if (!post_pass) {
      continue;
    }

    ParallelFor(eng, p.out_c, [&](std::int64_t begin, std::int64_t end) {
      for (std::int64_t oc = begin; oc < end; ++oc) {
        float* row = out_n + oc * out_plane;
        const float b = bias_base != nullptr ? bias_base[oc] : 0.0f;
        const float* res_row =
            res_base != nullptr ? res_base + (n * p.out_c + oc) * out_plane : nullptr;
        for (std::int64_t i = 0; i < out_plane; ++i) {
          float v = row[i] + b;
          if (res_row != nullptr) {
            v += res_row[i];
          }
          if (epilogue.relu) {
            v = v > 0.0f ? v : 0.0f;
          }
          row[i] = v;
        }
      }
    });
  }
}

}  // namespace neocpu
