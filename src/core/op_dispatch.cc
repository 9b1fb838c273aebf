#include "src/core/op_dispatch.h"

#include <thread>

#include "src/base/logging.h"
#include "src/kernels/batchnorm.h"
#include "src/kernels/conv_im2col.h"
#include "src/kernels/conv_nchwc.h"
#include "src/kernels/conv_nchwc_int8.h"
#include "src/kernels/conv_ref.h"
#include "src/kernels/conv_winograd.h"
#include "src/kernels/dense.h"
#include "src/kernels/elementwise.h"
#include "src/kernels/gemm_packed.h"
#include "src/kernels/gemm_packed_int8.h"
#include "src/kernels/transformer.h"
#include "src/kernels/multibox.h"
#include "src/kernels/pooling.h"
#include "src/kernels/quantize.h"
#include "src/tensor/layout_transform.h"

namespace neocpu {
namespace {

// Runs the convolution kernel `node`'s schedule names, writing into the preallocated
// `*out`; `workspace` backs kernel scratch — the im2col column buffer or Winograd's
// per-worker tile buffers.
void ExecuteConvInto(const Node& node, const std::vector<Tensor>& in, Tensor* out,
                     float* workspace, std::size_t workspace_bytes, ThreadEngine* engine) {
  const Conv2dParams& p = node.attrs.conv;
  const ConvEpilogue& epi = node.attrs.epilogue;
  const Tensor* bias = epi.bias ? &in[2] : nullptr;
  if (node.attrs.schedule.IsQuantized()) {
    // Inputs: {data u8, packed weight s8, [bias s32], [residual], multiplier f32} —
    // the multiplier is always last. A u8 residual carries the (scale, zero point) its
    // producer quantized with on qin_scales/qin_zeros; an f32 one has scale 1.
    const ConvQuant& q = node.attrs.qconv;
    S8Residual residual;
    if (epi.residual_add) {
      residual.tensor = &in[in.size() - 2];
      const bool u8 = residual.tensor->dtype() == DType::kU8;
      residual.mult =
          (u8 ? node.attrs.qin_scales.at(0) : 1.0f) / (q.requant ? q.out_scale : 1.0f);
      residual.zero = u8 ? node.attrs.qin_zeros.at(0) : 0;
    }
    ConvNCHWcS8(p, node.attrs.schedule, in[0], in[1], bias, in.back(), epi, q.requant, out,
                engine, q.out_zero, q.in_zero, residual);
    return;
  }
  const Tensor* residual = epi.residual_add ? &in.back() : nullptr;
  switch (node.attrs.schedule.algo) {
    case ConvAlgo::kReference:
      ConvRefNCHW(p, in[0], in[1], bias, residual, epi, out, engine);
      return;
    case ConvAlgo::kIm2col:
      ConvIm2col(p, in[0], in[1], bias, residual, epi, out, engine, workspace);
      return;
    case ConvAlgo::kDirectNCHWc:
      ConvNCHWc(p, node.attrs.schedule, in[0], in[1], bias, residual, epi, out, engine);
      return;
    case ConvAlgo::kWinograd:
      ConvWinograd(p, in[0], in[1], bias, epi, out, engine, workspace,
                   workspace_bytes / sizeof(float));
      return;
  }
  LOG(FATAL) << "unreachable";
}

// Packed-GEMM dense (attrs.has_gemm): the weight input is the pre-packed panel
// constant; `workspace` backs the packed-A panels when it is large enough for the
// executing row count.
void ExecuteDenseGemmInto(const Node& node, const std::vector<Tensor>& in, Tensor* out,
                          float* workspace, std::size_t workspace_bytes,
                          ThreadEngine* engine) {
  const GemmSchedule& s = node.attrs.gemm;
  const DenseParams& p = node.attrs.dense;
  const std::int64_t m = in[0].ndim() >= 2 ? in[0].dim(0) : 1;
  if (s.dtype == DType::kU8) {
    // Inputs: {data u8, packed weight s8, [bias s32], multiplier f32} (multiplier
    // last, the quantized-conv convention).
    const std::int32_t* bias = in.size() > 3 ? in[2].data_as<std::int32_t>() : nullptr;
    const bool requant = node.attrs.qconv.requant;
    std::uint8_t* ws = nullptr;
    if (workspace != nullptr && workspace_bytes >= PackedAU8Bytes(m, p.k, s)) {
      ws = reinterpret_cast<std::uint8_t*>(workspace);
    }
    GemmPackedU8S8(m, p.n, p.k, in[0].data_as<std::uint8_t>(),
                   in[1].data_as<std::int8_t>(), bias, in.back().data(),
                   node.attrs.relu, requant, node.attrs.qconv.out_zero,
                   static_cast<void*>(out->data()), s, ws, engine);
    return;
  }
  const float* bias = in.size() > 2 ? in[2].data() : nullptr;
  float* ws = nullptr;
  if (workspace != nullptr &&
      workspace_bytes >= PackedAF32Elems(m, p.k, s) * sizeof(float)) {
    ws = workspace;
  }
  GemmPackedF32(m, p.n, p.k, in[0].data(), in[1].data(), bias, node.attrs.relu,
                out->data(), s, ws, engine);
}

}  // namespace

void ExecuteNodeInto(const Node& node, const std::vector<Tensor>& in, Tensor* out,
                     float* workspace, std::size_t workspace_bytes, ThreadEngine* engine) {
  NEOCPU_CHECK(out != nullptr && out->defined());
  switch (node.type) {
    case OpType::kConv2d:
      ExecuteConvInto(node, in, out, workspace, workspace_bytes, engine);
      return;
    case OpType::kBatchNorm: {
      // Unsimplified (reference) graphs: fold the statistics on the fly.
      Tensor scale, shift;
      ComputeBnScaleShift(in[1], in[2], in[3], in[4], node.attrs.epsilon, &scale, &shift);
      ScaleShift(in[0], scale, shift, false, out, engine);
      return;
    }
    case OpType::kScaleShift:
      ScaleShift(in[0], in[1], in[2], node.attrs.relu, out, engine);
      return;
    case OpType::kRelu:
      Relu(in[0], out, engine);
      return;
    case OpType::kMaxPool:
    case OpType::kAvgPool:
      if (in[0].dtype() == DType::kU8) {
        PoolNCHWcInt(node.attrs.pool, in[0], node.attrs.qzero, out, engine);
      } else {
        Pool(node.attrs.pool, in[0], out, engine);
      }
      return;
    case OpType::kGlobalAvgPool:
      GlobalAvgPool(in[0], out, engine);
      return;
    case OpType::kDense:
      if (node.attrs.has_gemm) {
        ExecuteDenseGemmInto(node, in, out, workspace, workspace_bytes, engine);
      } else {
        Dense(in[0], in[1], in.size() > 2 ? &in[2] : nullptr, node.attrs.relu, out,
              engine);
      }
      return;
    case OpType::kSoftmax:
      Softmax(in[0], out, engine);
      return;
    case OpType::kElemAdd:
      AddElementwise(in[0], in[1], node.attrs.relu, out, engine);
      return;
    case OpType::kConcat:
      if (in[0].dtype() == DType::kU8) {
        ConcatChannelsInt(in, node.attrs.qin_scales, node.attrs.qin_zeros,
                          node.attrs.qscale, node.attrs.qzero, out, engine);
      } else {
        ConcatChannels(in, out, engine);
      }
      return;
    case OpType::kFlattenNHWC: {
      // The planner sizes the flat {N, C*H*W} output; the transform writes straight
      // into it through an NHWC-shaped view of the same bytes.
      Tensor nhwc = Tensor::FromExternal(
          out->data(), {in[0].dim(0), in[0].dim(2), in[0].dim(3), in[0].dim(1)},
          Layout::NHWC());
      TransformLayout(in[0], Layout::NHWC(), &nhwc, engine);
      return;
    }
    case OpType::kLayoutTransform:
      TransformLayout(in[0], node.attrs.dst_layout, out, engine);
      return;
    case OpType::kMultiboxDetection:
      MultiboxDetection(node.attrs.det, in[0], in[1], in[2], out, engine);
      return;
    case OpType::kQuantize:
      Quantize(in[0], node.attrs.qscale, node.attrs.qzero, out, engine);
      return;
    case OpType::kDequantize:
      Dequantize(in[0], node.attrs.qscale, node.attrs.qzero, out, engine);
      return;
    case OpType::kLayerNorm:
      LayerNormRows(in[0], in[1], in[2], node.attrs.epsilon, out, engine);
      return;
    case OpType::kTranspose:
      Transpose2D(in[0], out, engine);
      return;
    case OpType::kMultiHeadAttention: {
      // Workspace backs the per-(batch, head) score tiles.
      const std::int64_t rows = in[0].ndim() >= 2 ? in[0].dim(0) : 1;
      NEOCPU_CHECK_GE(workspace_bytes,
                      static_cast<std::size_t>(
                          MhaWorkspaceFloats(rows, node.attrs.seq, node.attrs.heads)) *
                          sizeof(float))
          << node.name << ": attention workspace too small";
      MultiHeadAttention(in[0], in[1], in[2], node.attrs.heads, node.attrs.seq, out,
                         workspace, engine);
      return;
    }
    default:
      break;
  }
  LOG(FATAL) << "ExecuteNodeInto: unsupported op " << OpTypeName(node.type) << " ("
             << node.name << ")";
}

int AliasedInput(const Node& node, const Graph& graph) {
  switch (node.type) {
    case OpType::kReshape:
    case OpType::kFlatten:
    case OpType::kDropout:
      return 0;
    case OpType::kLayoutTransform:
      // Identity transforms (source already in the destination layout) return their
      // input unchanged at runtime; the planner must treat them as views.
      return graph.node(node.inputs[0]).out_layout == node.attrs.dst_layout ? 0 : -1;
    default:
      return -1;
  }
}

Tensor AliasView(const Node& node, const std::vector<Tensor>& in) {
  switch (node.type) {
    case OpType::kFlatten:
      return FlattenNCHW(in[0]);
    case OpType::kReshape: {
      const auto& dims = node.attrs.reshape_dims;
      return in[0].Reshaped(dims, dims.size() == 4 ? Layout::NCHW() : Layout::Flat());
    }
    case OpType::kDropout:          // identity at inference
    case OpType::kLayoutTransform:  // identity transform (see AliasedInput)
      return in[0];
    default:
      break;
  }
  LOG(FATAL) << "AliasView: " << OpTypeName(node.type) << " (" << node.name
             << ") does not alias its input";
  return {};
}

int MaxPlannedWorkers() {
  static const int workers = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }();
  return workers;
}

std::size_t NodeWorkspaceBytes(const Node& node) {
  if (node.type == OpType::kDense && node.attrs.has_gemm) {
    // Packed-A panel buffer for the tuned GEMM.
    const DenseParams& p = node.attrs.dense;
    return node.attrs.gemm.dtype == DType::kU8
               ? PackedAU8Bytes(p.m, p.k, node.attrs.gemm)
               : PackedAF32Elems(p.m, p.k, node.attrs.gemm) * sizeof(float);
  }
  if (node.type == OpType::kMultiHeadAttention) {
    // Per-(batch, head) attention score tiles.
    const std::int64_t rows = node.out_dims.size() >= 2 ? node.out_dims[0] : 1;
    return static_cast<std::size_t>(
               MhaWorkspaceFloats(rows, node.attrs.seq, node.attrs.heads)) *
           sizeof(float);
  }
  if (node.type != OpType::kConv2d) {
    return 0;
  }
  switch (node.attrs.schedule.algo) {
    case ConvAlgo::kIm2col:
      return ConvIm2colWorkspaceBytes(node.attrs.conv);
    case ConvAlgo::kWinograd:
      return WinogradWorkspaceBytes(node.attrs.conv, MaxPlannedWorkers());
    default:
      return 0;
  }
}

std::vector<std::int64_t> PlannedOutputDims(const Node& node) {
  if (node.out_layout.kind == LayoutKind::kNCHWc) {
    NEOCPU_CHECK_EQ(node.out_dims.size(), 4u)
        << node.name << ": blocked layout on non-4D logical shape";
    const std::int64_t x = node.out_layout.c_block;
    NEOCPU_CHECK_GT(x, 0);
    NEOCPU_CHECK_EQ(node.out_dims[1] % x, 0)
        << node.name << ": channels " << node.out_dims[1] << " not divisible by " << x;
    return {node.out_dims[0], node.out_dims[1] / x, node.out_dims[2], node.out_dims[3], x};
  }
  return node.out_dims;
}

Layout PlannedOutputLayout(const Node& node) {
  return node.out_dims.size() >= 4 ? node.out_layout : Layout::Flat();
}

}  // namespace neocpu
