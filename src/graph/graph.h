// Computation-graph intermediate representation.
//
// A CNN model is a DAG of operation nodes (paper §2.2). Nodes are stored in topological
// order by construction (every input id is smaller than the node's own id), which is the
// order the executor and all passes walk. Constants (weights, BN statistics, anchors)
// carry their tensor payload; the compiler mutates payloads (folding, pre-transforming)
// without touching the runtime.
#ifndef NEOCPU_SRC_GRAPH_GRAPH_H_
#define NEOCPU_SRC_GRAPH_GRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/kernels/conv_params.h"
#include "src/kernels/conv_schedule.h"
#include "src/kernels/dense_params.h"
#include "src/kernels/gemm_schedule.h"
#include "src/kernels/multibox.h"
#include "src/kernels/pooling.h"
#include "src/tensor/tensor.h"

namespace neocpu {

enum class OpType {
  kInput,
  kConstant,
  kConv2d,
  kBatchNorm,    // unfolded BN (reference executor); compiler lowers to kScaleShift
  kScaleShift,   // per-channel affine (folded BN), optional fused ReLU
  kRelu,
  kMaxPool,
  kAvgPool,
  kGlobalAvgPool,
  kDense,
  kSoftmax,
  kElemAdd,      // optional fused ReLU
  kConcat,       // channel axis for 4-D/5-D inputs; last axis for flat inputs
  kFlatten,      // NCHW -> {N, CHW}; layout-dependent
  kFlattenNHWC,  // permute NCHW->NHWC then flatten; layout-dependent (SSD heads)
  kReshape,
  kDropout,      // identity at inference; removed by simplification
  kLayoutTransform,
  kMultiboxDetection,
  kQuantize,     // f32 -> u8 with a per-tensor scale and zero point
  kDequantize,   // u8 -> f32
  kLayerNorm,    // row-wise layer normalization with gamma/beta (transformer blocks)
  kTranspose,    // 2-D {M, N} -> {N, M} transpose on flat tensors
  kMultiHeadAttention,  // softmax(QK^T/sqrt(dh))V over {batch*seq, dim} Q/K/V inputs
};

const char* OpTypeName(OpType type);

// How a convolution node executes (bound by the compiler, not the model author).
// Enumerator values appear in serialized modules — append only.
enum class ConvKernelKind {
  kDirectNCHW,  // reference/baseline direct convolution in NCHW
  kIm2col,      // im2col + GEMM in NCHW (framework-default baseline)
  kNCHWc,       // Algorithm 1 template in NCHW[x]c
  kWinograd,    // F(2x2, 3x3) in NCHW; weights pre-transformed to {4, 4, OC, IC}
  kNCHWcS8,     // quantized u8xs8->s32 template in NCHW[x]c with fused (re/de)quant
};

// Quantization annotation of a conv (or dense) node (set by the QuantizeGraph pass;
// consumed by AlterConvLayout's weight pre-quantization and the runtime dispatch).
// Scales follow kernels/quantize.h: activations are affine u8
// (q = clamp(round(x/scale) + zp, 0, 255)). The input zero point never reaches the
// kernel's inner loop — AlterConvLayout folds the correction term
// (bias'[oc] -= in_zero * sum(w_s8[oc,...])) into the s32 bias constant.
struct ConvQuant {
  bool enabled = false;
  float in_scale = 1.0f;   // scale of the integer data input
  float out_scale = 1.0f;  // requantization scale of the integer output (iff requant)
  // true: the conv re-quantizes to an integer output (an integer consumer chain
  // follows); false: the epilogue dequantizes straight to f32 (no separate
  // kDequantize node needed).
  bool requant = true;
  std::int32_t in_zero = 0;   // zero point of the u8 data input
  std::int32_t out_zero = 0;  // zero point of the u8 output (iff requant)

  bool operator==(const ConvQuant&) const = default;
};

// One attribute bag serves all op types; only the fields relevant to a node's OpType are
// meaningful. (A few hundred nodes per model make the footprint irrelevant, and this
// keeps pass code free of variant plumbing.)
struct NodeAttrs {
  Conv2dParams conv;
  ConvEpilogue epilogue;
  ConvSchedule schedule;
  ConvKernelKind kernel = ConvKernelKind::kDirectNCHW;
  ConvQuant qconv;          // kConv2d / kDense under the quantized path
  float qscale = 1.0f;      // kQuantize / kDequantize per-tensor scale; for integer
                            // pooling/concat, the scale of the integer OUTPUT
  std::int32_t qzero = 0;   // zero point of that u8 tensor
  // Integer concat only: per-input (scale, zero point) of the incoming integer
  // tensors; the concat kernel rescales each input to (qscale, qzero) while copying.
  std::vector<float> qin_scales;
  std::vector<std::int32_t> qin_zeros;
  Pool2dParams pool;
  float epsilon = 1e-5f;
  bool relu = false;  // fused ReLU for kScaleShift / kElemAdd / kDense
  Layout dst_layout;  // kLayoutTransform target
  std::vector<std::int64_t> reshape_dims;
  MultiboxDetectionParams det;
  // kDense under the tuned packed-GEMM path (set by AlterConvLayout when the search
  // assigned a schedule): the blocking tuple, the workload shape (workspace sizing,
  // profiling), and the flag that routes dispatch to the packed kernels. Weights are
  // pre-packed into the panel layout at compile time when has_gemm is set.
  GemmSchedule gemm;
  DenseParams dense;
  bool has_gemm = false;
  // kMultiHeadAttention: head count and sequence length (rows = batch * seq).
  std::int64_t heads = 0;
  std::int64_t seq = 0;
};

struct Node {
  int id = -1;
  OpType type = OpType::kInput;
  std::string name;
  std::vector<int> inputs;
  NodeAttrs attrs;
  Tensor payload;  // kConstant only

  // Filled by shape/layout inference. out_dims are logical dims (NCHW semantics for
  // feature maps); out_layout describes the physical arrangement at runtime; out_dtype
  // the element type flowing out (u8 inside quantized conv chains, f32 elsewhere).
  std::vector<std::int64_t> out_dims;
  Layout out_layout = Layout::NCHW();
  DType out_dtype = DType::kF32;

  bool IsConv() const { return type == OpType::kConv2d; }
};

class Graph {
 public:
  int AddNode(OpType type, std::vector<int> inputs, NodeAttrs attrs = {},
              std::string name = {});
  int AddInput(std::vector<std::int64_t> dims, std::string name = "data");
  int AddConstant(Tensor value, std::string name = {});

  Node& node(int id) { return nodes_[static_cast<std::size_t>(id)]; }
  const Node& node(int id) const { return nodes_[static_cast<std::size_t>(id)]; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  void SetOutputs(std::vector<int> outputs) { outputs_ = std::move(outputs); }
  const std::vector<int>& outputs() const { return outputs_; }

  // consumers()[i] lists the node ids that read node i's output.
  std::vector<std::vector<int>> BuildConsumerIndex() const;

  // Count of nodes by type (used by tests and reporting).
  int CountNodes(OpType type) const;

  std::string ToString() const;

  std::string name;

 private:
  std::vector<Node> nodes_;
  std::vector<int> outputs_;
};

}  // namespace neocpu

#endif  // NEOCPU_SRC_GRAPH_GRAPH_H_
