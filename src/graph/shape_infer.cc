#include "src/graph/shape_infer.h"

#include "src/base/logging.h"

namespace neocpu {

void InferNodeShape(Graph* graph, int id) {
  {
    Node& node = graph->node(id);
    auto in_dims = [&](int i) -> const std::vector<std::int64_t>& {
      return graph->node(node.inputs[static_cast<std::size_t>(i)]).out_dims;
    };
    switch (node.type) {
      case OpType::kInput:
      case OpType::kConstant:
        NEOCPU_CHECK(!node.out_dims.empty()) << node.name << ": missing dims";
        break;
      case OpType::kConv2d: {
        const Conv2dParams& p = node.attrs.conv;
        const auto& d = in_dims(0);
        NEOCPU_CHECK_EQ(static_cast<int>(d.size()), 4) << node.name;
        NEOCPU_CHECK_EQ(d[1], p.in_c) << node.name;
        NEOCPU_CHECK_EQ(d[2], p.in_h) << node.name;
        NEOCPU_CHECK_EQ(d[3], p.in_w) << node.name;
        node.out_dims = {d[0], p.out_c, p.OutH(), p.OutW()};
        break;
      }
      case OpType::kBatchNorm:
      case OpType::kScaleShift:
      case OpType::kRelu:
      case OpType::kDropout:
        node.out_dims = in_dims(0);
        break;
      case OpType::kMaxPool:
      case OpType::kAvgPool: {
        const Pool2dParams& p = node.attrs.pool;
        const auto& d = in_dims(0);
        NEOCPU_CHECK_EQ(static_cast<int>(d.size()), 4) << node.name;
        node.out_dims = {d[0], d[1], p.OutH(d[2]), p.OutW(d[3])};
        break;
      }
      case OpType::kGlobalAvgPool: {
        const auto& d = in_dims(0);
        node.out_dims = {d[0], d[1], 1, 1};
        break;
      }
      case OpType::kDense: {
        const auto& d = in_dims(0);
        NEOCPU_CHECK_EQ(static_cast<int>(d.size()), 2) << node.name;
        if (node.attrs.has_gemm) {
          // Tuned packed-GEMM dense: the weight constant is a flat pre-packed panel
          // buffer, so the logical {N, K} shape lives in attrs.dense instead.
          NEOCPU_CHECK_EQ(d[1], node.attrs.dense.k) << node.name;
          node.out_dims = {d[0], node.attrs.dense.n};
          break;
        }
        const auto& w = in_dims(1);
        NEOCPU_CHECK_EQ(d[1], w[1]) << node.name;
        node.out_dims = {d[0], w[0]};
        break;
      }
      case OpType::kSoftmax:
        node.out_dims = in_dims(0);
        break;
      case OpType::kElemAdd:
        NEOCPU_CHECK(in_dims(0) == in_dims(1)) << node.name;
        node.out_dims = in_dims(0);
        break;
      case OpType::kConcat: {
        const auto& first = in_dims(0);
        node.out_dims = first;
        const std::size_t axis = first.size() == 4 ? 1 : first.size() - 1;
        std::int64_t total = 0;
        for (std::size_t i = 0; i < node.inputs.size(); ++i) {
          const auto& d = in_dims(static_cast<int>(i));
          NEOCPU_CHECK_EQ(d.size(), first.size()) << node.name;
          total += d[axis];
        }
        node.out_dims[axis] = total;
        break;
      }
      case OpType::kFlatten:
      case OpType::kFlattenNHWC: {
        const auto& d = in_dims(0);
        NEOCPU_CHECK_EQ(static_cast<int>(d.size()), 4) << node.name;
        node.out_dims = {d[0], d[1] * d[2] * d[3]};
        break;
      }
      case OpType::kReshape: {
        std::int64_t total = 1;
        for (std::int64_t v : in_dims(0)) {
          total *= v;
        }
        std::int64_t given = 1;
        for (std::int64_t v : node.attrs.reshape_dims) {
          given *= v;
        }
        NEOCPU_CHECK_EQ(total, given) << node.name;
        node.out_dims = node.attrs.reshape_dims;
        break;
      }
      case OpType::kLayoutTransform:
        node.out_dims = in_dims(0);
        break;
      case OpType::kMultiboxDetection:
        node.out_dims = {node.attrs.det.keep_top_k, 6};
        break;
      case OpType::kQuantize:
      case OpType::kDequantize:
        node.out_dims = in_dims(0);
        break;
      case OpType::kLayerNorm:
      case OpType::kMultiHeadAttention:
        node.out_dims = in_dims(0);
        break;
      case OpType::kTranspose: {
        const auto& d = in_dims(0);
        NEOCPU_CHECK_EQ(static_cast<int>(d.size()), 2) << node.name;
        node.out_dims = {d[1], d[0]};
        break;
      }
    }
  }
  // Dtype inference: u8 enters at kQuantize (or a quantized conv's requantizing
  // epilogue), leaves at kDequantize (or a dequantizing epilogue), and flows through
  // layout transforms and the integer-native structural ops (pooling, concat — the
  // QuantizeGraph pass only routes integer tensors into them when it rewrote them to
  // execute in the integer domain); every other op produces f32.
  {
    Node& node = graph->node(id);
    auto in_dtype = [&](int i) {
      return graph->node(node.inputs[static_cast<std::size_t>(i)]).out_dtype;
    };
    switch (node.type) {
      case OpType::kInput:
        node.out_dtype = DType::kF32;
        break;
      case OpType::kConstant:
        node.out_dtype = node.payload.dtype();
        break;
      case OpType::kQuantize:
        node.out_dtype = DType::kU8;
        break;
      case OpType::kDequantize:
        node.out_dtype = DType::kF32;
        break;
      case OpType::kConv2d:
      case OpType::kDense:
        node.out_dtype = node.attrs.qconv.enabled && node.attrs.qconv.requant
                             ? DType::kU8
                             : DType::kF32;
        break;
      case OpType::kLayoutTransform:
      case OpType::kMaxPool:
      case OpType::kAvgPool:
      case OpType::kConcat:
        node.out_dtype = in_dtype(0);
        break;
      default:
        node.out_dtype = DType::kF32;
        break;
    }
  }
}

void InferShapes(Graph* graph) {
  for (int id = 0; id < graph->num_nodes(); ++id) {
    InferNodeShape(graph, id);
  }
}

bool RebindBatchDim(Graph* graph, std::int64_t batch) {
  if (batch < 1) {
    return false;
  }
  std::int64_t old_batch = -1;
  for (int id = 0; id < graph->num_nodes(); ++id) {
    const Node& node = graph->node(id);
    switch (node.type) {
      case OpType::kInput:
        if (node.out_dims.empty()) {
          return false;
        }
        if (old_batch < 0) {
          old_batch = node.out_dims[0];
        } else if (node.out_dims[0] != old_batch) {
          return false;
        }
        break;
      case OpType::kMultiboxDetection:
        return false;  // emits {keep_top_k, 6} regardless of N; cannot batch
      case OpType::kReshape:
        // Rebinding scales every tensor's leading dim, so a reshape is only
        // batch-preserving when its leading target dim carries the batch — i.e. is a
        // multiple of it (then scaling it proportionally keeps per-sample rows intact;
        // transformer graphs reshape {B, S*D} <-> {B*S, D} and both directions pass).
        // Anything else would trip shape inference's element-count check fatally
        // mid-serve; refuse up front instead. Inputs precede their consumers in
        // topological order, so old_batch is known here.
        if (node.attrs.reshape_dims.empty() ||
            node.attrs.reshape_dims[0] % old_batch != 0) {
          return false;
        }
        break;
      default:
        break;
    }
  }
  if (old_batch < 0) {
    return false;
  }
  if (old_batch == batch) {
    return true;
  }
  for (int id = 0; id < graph->num_nodes(); ++id) {
    Node& node = graph->node(id);
    if (node.type == OpType::kInput) {
      node.out_dims[0] = batch;
    } else if (node.type == OpType::kConv2d) {
      // The conv kernels size their output and outer loop from the workload descriptor,
      // not the incoming tensor, so the baked batch must follow the graph's.
      node.attrs.conv.batch = batch;
    } else if (node.type == OpType::kReshape && !node.attrs.reshape_dims.empty() &&
               node.attrs.reshape_dims[0] % old_batch == 0) {
      node.attrs.reshape_dims[0] = node.attrs.reshape_dims[0] / old_batch * batch;
    } else if (node.type == OpType::kDense && node.attrs.has_gemm) {
      // Packed-dense row count follows the leading dim (rows are batch-proportional:
      // either the batch itself or batch*seq inside a transformer block).
      node.attrs.dense.m = node.attrs.dense.m / old_batch * batch;
    }
  }
  InferShapes(graph);
  return true;
}

}  // namespace neocpu
