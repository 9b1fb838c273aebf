#include "src/base/logging.h"
#include "src/graph/passes/passes.h"
#include "src/graph/passes/rewriter.h"
#include "src/graph/shape_infer.h"
#include "src/kernels/batchnorm.h"

namespace neocpu {
namespace {

// Computes the inference-time (scale, shift) constants of a BatchNorm node from its
// constant statistics inputs (compile-time "pre-compute").
void BnConstants(const Graph& g, const Node& bn, Tensor* scale, Tensor* shift) {
  NEOCPU_CHECK_EQ(static_cast<int>(bn.inputs.size()), 5);
  const Tensor& gamma = g.node(bn.inputs[1]).payload;
  const Tensor& beta = g.node(bn.inputs[2]).payload;
  const Tensor& mean = g.node(bn.inputs[3]).payload;
  const Tensor& var = g.node(bn.inputs[4]).payload;
  NEOCPU_CHECK(gamma.defined()) << "BatchNorm statistics must be constants";
  ComputeBnScaleShift(gamma, beta, mean, var, bn.attrs.epsilon, scale, shift);
}

}  // namespace

Graph SimplifyInference(const Graph& graph) {
  const auto consumers = graph.BuildConsumerIndex();

  // Decide which BatchNorm nodes fold into their producing convolution: the BN's data
  // input must be a conv whose only consumer is that BN.
  std::vector<int> fold_bn_into_conv(static_cast<std::size_t>(graph.num_nodes()), -1);
  for (int id = 0; id < graph.num_nodes(); ++id) {
    const Node& node = graph.node(id);
    if (node.type != OpType::kBatchNorm) {
      continue;
    }
    const int producer = node.inputs[0];
    if (graph.node(producer).IsConv() &&
        consumers[static_cast<std::size_t>(producer)].size() == 1) {
      fold_bn_into_conv[static_cast<std::size_t>(id)] = producer;
    }
  }

  GraphRewriter rw(graph);
  for (int id = 0; id < graph.num_nodes(); ++id) {
    const Node& node = graph.node(id);
    switch (node.type) {
      case OpType::kDropout:
        // Identity at inference: consumers read the producer directly.
        rw.MapTo(id, rw.Lookup(node.inputs[0]));
        break;
      case OpType::kConv2d: {
        // Look ahead: if this conv's unique consumer is a foldable BatchNorm, scale the
        // weights and synthesize the bias now so the BN disappears entirely.
        int bn_id = -1;
        for (int c : consumers[static_cast<std::size_t>(id)]) {
          if (fold_bn_into_conv[static_cast<std::size_t>(c)] == id) {
            bn_id = c;
          }
        }
        if (bn_id < 0) {
          rw.CopyNode(node);
          break;
        }
        Tensor scale, shift;
        BnConstants(graph, graph.node(bn_id), &scale, &shift);
        // One pass writes w * s into a fresh tensor: this compile owns the result
        // (Compile may reblock it in place), the caller's weight is only read.
        const Tensor& w = graph.node(node.inputs[1]).payload;
        Tensor w_folded = Tensor::Empty(w.dims(), w.layout());
        const std::int64_t oc = w.dim(0);
        const std::int64_t per_oc = w.NumElements() / oc;
        for (std::int64_t o = 0; o < oc; ++o) {
          const float s = scale.data()[o];
          const float* src = w.data() + o * per_oc;
          float* dst = w_folded.data() + o * per_oc;
          for (std::int64_t i = 0; i < per_oc; ++i) {
            dst[i] = src[i] * s;
          }
        }
        Tensor bias_folded = shift.Clone();
        if (node.attrs.epilogue.bias) {
          const Tensor& old_bias = graph.node(node.inputs[2]).payload;
          for (std::int64_t o = 0; o < oc; ++o) {
            bias_folded.data()[o] += old_bias.data()[o] * scale.data()[o];
          }
        }
        NodeAttrs attrs = node.attrs;
        attrs.epilogue.bias = true;
        std::vector<int> inputs = {rw.Lookup(node.inputs[0]),
                                   rw.dst().AddConstant(std::move(w_folded), node.name + ".wf"),
                                   rw.dst().AddConstant(std::move(bias_folded),
                                                        node.name + ".bf")};
        if (attrs.epilogue.residual_add) {
          inputs.push_back(rw.Lookup(node.inputs.back()));
        }
        const int new_id =
            rw.dst().AddNode(OpType::kConv2d, std::move(inputs), std::move(attrs), node.name);
        rw.MapTo(id, new_id);
        break;
      }
      case OpType::kBatchNorm: {
        if (fold_bn_into_conv[static_cast<std::size_t>(id)] >= 0) {
          // Folded into the conv above; consumers read the conv's output.
          rw.MapTo(id, rw.Lookup(node.inputs[0]));
          break;
        }
        // Standalone BN (e.g. DenseNet pre-activation): lower to ScaleShift with
        // pre-computed constants.
        Tensor scale, shift;
        BnConstants(graph, node, &scale, &shift);
        std::vector<int> inputs = {
            rw.Lookup(node.inputs[0]),
            rw.dst().AddConstant(std::move(scale), node.name + ".scale"),
            rw.dst().AddConstant(std::move(shift), node.name + ".shift")};
        NodeAttrs attrs;
        attrs.relu = false;
        const int new_id = rw.dst().AddNode(OpType::kScaleShift, std::move(inputs),
                                            std::move(attrs), node.name);
        rw.MapTo(id, new_id);
        break;
      }
      default:
        rw.CopyNode(node);
        break;
    }
  }
  Graph out = rw.Finish();
  InferShapes(&out);
  return out;
}

}  // namespace neocpu
