// AlterOpLayout + LayoutTransform insertion/elimination (paper §3.2, Figure 2).
//
// Every convolution is lowered to the kernel its schedule names and carries that
// schedule: a direct schedule rewrites it to the NCHW[x]c template with its weight
// constant pre-transformed to OIHW[x]i[y]o at compile time, and an NCHW-layout
// algorithm (im2col, the reference loop) keeps NCHW. The blocked
// layout then propagates through layout-oblivious and layout-tolerant operations;
// LayoutTransform nodes are inserted only where the incoming layout differs from what a
// node requires:
//   * conv data input         -> NCHW[ic_bn]c (NCHW for the NCHW-layout algorithms)
//   * conv residual input     -> the conv's own output layout
//   * elemwise add / concat   -> all inputs follow the first input's layout
//   * layout-dependent ops    -> back to NCHW (Flatten, FlattenNHWC, ...)
//   * the quantize of an image -> NCHW; it writes its conv's NCHW[ic_bn]c itself
// Under LayoutPlacement::kPerOp the propagation is disabled: each conv converts its
// input from NCHW and converts its output back, which is what a framework delegating to
// a fixed kernel library does (Table 3 "Layout Opt." row).
// A dense with a GEMM schedule runs the packed GEMM on a weight pre-packed at compile
// time, in every layout mode; its data input is flat.
#include <algorithm>
#include <map>
#include <utility>

#include "src/base/logging.h"
#include "src/graph/passes/passes.h"
#include "src/graph/passes/rewriter.h"
#include "src/graph/shape_infer.h"
#include "src/kernels/gemm_packed.h"
#include "src/kernels/gemm_packed_int8.h"
#include "src/kernels/quantize.h"
#include "src/tensor/layout_transform.h"

namespace neocpu {
namespace {

bool IsLayoutTolerant(OpType type) {
  switch (type) {
    case OpType::kScaleShift:
    case OpType::kBatchNorm:
    case OpType::kRelu:
    case OpType::kMaxPool:
    case OpType::kAvgPool:
    case OpType::kGlobalAvgPool:
    case OpType::kDropout:
    case OpType::kQuantize:    // elementwise: the blocked layout flows through
    case OpType::kDequantize:
      return true;
    default:
      return false;
  }
}

bool IsLayoutDependent(OpType type) {
  switch (type) {
    case OpType::kFlatten:
    case OpType::kFlattenNHWC:
    case OpType::kDense:
    case OpType::kReshape:
    case OpType::kSoftmax:
    case OpType::kMultiboxDetection:
    case OpType::kLayerNorm:
    case OpType::kTranspose:
    case OpType::kMultiHeadAttention:
      return true;
    default:
      return false;
  }
}

// An OIHW weight with its input channels zero-padded to `in_c`, the channels a
// quad-padded u8 conv reads (Conv2dParams::QuadPadded); `w` itself when it has them.
Tensor PadInputChannels(const Tensor& w, std::int64_t in_c) {
  const std::int64_t i = w.dim(1);
  if (i == in_c) {
    return w;
  }
  const std::int64_t khw = w.dim(2) * w.dim(3);
  Tensor out = Tensor::Zeros({w.dim(0), in_c, w.dim(2), w.dim(3)}, Layout::OIHW());
  for (std::int64_t o = 0; o < w.dim(0); ++o) {
    std::copy(w.data() + o * i * khw, w.data() + (o + 1) * i * khw,
              out.data() + o * in_c * khw);
  }
  return out;
}

}  // namespace

Graph AlterConvLayout(const Graph& graph, const std::map<int, ConvSchedule>& schedules,
                      LayoutPlacement placement,
                      const std::map<int, GemmSchedule>& dense_schedules) {
  GraphRewriter rw(graph);

  // Inserts a LayoutTransform in the rewritten graph unless `mapped` already produces
  // `want` or an earlier transform of `mapped` to `want` exists (a block's data and
  // residual reads of one tensor share it).
  std::map<std::pair<int, Layout>, int> transforms;
  auto ensure_layout = [&rw, &transforms](int mapped, const Layout& want) -> int {
    const Layout& have = rw.dst().node(mapped).out_layout;
    if (have == want) {
      return mapped;
    }
    const auto [it, inserted] = transforms.try_emplace({mapped, want}, -1);
    if (inserted) {
      NodeAttrs attrs;
      attrs.dst_layout = want;
      it->second = rw.dst().AddNode(OpType::kLayoutTransform, {mapped}, std::move(attrs));
      rw.dst().node(it->second).out_layout = want;
    }
    return it->second;
  };

  // The conv weight constant in blocks (x, y), OIHW when both are 1: the source
  // constant itself when it already has them (Compile reblocks the weights it owns in
  // place, so a direct conv's blocked weight is its only copy), else a reblocked copy.
  auto weight_as = [&rw, &graph](const Node& node, std::int64_t x, std::int64_t y) -> int {
    const Tensor& w = graph.node(node.inputs[1]).payload;
    NEOCPU_CHECK(w.defined()) << node.name << ": conv weight must be constant";
    Tensor blocked = ReblockWeight(w, x, y);
    if (blocked.data() == w.data()) {
      return rw.Lookup(node.inputs[1]);
    }
    return rw.dst().AddConstant(std::move(blocked), node.name + ".w");
  };

  // A layout-dependent op reads its data input back in NCHW (a flat input needs no
  // transform) and produces a flat output.
  auto lower_layout_dependent = [&rw, &graph, &ensure_layout](int id, const Node& node) {
    std::vector<int> inputs;
    for (std::size_t i = 0; i < node.inputs.size(); ++i) {
      int mapped = rw.Lookup(node.inputs[i]);
      if (i == 0 && graph.node(node.inputs[0]).out_dims.size() == 4) {
        mapped = ensure_layout(mapped, Layout::NCHW());
      }
      inputs.push_back(mapped);
    }
    const int new_id = rw.dst().AddNode(node.type, std::move(inputs), node.attrs, node.name);
    rw.dst().node(new_id).out_layout = Layout::Flat();
    rw.MapTo(id, new_id);
  };

  for (int id = 0; id < graph.num_nodes(); ++id) {
    const Node& node = graph.node(id);
    switch (node.type) {
      case OpType::kConv2d: {
        const auto it = schedules.find(id);
        const ConvSchedule& sched =
            it != schedules.end() ? it->second : node.attrs.schedule;
        if (sched.IsQuantized()) {
          // Quantized direct template: the u8 data input blocks like the fp32 one; the
          // weight, s32 bias and per-channel epilogue multiplier are the layer's
          // QuantizeOperands, over the quad-padded input channels the conv's params
          // carry (a pad channel weighs 0, so the folded bias is unchanged). The s8
          // weight is then blocked and its tiles VNNI-packed, and the multiplier is the
          // last input, after the residual (blocked like the output) when there is one.
          NEOCPU_CHECK(node.attrs.qconv.enabled)
              << node.name << ": int8 schedule on an unquantized conv";
          const ConvQuant& qc = node.attrs.qconv;
          const int data =
              ensure_layout(rw.Lookup(node.inputs[0]), Layout::NCHWc(sched.ic_bn));
          const Tensor& w = graph.node(node.inputs[1]).payload;
          NEOCPU_CHECK(w.defined()) << node.name << ": conv weight must be constant";
          const Tensor* bias = nullptr;
          if (node.attrs.epilogue.bias) {
            bias = &graph.node(node.inputs[2]).payload;
            NEOCPU_CHECK(bias->defined()) << node.name << ": conv bias must be constant";
          }
          QuantizedOperands q =
              QuantizeOperands(PadInputChannels(ReblockWeight(w, 1, 1), node.attrs.conv.in_c),
                               bias, qc.in_scale, qc.in_zero,
                               qc.requant ? qc.out_scale : 1.0f);
          ReblockWeightInPlace(&q.weight, sched.ic_bn, sched.oc_bn);
          std::vector<int> inputs = {
              data, rw.dst().AddConstant(PackWeightsVnni(q.weight), node.name + ".w8")};
          NodeAttrs attrs = node.attrs;
          attrs.epilogue.bias = q.bias.defined();
          if (q.bias.defined()) {
            inputs.push_back(rw.dst().AddConstant(std::move(q.bias), node.name + ".b32"));
          }
          if (node.attrs.epilogue.residual_add) {
            inputs.push_back(ensure_layout(rw.Lookup(node.inputs.back()),
                                           Layout::NCHWc(sched.oc_bn)));
          }
          inputs.push_back(rw.dst().AddConstant(std::move(q.mult), node.name + ".m"));
          attrs.schedule = sched;
          const int new_id = rw.dst().AddNode(OpType::kConv2d, std::move(inputs),
                                              std::move(attrs), node.name);
          rw.dst().node(new_id).out_layout = Layout::NCHWc(sched.oc_bn);
          rw.MapTo(id, new_id);
          break;
        }
        // f32: the data (and any residual) arrive in the schedule's blocks, NCHW for
        // the NCHW-layout algorithms, and the weight constant is pre-transformed at
        // compile time (Figure 2's "Pre-transformed Kernel"): OIHW[x]i[y]o for the
        // NCHW[x]c template, plain OIHW otherwise.
        const Layout in_layout =
            sched.IsDirect() ? Layout::NCHWc(sched.ic_bn) : Layout::NCHW();
        const Layout out_layout =
            sched.IsDirect() ? Layout::NCHWc(sched.oc_bn) : Layout::NCHW();
        std::vector<int> inputs = {ensure_layout(rw.Lookup(node.inputs[0]), in_layout)};
        inputs.push_back(sched.IsDirect() ? weight_as(node, sched.ic_bn, sched.oc_bn)
                                          : weight_as(node, 1, 1));
        if (node.attrs.epilogue.bias) {
          inputs.push_back(rw.Lookup(node.inputs[2]));
        }
        if (node.attrs.epilogue.residual_add) {
          inputs.push_back(ensure_layout(rw.Lookup(node.inputs.back()), out_layout));
        }
        NodeAttrs attrs = node.attrs;
        attrs.schedule = sched;
        int new_id =
            rw.dst().AddNode(OpType::kConv2d, std::move(inputs), std::move(attrs), node.name);
        rw.dst().node(new_id).out_layout = out_layout;
        if (placement == LayoutPlacement::kPerOp) {
          new_id = ensure_layout(new_id, Layout::NCHW());
        }
        rw.MapTo(id, new_id);
        break;
      }
      case OpType::kDense: {
        const auto dit = dense_schedules.find(id);
        if (dit == dense_schedules.end()) {
          // An unscheduled dense (no constant 2-D f32 weight) runs Dense() and lowers
          // like any layout-dependent op.
          lower_layout_dependent(id, node);
          break;
        }
        // Packed-GEMM dense: the {Out, In} weight constant is pre-packed into the
        // kernel's [ceil(n/nr)][k][nr] panel layout at compile time (Figure 2's
        // pre-transformed-kernel idea applied to GEMM), and the node carries the
        // blocking schedule so dispatch needs no search.
        const GemmSchedule& sched = dit->second;
        const Tensor& w = graph.node(node.inputs[1]).payload;
        NEOCPU_CHECK(w.defined()) << node.name << ": dense weight must be constant";
        NEOCPU_CHECK_EQ(static_cast<int>(w.dims().size()), 2) << node.name;
        const std::int64_t n = w.dim(0);
        const std::int64_t kk = w.dim(1);
        const std::int64_t m = graph.node(node.inputs[0]).out_dims[0];  // a 2-D input
        NodeAttrs attrs = node.attrs;
        attrs.gemm = sched;
        attrs.dense = DenseParams{m, n, kk};
        attrs.has_gemm = true;
        std::vector<int> inputs = {rw.Lookup(node.inputs[0])};
        if (sched.IsQuantized()) {
          // u8 activations x s8 pre-packed weight, s32 accumulate: the layer's
          // QuantizeOperands with a 2-D weight, the multiplier appended last.
          NEOCPU_CHECK(attrs.qconv.enabled)
              << node.name << ": u8 gemm schedule on an unquantized dense";
          const ConvQuant& qc = attrs.qconv;
          const Tensor* bias = nullptr;
          if (node.inputs.size() > 2) {
            bias = &graph.node(node.inputs[2]).payload;
            NEOCPU_CHECK(bias->defined()) << node.name << ": dense bias must be constant";
          }
          QuantizedOperands q = QuantizeOperands(w, bias, qc.in_scale, qc.in_zero,
                                                 qc.requant ? qc.out_scale : 1.0f);
          Tensor packed = Tensor::Empty(
              {static_cast<std::int64_t>(PackedBS8Bytes(n, kk, sched))}, Layout::Flat(),
              DType::kS8);
          PackBS8FromTransposed(q.weight.data_as<std::int8_t>(), n, kk, sched,
                                packed.data_as<std::int8_t>());
          inputs.push_back(rw.dst().AddConstant(std::move(packed), node.name + ".w8p"));
          if (q.bias.defined()) {
            inputs.push_back(rw.dst().AddConstant(std::move(q.bias), node.name + ".b32"));
          }
          inputs.push_back(rw.dst().AddConstant(std::move(q.mult), node.name + ".m"));
        } else {
          Tensor packed = Tensor::Empty(
              {static_cast<std::int64_t>(PackedBF32Elems(n, kk, sched))}, Layout::Flat());
          PackBF32FromTransposed(w.data(), n, kk, sched, packed.data());
          inputs.push_back(rw.dst().AddConstant(std::move(packed), node.name + ".wp"));
          if (node.inputs.size() > 2) {
            inputs.push_back(rw.Lookup(node.inputs[2]));
          }
        }
        const int new_id = rw.dst().AddNode(OpType::kDense, std::move(inputs),
                                            std::move(attrs), node.name);
        rw.dst().node(new_id).out_layout = Layout::Flat();
        rw.MapTo(id, new_id);
        break;
      }
      case OpType::kElemAdd:
      case OpType::kConcat: {
        // All inputs adopt the first input's layout (paper §3.3.2). If the first input
        // is blocked but some input's channel count is not divisible by the block, fall
        // back to NCHW for the whole group.
        Layout want = rw.dst().node(rw.Lookup(node.inputs[0])).out_layout;
        if (want.kind == LayoutKind::kNCHWc) {
          for (int input : node.inputs) {
            if (graph.node(input).out_dims.size() != 4 ||
                graph.node(input).out_dims[1] % want.c_block != 0) {
              want = Layout::NCHW();
              break;
            }
          }
        }
        std::vector<int> inputs;
        for (int input : node.inputs) {
          int mapped = rw.Lookup(input);
          if (graph.node(input).out_dims.size() == 4) {
            mapped = ensure_layout(mapped, want);
          }
          inputs.push_back(mapped);
        }
        const int new_id =
            rw.dst().AddNode(node.type, std::move(inputs), node.attrs, node.name);
        rw.dst().node(new_id).out_layout =
            graph.node(node.inputs[0]).out_dims.size() == 4 ? want : Layout::Flat();
        rw.MapTo(id, new_id);
        break;
      }
      default: {
        if (node.type == OpType::kQuantize && node.attrs.dst_layout.IsBlockedFeatureMap()) {
          // The quantize of an image reads it as NCHW and writes its conv's blocks.
          const int new_id = rw.dst().AddNode(
              OpType::kQuantize, {ensure_layout(rw.Lookup(node.inputs[0]), Layout::NCHW())},
              node.attrs, node.name);
          rw.dst().node(new_id).out_layout = node.attrs.dst_layout;
          rw.MapTo(id, new_id);
          break;
        }
        if (IsLayoutTolerant(node.type)) {
          const int new_id = rw.CopyNode(node);
          rw.dst().node(new_id).out_layout =
              rw.dst().node(rw.dst().node(new_id).inputs[0]).out_layout;
          break;
        }
        if (IsLayoutDependent(node.type)) {
          lower_layout_dependent(id, node);
          break;
        }
        // Inputs, constants, pre-existing layout transforms.
        rw.CopyNode(node);
        break;
      }
    }
  }

  // Graph outputs are produced in NCHW (or flat): undo any trailing blocked layout.
  Graph out = rw.Finish();
  {
    std::vector<int> outputs = out.outputs();
    bool changed = false;
    for (int& o : outputs) {
      if (out.node(o).out_layout.kind == LayoutKind::kNCHWc) {
        NodeAttrs attrs;
        attrs.dst_layout = Layout::NCHW();
        const int t = out.AddNode(OpType::kLayoutTransform, {o}, std::move(attrs));
        out.node(t).out_layout = Layout::NCHW();
        o = t;
        changed = true;
      }
    }
    if (changed) {
      out.SetOutputs(std::move(outputs));
    }
  }
  InferShapes(&out);
  return out;
}

}  // namespace neocpu
