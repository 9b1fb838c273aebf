// Post-training quantization pass (see passes.h for the contract).
//
// The pass runs AFTER schedule selection: the local search ranked the u8 space next to
// the fp32 space, and the global DP/PBQP weighed per-conv integer gains against
// quantize/dequantize boundary costs — so by the time we are here, "which convs run
// int8" is simply "whose chosen schedule says u8". The rewrite inserts the minimal
// Q/DQ boundary ops in three sweeps:
//
//   1. forward `can_int`: which non-conv nodes COULD execute in the integer domain were
//      their inputs integer (pooling always; concat when its own output range was
//      calibrated, since rescaling inputs to a common code needs the output range);
//   2. backward `demand`: whether some consumer reads a tensor as u8. A quantized conv
//      or u8 dense demands its data input; an integer-capable pool/concat forwards its
//      own demand to its inputs. Demand is what makes a conv requantize (produce
//      integer) instead of fusing the free dequantize into its epilogue: an integer
//      tensor is only ever materialized when something downstream consumes it as
//      integer;
//   3. topological rewrite tracking the ACTUAL (scale, zero point) of every rewritten
//      u8 tensor. Integer consumers read the producer's integer output directly with
//      the producer's tracked parameters (which, through a pooling chain, are the
//      parameters of the conv BEFORE the pool — not this tensor's own calibration
//      entry); f32 consumers trigger a lazily created kDequantize. Q nodes are shared
//      per source so inception-style fan-outs convert a feature map once.
//
// Adjacent quantized convs — now also across pooling and concat — connect directly in
// the integer domain: the DQ->Q cancellation of IntelCaffe's pipeline, performed
// constructively instead of as a peephole.
#include <utility>
#include <vector>

#include "src/base/logging.h"
#include "src/graph/passes/passes.h"
#include "src/graph/passes/rewriter.h"
#include "src/graph/shape_infer.h"
#include "src/kernels/quantize.h"

namespace neocpu {

const char* CalibrationPolicyName(CalibrationPolicy policy) {
  switch (policy) {
    case CalibrationPolicy::kMinMax:
      return "minmax";
    case CalibrationPolicy::kPercentile:
      return "percentile";
    case CalibrationPolicy::kEntropy:
      return "entropy";
  }
  return "unknown";
}

bool QuantizeLegal(const Graph& graph, int id, const CalibrationTable& calibration) {
  const Node& node = graph.node(id);
  if (!node.IsConv()) {
    return false;
  }
  const Node& weight = graph.node(node.inputs[1]);
  if (!weight.payload.defined() || weight.payload.dtype() != DType::kF32) {
    return false;
  }
  // Pad channels come from the one pass that writes them, the quantize of the image.
  if (node.attrs.conv.QuadPadded() != node.attrs.conv &&
      graph.node(node.inputs[0]).type != OpType::kInput) {
    return false;
  }
  return calibration.count(node.inputs[0]) > 0 && calibration.count(id) > 0;
}

Graph QuantizeGraph(const Graph& graph, const CalibrationTable& calibration,
                    std::map<int, ConvSchedule>* schedules,
                    std::map<int, GemmSchedule>* dense_schedules) {
  NEOCPU_CHECK(schedules != nullptr);
  const int n = graph.num_nodes();

  // Tuned-GEMM schedule of a dense node, if the search assigned one.
  auto tuned_dense = [&](int id) -> const GemmSchedule* {
    if (dense_schedules == nullptr) {
      return nullptr;
    }
    const auto it = dense_schedules->find(id);
    return it == dense_schedules->end() ? nullptr : &it->second;
  };

  // The quantized set: convs whose chosen schedule is integer AND that are legal (the
  // selection layers only offer integer options to legal convs; re-check defensively).
  auto quantized = [&](int id) {
    const auto it = schedules->find(id);
    return it != schedules->end() && it->second.IsQuantized() &&
           QuantizeLegal(graph, id, calibration);
  };
  // Dense nodes on a u8 tuned GEMM with a constant f32 weight and a calibrated input.
  auto dense_quantized = [&](int id) {
    const GemmSchedule* gs = tuned_dense(id);
    const Node& node = graph.node(id);
    if (gs == nullptr || gs->dtype != DType::kU8 || node.inputs.size() < 2) {
      return false;
    }
    const Node& weight = graph.node(node.inputs[1]);
    return weight.payload.defined() && weight.payload.dtype() == DType::kF32 &&
           calibration.count(node.inputs[0]) > 0;
  };

  // Sweep 1 (forward): structural integer feasibility.
  std::vector<char> can_int(static_cast<std::size_t>(n), 0);
  for (int id = 0; id < n; ++id) {
    const Node& node = graph.node(id);
    switch (node.type) {
      case OpType::kConv2d:
        can_int[static_cast<std::size_t>(id)] = quantized(id) ? 1 : 0;
        break;
      case OpType::kMaxPool:
      case OpType::kAvgPool:
        can_int[static_cast<std::size_t>(id)] =
            can_int[static_cast<std::size_t>(node.inputs[0])];
        break;
      case OpType::kConcat: {
        bool all = calibration.count(id) > 0;
        for (int in : node.inputs) {
          all = all && can_int[static_cast<std::size_t>(in)] != 0;
        }
        can_int[static_cast<std::size_t>(id)] = all ? 1 : 0;
        break;
      }
      default:
        break;
    }
  }

  // Sweep 2 (backward): u8 demand per tensor.
  std::vector<char> demand(static_cast<std::size_t>(n), 0);
  for (int id = n - 1; id >= 0; --id) {
    const Node& node = graph.node(id);
    if ((node.IsConv() && quantized(id)) || dense_quantized(id)) {
      demand[static_cast<std::size_t>(node.inputs[0])] = 1;
    } else if ((node.type == OpType::kMaxPool || node.type == OpType::kAvgPool ||
                node.type == OpType::kConcat) &&
               can_int[static_cast<std::size_t>(id)] != 0 &&
               demand[static_cast<std::size_t>(id)] != 0) {
      for (int in : node.inputs) {
        demand[static_cast<std::size_t>(in)] = 1;
      }
    }
  }

  // Sweep 3: the rewrite. `qinfo` tracks the actual integer identity of every rewritten
  // source node's output — integer consumers read `int_id`, f32 consumers go through a
  // lazily shared kDequantize (created only when a f32 reader exists; `MapTo` then
  // points at the DQ so plain CopyNode consumers pick it up).
  struct QInfo {
    bool integer = false;  // false: plain f32 tensor, remaining fields unused
    float scale = 1.0f;
    std::int32_t zero = 0;
    int int_id = -1;  // rewritten-graph id of the u8 tensor
    int dq_id = -1;   // rewritten-graph id of its dequantize, once demanded
  };
  std::vector<QInfo> qinfo(static_cast<std::size_t>(n));

  GraphRewriter rw(graph);
  std::map<int, ConvSchedule> remapped;
  std::map<int, GemmSchedule> remapped_dense;
  // One kQuantize per f32 source: quantized convs sharing a producer (and therefore a
  // calibrated range) share the quantize pass and its u8 buffer instead of
  // re-converting the feature map per branch (inception-style fan-out).
  std::map<int, int> quantize_nodes;

  auto ensure_f32 = [&](int orig) {
    QInfo& qi = qinfo[static_cast<std::size_t>(orig)];
    if (!qi.integer) {
      return;  // Lookup already points at an f32 node
    }
    if (qi.dq_id < 0) {
      NodeAttrs dqattrs;
      dqattrs.qscale = qi.scale;
      dqattrs.qzero = qi.zero;
      const Node& producer = rw.dst().node(qi.int_id);
      const Layout layout = producer.out_layout;
      qi.dq_id = rw.dst().AddNode(OpType::kDequantize, {qi.int_id}, std::move(dqattrs),
                                  producer.name + ".dq");
      rw.dst().node(qi.dq_id).out_layout = layout;
    }
    rw.MapTo(orig, qi.dq_id);
  };

  // The u8 data input of quantized node `node`: the producer's integer tensor when
  // there is one, otherwise a (shared) quantize of the f32 source. The quantize of an
  // image a conv reads writes that conv's input blocks straight from NCHW, its
  // channels padded at the zero point to whole blocks (what QuadPadded convs read).
  auto u8_input = [&](const Node& node, const ConvSchedule* sched) {
    const int src = node.inputs[0];
    QInfo in = qinfo[static_cast<std::size_t>(src)];
    if (in.integer) {
      return in;
    }
    AffineScaleZeroPoint(calibration.at(src).min, calibration.at(src).max, &in.scale,
                         &in.zero);
    const int fsrc = rw.Lookup(src);
    if (const auto it = quantize_nodes.find(fsrc); it != quantize_nodes.end()) {
      in.int_id = it->second;  // a sibling quantized node already converted this tensor
      return in;
    }
    Layout out_layout = rw.dst().node(fsrc).out_layout;
    NodeAttrs qattrs;
    qattrs.qscale = in.scale;
    qattrs.qzero = in.zero;
    if (sched != nullptr && graph.node(src).type == OpType::kInput) {
      out_layout = Layout::NCHWc(sched->ic_bn);
      qattrs.dst_layout = out_layout;
    }
    in.int_id = rw.dst().AddNode(OpType::kQuantize, {fsrc}, std::move(qattrs),
                                 node.name + ".q");
    rw.dst().node(in.int_id).out_layout = out_layout;
    quantize_nodes.emplace(fsrc, in.int_id);
    return in;
  };

  // The residual a quantized conv adds in its epilogue (sum fusion): the producer's
  // integer tensor when there is one, else the codes of an existing quantize of the f32
  // source, else the f32 tensor. An integer read records its (scale, zero point) on
  // qin_scales/qin_zeros.
  auto residual_input = [&](int src, NodeAttrs* attrs) {
    const QInfo& q = qinfo[static_cast<std::size_t>(src)];
    if (q.integer) {
      attrs->qin_scales = {q.scale};
      attrs->qin_zeros = {q.zero};
      return q.int_id;
    }
    const int fsrc = rw.Lookup(src);
    const auto it = quantize_nodes.find(fsrc);
    if (it == quantize_nodes.end()) {
      return fsrc;
    }
    const NodeAttrs& qattrs = rw.dst().node(it->second).attrs;
    attrs->qin_scales = {qattrs.qscale};
    attrs->qin_zeros = {qattrs.qzero};
    return it->second;
  };

  // Rewrites quantized conv or dense `id` onto its u8 input. The output requantizes
  // to u8 iff `requant` (something downstream reads it as integer); otherwise the
  // epilogue dequantizes to f32. Returns the rewritten node id.
  auto add_quantized = [&](int id, bool requant) {
    const Node& node = graph.node(id);
    const QInfo in = u8_input(node, node.IsConv() ? &schedules->at(id) : nullptr);
    NodeAttrs attrs = node.attrs;
    if (node.IsConv()) {
      attrs.conv = attrs.conv.QuadPadded();
    }
    attrs.qconv.enabled = true;
    attrs.qconv.in_scale = in.scale;
    attrs.qconv.in_zero = in.zero;
    attrs.qconv.requant = requant;
    QInfo out;
    if (requant) {
      out.integer = true;
      AffineScaleZeroPoint(calibration.at(id).min, calibration.at(id).max, &out.scale,
                           &out.zero);
      attrs.qconv.out_scale = out.scale;
      attrs.qconv.out_zero = out.zero;
    }
    std::vector<int> inputs = {in.int_id};
    for (std::size_t i = 1; i < node.inputs.size(); ++i) {
      inputs.push_back(rw.Lookup(node.inputs[i]));
    }
    if (node.IsConv() && node.attrs.epilogue.residual_add) {
      inputs.back() = residual_input(node.inputs.back(), &attrs);
    }
    const int new_id =
        rw.dst().AddNode(node.type, std::move(inputs), std::move(attrs), node.name);
    rw.dst().node(new_id).out_layout = node.out_layout;
    rw.MapTo(id, new_id);
    if (requant) {
      out.int_id = new_id;
      qinfo[static_cast<std::size_t>(id)] = out;
    }
    return new_id;
  };

  for (int id = 0; id < n; ++id) {
    const Node& node = graph.node(id);
    const std::size_t sid = static_cast<std::size_t>(id);

    if (node.IsConv() && quantized(id)) {
      remapped[add_quantized(id, demand[sid] != 0)] = schedules->at(id);
      continue;
    }

    if ((node.type == OpType::kMaxPool || node.type == OpType::kAvgPool) &&
        can_int[sid] != 0 && demand[sid] != 0 &&
        qinfo[static_cast<std::size_t>(node.inputs[0])].integer) {
      // Integer pooling: the codes pass through (max is order-preserving; avg
      // accumulates in s32 around the zero point), so the output keeps the input's
      // quantization parameters — recorded on the node for the runtime and for
      // observability.
      const QInfo& in_q = qinfo[static_cast<std::size_t>(node.inputs[0])];
      NodeAttrs attrs = node.attrs;
      attrs.qscale = in_q.scale;
      attrs.qzero = in_q.zero;
      const int new_id =
          rw.dst().AddNode(node.type, {in_q.int_id}, std::move(attrs), node.name);
      rw.dst().node(new_id).out_layout = node.out_layout;
      rw.MapTo(id, new_id);
      qinfo[sid] = {true, in_q.scale, in_q.zero, new_id, -1};
      continue;
    }

    if (node.type == OpType::kConcat && can_int[sid] != 0 && demand[sid] != 0) {
      // Integer concat needs every input actually integer; otherwise fall through to
      // the f32 copy.
      bool ok = true;
      for (int in : node.inputs) {
        ok = ok && qinfo[static_cast<std::size_t>(in)].integer;
      }
      if (ok) {
        float out_scale;
        std::int32_t out_zero;
        AffineScaleZeroPoint(calibration.at(id).min, calibration.at(id).max, &out_scale,
                             &out_zero);
        NodeAttrs attrs = node.attrs;
        attrs.qscale = out_scale;
        attrs.qzero = out_zero;
        std::vector<int> inputs;
        inputs.reserve(node.inputs.size());
        for (int in : node.inputs) {
          const QInfo& in_q = qinfo[static_cast<std::size_t>(in)];
          attrs.qin_scales.push_back(in_q.scale);
          attrs.qin_zeros.push_back(in_q.zero);
          inputs.push_back(in_q.int_id);
        }
        const int new_id =
            rw.dst().AddNode(node.type, std::move(inputs), std::move(attrs), node.name);
        rw.dst().node(new_id).out_layout = node.out_layout;
        rw.MapTo(id, new_id);
        qinfo[sid] = {true, out_scale, out_zero, new_id, -1};
        continue;
      }
    }

    if (dense_quantized(id)) {
      // Tuned u8 dense (packed u8*s8 GEMM), the one quantized dense kernel, with a
      // REQUANTIZING output when downstream demand is integer, so Dense->Dense chains
      // (transformer FFNs, stacked QKV projections) stay in the integer domain end to
      // end.
      remapped_dense[add_quantized(id, demand[sid] != 0 && calibration.count(id) > 0)] =
          *tuned_dense(id);
      continue;
    }

    if (const GemmSchedule* gs = tuned_dense(id);
        gs != nullptr && gs->dtype == DType::kF32) {
      // Tuned f32 dense: executes in f32 (dequantize any integer inputs), but the
      // schedule must follow the node to its rewritten id for AlterConvLayout.
      for (int in : node.inputs) {
        ensure_f32(in);
      }
      const int new_id = rw.CopyNode(node);
      remapped_dense[new_id] = *gs;
      continue;
    }

    // Everything else executes in f32, an f32 conv's fused residual included:
    // dequantize any integer inputs first (shared, created on first demand), then copy
    // verbatim.
    for (int in : node.inputs) {
      ensure_f32(in);
    }
    const int new_id = rw.CopyNode(node);
    if (const auto it = schedules->find(id); it != schedules->end()) {
      remapped[new_id] = it->second;
    }
  }

  // Graph outputs are an f32 contract regardless of internal dtype choices.
  for (int out : graph.outputs()) {
    ensure_f32(out);
  }

  Graph out = rw.Finish();
  InferShapes(&out);
  *schedules = std::move(remapped);
  if (dense_schedules != nullptr) {
    *dense_schedules = std::move(remapped_dense);
  }
  return out;
}

}  // namespace neocpu
