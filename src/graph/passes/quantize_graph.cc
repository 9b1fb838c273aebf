// Post-training quantization pass (see passes.h for the contract).
//
// The pass runs AFTER schedule selection: the local search ranked s8/u8 spaces next to
// the fp32 spaces, and the global DP/PBQP weighed per-conv integer gains against
// quantize/dequantize boundary costs — so by the time we are here, "which convs run
// int8" is simply "whose chosen schedule says an integer dtype". The rewrite inserts the
// minimal Q/DQ boundary ops in three sweeps:
//
//   1. forward `can_int`: which non-conv nodes COULD execute in the integer domain were
//      their inputs integer (pooling always; concat when its own output range was
//      calibrated, since rescaling inputs to a common code needs the output range);
//   2. backward `demand`: which integer dtype the consumers of a tensor want.
//      A quantized conv demands its schedule's activation dtype; an integer-capable
//      pool/concat forwards its own demand to its inputs. Disagreeing demands merge to
//      s8 — every quantized conv accepts s8 activations, only ic_bn%4 convs accept u8.
//      Demand is what makes a conv requantize (produce integer) instead of fusing the
//      free dequantize into its epilogue: an integer tensor is only ever materialized
//      when something downstream consumes it as integer;
//   3. topological rewrite tracking the ACTUAL (dtype, scale, zero point) of every
//      rewritten tensor. Integer consumers read the producer's integer output directly
//      with the producer's tracked parameters (which, through a pooling chain, are the
//      parameters of the conv BEFORE the pool — not this tensor's own calibration
//      entry); f32 consumers trigger a lazily created kDequantize. Q nodes are shared
//      per (source, dtype) so inception-style fan-outs convert a feature map once.
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
  if (!node.IsConv() || node.attrs.epilogue.residual_add) {
    return false;
  }
  const Node& weight = graph.node(node.inputs[1]);
  if (!weight.payload.defined() || weight.payload.dtype() != DType::kF32) {
    return false;
  }
  return calibration.count(node.inputs[0]) > 0 && calibration.count(id) > 0;
}

namespace {

// Quantization parameters for one node's calibrated range under `dtype`.
void RangeParams(const TensorRange& range, DType dtype, float* scale,
                 std::int32_t* zero) {
  if (dtype == DType::kU8) {
    AffineScaleZeroPoint(range.min, range.max, scale, zero);
  } else {
    *scale = SymmetricScale(range.min, range.max);
    *zero = 0;
  }
}

}  // namespace

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
  auto dense_quantized = [&](int id) {
    const Node& node = graph.node(id);
    if (node.type != OpType::kDense || node.inputs.size() < 2) {
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

  // Sweep 2 (backward): integer demand per tensor. kF32 encodes "no integer demand".
  std::vector<DType> demand(static_cast<std::size_t>(n), DType::kF32);
  auto contribute = [&](int id, DType dtype) {
    DType& cur = demand[static_cast<std::size_t>(id)];
    if (cur == DType::kF32) {
      cur = dtype;
    } else if (cur != dtype) {
      cur = DType::kS8;  // disagreeing consumers: s8 is universally consumable
    }
  };
  for (int id = n - 1; id >= 0; --id) {
    const Node& node = graph.node(id);
    if (node.IsConv() && quantized(id)) {
      contribute(node.inputs[0], schedules->at(id).dtype);
    } else if (const GemmSchedule* gs = tuned_dense(id); gs != nullptr) {
      // A u8 tuned dense consumes u8 activations; an f32 one demands nothing.
      if (gs->dtype == DType::kU8 && dense_quantized(id)) {
        contribute(node.inputs[0], DType::kU8);
      }
    } else if ((node.type == OpType::kMaxPool || node.type == OpType::kAvgPool ||
                node.type == OpType::kConcat) &&
               can_int[static_cast<std::size_t>(id)] != 0 &&
               demand[static_cast<std::size_t>(id)] != DType::kF32) {
      for (int in : node.inputs) {
        contribute(in, demand[static_cast<std::size_t>(id)]);
      }
    }
  }

  // Sweep 3: the rewrite. `qinfo` tracks the actual integer identity of every rewritten
  // source node's output — integer consumers read `int_id`, f32 consumers go through a
  // lazily shared kDequantize (created only when a f32 reader exists; `MapTo` then
  // points at the DQ so plain CopyNode consumers pick it up).
  struct QInfo {
    DType dtype = DType::kF32;  // kF32: plain f32 tensor, remaining fields unused
    float scale = 1.0f;
    std::int32_t zero = 0;
    int int_id = -1;  // rewritten-graph id of the integer tensor
    int dq_id = -1;   // rewritten-graph id of its dequantize, once demanded
  };
  std::vector<QInfo> qinfo(static_cast<std::size_t>(n));

  GraphRewriter rw(graph);
  std::map<int, ConvSchedule> remapped;
  std::map<int, GemmSchedule> remapped_dense;
  // One kQuantize per (f32 source, target dtype): quantized convs sharing a producer
  // (and therefore a calibrated range) share the quantize pass and its integer buffer
  // instead of re-converting the feature map per branch (inception-style fan-out).
  std::map<std::pair<int, int>, int> quantize_nodes;

  auto ensure_f32 = [&](int orig) {
    QInfo& qi = qinfo[static_cast<std::size_t>(orig)];
    if (qi.dtype == DType::kF32) {
      return;  // Lookup already points at an f32 node
    }
    if (qi.dq_id < 0) {
      NodeAttrs dqattrs;
      dqattrs.qscale = qi.scale;
      dqattrs.qzero = qi.zero;
      dqattrs.qdtype = qi.dtype;
      const Node& producer = rw.dst().node(qi.int_id);
      const Layout layout = producer.out_layout;
      qi.dq_id = rw.dst().AddNode(OpType::kDequantize, {qi.int_id}, std::move(dqattrs),
                                  producer.name + ".dq");
      rw.dst().node(qi.dq_id).out_layout = layout;
    }
    rw.MapTo(orig, qi.dq_id);
  };

  for (int id = 0; id < n; ++id) {
    const Node& node = graph.node(id);
    const std::size_t sid = static_cast<std::size_t>(id);

    if (node.IsConv() && quantized(id)) {
      ConvSchedule sched = schedules->at(id);

      // Data input: adopt the producer's integer tensor when there is one; otherwise
      // quantize the f32 source to the schedule's activation dtype.
      const int src = node.inputs[0];
      const QInfo& in_q = qinfo[static_cast<std::size_t>(src)];
      DType adtype;
      float in_scale;
      std::int32_t in_zero;
      int data;
      if (in_q.dtype != DType::kF32) {
        adtype = in_q.dtype;
        in_scale = in_q.scale;
        in_zero = in_q.zero;
        data = in_q.int_id;
        // The demand merge only yields u8 when EVERY consuming conv demanded u8, and
        // only ic_bn%4 convs get u8 schedules — so adoption cannot violate the packing
        // constraint. Check the invariant rather than silently mis-executing.
        NEOCPU_CHECK(adtype != DType::kU8 || sched.ic_bn % 4 == 0)
            << node.name << ": u8 producer feeds conv with ic_bn " << sched.ic_bn;
      } else {
        adtype = sched.dtype;
        RangeParams(calibration.at(src), adtype, &in_scale, &in_zero);
        const int fsrc = rw.Lookup(src);
        const auto key = std::make_pair(fsrc, static_cast<int>(adtype));
        if (const auto it = quantize_nodes.find(key); it != quantize_nodes.end()) {
          data = it->second;  // a sibling quantized conv already converted this tensor
        } else {
          const Layout src_layout = rw.dst().node(fsrc).out_layout;
          NodeAttrs qattrs;
          qattrs.qscale = in_scale;
          qattrs.qzero = in_zero;
          qattrs.qdtype = adtype;
          data = rw.dst().AddNode(OpType::kQuantize, {fsrc}, std::move(qattrs),
                                  node.name + ".q");
          rw.dst().node(data).out_layout = src_layout;
          quantize_nodes.emplace(key, data);
        }
      }
      // Keep the recorded schedule coherent with what actually flows in (the s8
      // fallback can override a u8 schedule's dtype; the blocking stays valid).
      sched.dtype = adtype;

      // Output: requantize iff something downstream demanded integer; its dtype is the
      // merged demand, independent of this conv's own activation dtype.
      const DType dem = demand[sid];
      const bool requant = dem != DType::kF32;

      NodeAttrs attrs = node.attrs;
      attrs.qconv.enabled = true;
      attrs.qconv.in_scale = in_scale;
      attrs.qconv.adtype = adtype;
      attrs.qconv.in_zero = in_zero;
      attrs.qconv.requant = requant;
      float out_scale = 1.0f;
      std::int32_t out_zero = 0;
      if (requant) {
        RangeParams(calibration.at(id), dem, &out_scale, &out_zero);
        attrs.qconv.out_scale = out_scale;
        attrs.qconv.out_dtype = dem;
        attrs.qconv.out_zero = out_zero;
      }
      std::vector<int> inputs = {data};
      for (std::size_t i = 1; i < node.inputs.size(); ++i) {
        inputs.push_back(rw.Lookup(node.inputs[i]));
      }
      const int conv_id = rw.dst().AddNode(OpType::kConv2d, std::move(inputs),
                                           std::move(attrs), node.name);
      rw.dst().node(conv_id).out_layout = node.out_layout;
      remapped[conv_id] = sched;
      rw.MapTo(id, conv_id);
      if (requant) {
        qinfo[sid] = {dem, out_scale, out_zero, conv_id, -1};
      }
      continue;
    }

    if ((node.type == OpType::kMaxPool || node.type == OpType::kAvgPool) &&
        can_int[sid] != 0 && demand[sid] != DType::kF32 &&
        qinfo[static_cast<std::size_t>(node.inputs[0])].dtype != DType::kF32) {
      // Integer pooling: the codes pass through (max is order-preserving; avg
      // accumulates in s32 around the zero point), so the output keeps the input's
      // quantization parameters — recorded on the node for the runtime and for
      // observability.
      const QInfo& in_q = qinfo[static_cast<std::size_t>(node.inputs[0])];
      NodeAttrs attrs = node.attrs;
      attrs.qscale = in_q.scale;
      attrs.qzero = in_q.zero;
      attrs.qdtype = in_q.dtype;
      const int new_id =
          rw.dst().AddNode(node.type, {in_q.int_id}, std::move(attrs), node.name);
      rw.dst().node(new_id).out_layout = node.out_layout;
      rw.MapTo(id, new_id);
      qinfo[sid] = {in_q.dtype, in_q.scale, in_q.zero, new_id, -1};
      continue;
    }

    if (node.type == OpType::kConcat && can_int[sid] != 0 &&
        demand[sid] != DType::kF32) {
      // Integer concat needs every input actually integer AND of one common dtype
      // (the kernel copies one code type); otherwise fall through to the f32 copy.
      DType common = qinfo[static_cast<std::size_t>(node.inputs[0])].dtype;
      bool ok = common != DType::kF32;
      for (int in : node.inputs) {
        ok = ok && qinfo[static_cast<std::size_t>(in)].dtype == common;
      }
      if (ok) {
        float out_scale;
        std::int32_t out_zero;
        RangeParams(calibration.at(id), common, &out_scale, &out_zero);
        NodeAttrs attrs = node.attrs;
        attrs.qscale = out_scale;
        attrs.qzero = out_zero;
        attrs.qdtype = common;
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
        qinfo[sid] = {common, out_scale, out_zero, new_id, -1};
        continue;
      }
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

    if (const GemmSchedule* gs = tuned_dense(id);
        gs != nullptr && gs->dtype == DType::kU8 && dense_quantized(id)) {
      // Tuned u8 dense (packed u8*s8 GEMM), the one quantized dense kernel: u8
      // activations with an affine zero point, and a REQUANTIZING output when
      // downstream demand is integer, so Dense->Dense chains (transformer FFNs, stacked
      // QKV projections) stay in the integer domain end to end. The kernel is u8-only,
      // so an s8 integer producer is dequantized and requantized to u8 on the way in.
      const int src = node.inputs[0];
      const QInfo& in_q = qinfo[static_cast<std::size_t>(src)];
      float in_scale;
      std::int32_t in_zero;
      int data;
      if (in_q.dtype == DType::kU8) {
        in_scale = in_q.scale;
        in_zero = in_q.zero;
        data = in_q.int_id;
      } else {
        ensure_f32(src);
        RangeParams(calibration.at(src), DType::kU8, &in_scale, &in_zero);
        const int fsrc = rw.Lookup(src);
        const auto key = std::make_pair(fsrc, static_cast<int>(DType::kU8));
        if (const auto it = quantize_nodes.find(key); it != quantize_nodes.end()) {
          data = it->second;
        } else {
          const Layout src_layout = rw.dst().node(fsrc).out_layout;
          NodeAttrs qattrs;
          qattrs.qscale = in_scale;
          qattrs.qzero = in_zero;
          qattrs.qdtype = DType::kU8;
          data = rw.dst().AddNode(OpType::kQuantize, {fsrc}, std::move(qattrs),
                                  node.name + ".q");
          rw.dst().node(data).out_layout = src_layout;
          quantize_nodes.emplace(key, data);
        }
      }
      const DType dem = demand[sid];
      const bool requant = dem != DType::kF32 && calibration.count(id) > 0;
      NodeAttrs attrs = node.attrs;
      attrs.qconv.enabled = true;
      attrs.qconv.in_scale = in_scale;
      attrs.qconv.adtype = DType::kU8;
      attrs.qconv.in_zero = in_zero;
      attrs.qconv.requant = requant;
      float out_scale = 1.0f;
      std::int32_t out_zero = 0;
      if (requant) {
        RangeParams(calibration.at(id), dem, &out_scale, &out_zero);
        attrs.qconv.out_scale = out_scale;
        attrs.qconv.out_dtype = dem;
        attrs.qconv.out_zero = out_zero;
      }
      std::vector<int> inputs = {data};
      for (std::size_t i = 1; i < node.inputs.size(); ++i) {
        inputs.push_back(rw.Lookup(node.inputs[i]));
      }
      const int new_id = rw.dst().AddNode(OpType::kDense, std::move(inputs),
                                          std::move(attrs), node.name);
      rw.dst().node(new_id).out_layout = node.out_layout;
      remapped_dense[new_id] = *gs;
      rw.MapTo(id, new_id);
      if (requant) {
        qinfo[sid] = {dem, out_scale, out_zero, new_id, -1};
      }
      continue;
    }

    if (node.IsConv() && node.attrs.epilogue.residual_add && node.inputs.size() >= 2 &&
        qinfo[static_cast<std::size_t>(node.inputs.back())].dtype != DType::kF32) {
      // IntelCaffe's "sum fusion": an fp32 conv with a fused residual add reads an
      // INTEGER residual directly and dequantizes it inside the epilogue (the rescale
      // params ride on qin_scales/qin_zeros). This deletes the standalone kDequantize
      // that the residual read of a pooled integer tensor would otherwise force — on
      // resnet-style stems, the only f32 reader the integer maxpool output has left.
      const QInfo& res_q = qinfo[static_cast<std::size_t>(node.inputs.back())];
      NodeAttrs attrs = node.attrs;
      attrs.qin_scales = {res_q.scale};
      attrs.qin_zeros = {res_q.zero};
      std::vector<int> inputs;
      inputs.reserve(node.inputs.size());
      for (std::size_t i = 0; i + 1 < node.inputs.size(); ++i) {
        ensure_f32(node.inputs[i]);
        inputs.push_back(rw.Lookup(node.inputs[i]));
      }
      inputs.push_back(res_q.int_id);
      const int new_id = rw.dst().AddNode(OpType::kConv2d, std::move(inputs),
                                          std::move(attrs), node.name);
      rw.dst().node(new_id).out_layout = node.out_layout;
      rw.MapTo(id, new_id);
      if (const auto it = schedules->find(id); it != schedules->end()) {
        remapped[new_id] = it->second;
      }
      continue;
    }

    // Everything else executes in f32: dequantize any integer inputs first (shared,
    // created on first demand), then copy verbatim.
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
