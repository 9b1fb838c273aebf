// AlterOpLayout + LayoutTransform insertion/elimination (paper §3.2, Figure 2).
//
// Convolutions with an assigned schedule are rewritten to the NCHW[x]c template; their
// weight constants are pre-transformed to OIHW[x]i[y]o at compile time. The blocked
// layout then propagates through layout-oblivious and layout-tolerant operations;
// LayoutTransform nodes are inserted only where the incoming layout differs from what a
// node requires:
//   * conv data input         -> NCHW[ic_bn]c
//   * conv residual input     -> NCHW[oc_bn]c (must match the conv's own output)
//   * elemwise add / concat   -> all inputs follow the first input's layout
//   * layout-dependent ops    -> back to NCHW (Flatten, FlattenNHWC, ...)
// Under LayoutPlacement::kPerOp the propagation is disabled: each conv converts its
// input from NCHW and converts its output back, which is what a framework delegating to
// a fixed kernel library does (Table 3 "Layout Opt." row).
#include "src/base/logging.h"
#include "src/graph/passes/passes.h"
#include "src/graph/passes/rewriter.h"
#include "src/graph/shape_infer.h"
#include "src/kernels/conv_winograd.h"
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

}  // namespace

Graph AlterConvLayout(const Graph& graph, const std::map<int, ConvSchedule>& schedules,
                      LayoutPlacement placement,
                      const std::map<int, GemmSchedule>* dense_schedules) {
  GraphRewriter rw(graph);

  // Inserts a LayoutTransform in the rewritten graph unless `mapped` already produces
  // `want`.
  auto ensure_layout = [&rw](int mapped, const Layout& want) -> int {
    const Layout& have = rw.dst().node(mapped).out_layout;
    if (have == want) {
      return mapped;
    }
    NodeAttrs attrs;
    attrs.dst_layout = want;
    const int id = rw.dst().AddNode(OpType::kLayoutTransform, {mapped}, std::move(attrs));
    rw.dst().node(id).out_layout = want;
    return id;
  };

  for (int id = 0; id < graph.num_nodes(); ++id) {
    const Node& node = graph.node(id);
    switch (node.type) {
      case OpType::kConv2d: {
        const auto it = schedules.find(id);
        if (it == schedules.end()) {
          // Stays in NCHW: make sure the input actually is NCHW.
          const int data = ensure_layout(rw.Lookup(node.inputs[0]), Layout::NCHW());
          std::vector<int> inputs = {data};
          for (std::size_t i = 1; i < node.inputs.size(); ++i) {
            inputs.push_back(rw.Lookup(node.inputs[static_cast<int>(i)]));
          }
          if (node.attrs.epilogue.residual_add) {
            inputs.back() = ensure_layout(inputs.back(), Layout::NCHW());
          }
          const int new_id =
              rw.dst().AddNode(OpType::kConv2d, std::move(inputs), node.attrs, node.name);
          rw.dst().node(new_id).out_layout = Layout::NCHW();
          rw.MapTo(id, new_id);
          break;
        }
        const ConvSchedule& sched = it->second;
        if (!sched.IsDirect()) {
          // An NCHW-layout algorithm won the search for this conv: the data (and any
          // residual) must arrive in NCHW, the output stays NCHW, and the kernel kind
          // dispatches the chosen algorithm. Winograd additionally pre-transforms the
          // weight constant to the {4, 4, OC, IC} Winograd domain at compile time.
          const int data = ensure_layout(rw.Lookup(node.inputs[0]), Layout::NCHW());
          std::vector<int> inputs = {data};
          if (sched.algo == ConvAlgo::kWinograd) {
            NEOCPU_CHECK(WinogradLegal(node.attrs.conv, node.attrs.epilogue))
                << node.name << ": winograd assigned to an illegal conv";
            const Tensor& w = graph.node(node.inputs[1]).payload;
            NEOCPU_CHECK(w.defined()) << node.name << ": conv weight must be constant";
            inputs.push_back(
                rw.dst().AddConstant(WinogradTransformWeights(w), node.name + ".wino"));
          } else {
            inputs.push_back(rw.Lookup(node.inputs[1]));
          }
          std::size_t next_input = 2;
          if (node.attrs.epilogue.bias) {
            inputs.push_back(rw.Lookup(node.inputs[static_cast<int>(next_input)]));
            ++next_input;
          }
          if (node.attrs.epilogue.residual_add) {
            inputs.push_back(ensure_layout(rw.Lookup(node.inputs.back()), Layout::NCHW()));
          }
          NodeAttrs attrs = node.attrs;
          attrs.kernel = sched.algo == ConvAlgo::kWinograd ? ConvKernelKind::kWinograd
                         : sched.algo == ConvAlgo::kIm2col ? ConvKernelKind::kIm2col
                                                           : ConvKernelKind::kDirectNCHW;
          attrs.schedule = sched;
          const int new_id = rw.dst().AddNode(OpType::kConv2d, std::move(inputs),
                                              std::move(attrs), node.name);
          rw.dst().node(new_id).out_layout = Layout::NCHW();
          rw.MapTo(id, new_id);
          break;
        }
        if (sched.IsQuantized()) {
          // Quantized direct template: the u8 data input blocks like the fp32 one;
          // the fp32 weight constant is per-output-channel quantized and blocked at
          // compile time, the bias folds to s32 in the accumulation domain (plus the
          // zero-point correction -in_zero * sum(w)), and the epilogue's per-channel
          // multiplier becomes a constant input. The blocked weight tiles are then
          // VNNI-packed (AFTER the bias fold, which walks the standard tile order).
          NEOCPU_CHECK(node.attrs.qconv.enabled)
              << node.name << ": int8 schedule on an unquantized conv";
          const std::int32_t in_zero = node.attrs.qconv.in_zero;
          const int data =
              ensure_layout(rw.Lookup(node.inputs[0]), Layout::NCHWc(sched.ic_bn));
          const Tensor& w = graph.node(node.inputs[1]).payload;
          NEOCPU_CHECK(w.defined()) << node.name << ": conv weight must be constant";
          Tensor w_s8;
          std::vector<float> w_scales;
          QuantizeConvWeightsPerOC(w, &w_s8, &w_scales);
          Tensor w_blocked = OIHWToOIHWio(w_s8, sched.ic_bn, sched.oc_bn);
          NodeAttrs attrs = node.attrs;
          Tensor bias_s32;
          if (node.attrs.epilogue.bias) {
            const Tensor& bias = graph.node(node.inputs[2]).payload;
            NEOCPU_CHECK(bias.defined()) << node.name << ": conv bias must be constant";
            bias_s32 = QuantizeBiasS32(bias, node.attrs.qconv.in_scale, w_scales);
          } else if (in_zero != 0) {
            // The zero-point correction needs a bias to live in: synthesize zeros.
            bias_s32 = Tensor::Zeros({node.attrs.conv.out_c}, Layout::Flat(),
                                     DType::kS32);
            attrs.epilogue.bias = true;
          }
          if (in_zero != 0) {
            FoldZeroPointIntoBias(w_blocked, in_zero, &bias_s32);
          }
          w_blocked = PackWeightsVnni(w_blocked);
          std::vector<int> inputs = {
              data, rw.dst().AddConstant(std::move(w_blocked), node.name + ".w8")};
          if (bias_s32.defined()) {
            inputs.push_back(
                rw.dst().AddConstant(std::move(bias_s32), node.name + ".b32"));
          }
          Tensor mult = Tensor::Empty({node.attrs.conv.out_c}, Layout::Flat());
          const float denom =
              node.attrs.qconv.requant ? node.attrs.qconv.out_scale : 1.0f;
          for (std::size_t o = 0; o < w_scales.size(); ++o) {
            mult.data()[o] = node.attrs.qconv.in_scale * w_scales[o] / denom;
          }
          inputs.push_back(rw.dst().AddConstant(std::move(mult), node.name + ".m"));
          attrs.kernel = ConvKernelKind::kNCHWcS8;
          attrs.schedule = sched;
          const int new_id = rw.dst().AddNode(OpType::kConv2d, std::move(inputs),
                                              std::move(attrs), node.name);
          rw.dst().node(new_id).out_layout = Layout::NCHWc(sched.oc_bn);
          rw.MapTo(id, new_id);
          break;
        }
        const int data =
            ensure_layout(rw.Lookup(node.inputs[0]), Layout::NCHWc(sched.ic_bn));
        // Pre-transform the weight constant at compile time (Figure 2's
        // "Pre-transformed Kernel").
        const Tensor& w = graph.node(node.inputs[1]).payload;
        NEOCPU_CHECK(w.defined()) << node.name << ": conv weight must be constant";
        Tensor w_blocked = OIHWToOIHWio(w, sched.ic_bn, sched.oc_bn);
        std::vector<int> inputs = {data,
                                   rw.dst().AddConstant(std::move(w_blocked), node.name + ".w")};
        std::size_t next_input = 2;
        if (node.attrs.epilogue.bias) {
          inputs.push_back(rw.Lookup(node.inputs[static_cast<int>(next_input)]));
          ++next_input;
        }
        if (node.attrs.epilogue.residual_add) {
          inputs.push_back(ensure_layout(rw.Lookup(node.inputs.back()),
                                         Layout::NCHWc(sched.oc_bn)));
        }
        NodeAttrs attrs = node.attrs;
        attrs.kernel = ConvKernelKind::kNCHWc;
        attrs.schedule = sched;
        int new_id =
            rw.dst().AddNode(OpType::kConv2d, std::move(inputs), std::move(attrs), node.name);
        rw.dst().node(new_id).out_layout = Layout::NCHWc(sched.oc_bn);
        if (placement == LayoutPlacement::kPerOp) {
          new_id = ensure_layout(new_id, Layout::NCHW());
        }
        rw.MapTo(id, new_id);
        break;
      }
      case OpType::kDense: {
        const auto dit = dense_schedules != nullptr ? dense_schedules->find(id)
                                                    : std::map<int, GemmSchedule>::
                                                          const_iterator{};
        if (dense_schedules != nullptr && dit != dense_schedules->end()) {
          // Tuned packed-GEMM dense: the {Out, In} weight constant is pre-packed into
          // the kernel's [ceil(n/nr)][k][nr] panel layout at compile time (Figure 2's
          // pre-transformed-kernel idea applied to GEMM), and the node carries the
          // blocking schedule so dispatch needs no search.
          const GemmSchedule& sched = dit->second;
          const Tensor& w = graph.node(node.inputs[1]).payload;
          NEOCPU_CHECK(w.defined()) << node.name << ": dense weight must be constant";
          NEOCPU_CHECK_EQ(static_cast<int>(w.dims().size()), 2) << node.name;
          const std::int64_t n = w.dim(0);
          const std::int64_t kk = w.dim(1);
          const std::int64_t m = graph.node(node.inputs[0]).out_dims[0];
          NodeAttrs attrs = node.attrs;
          attrs.gemm = sched;
          attrs.dense = DenseParams{m, n, kk};
          attrs.has_gemm = true;
          int data = rw.Lookup(node.inputs[0]);
          if (graph.node(node.inputs[0]).out_dims.size() == 4) {
            data = ensure_layout(data, Layout::NCHW());
          }
          if (sched.dtype == DType::kU8) {
            // u8 activations x s8 pre-packed weight, s32 accumulate. The conv
            // convention with a 2-D weight: per-row quantization, bias folded to s32
            // with the activation zero-point correction, per-column multiplier
            // constant appended last.
            NEOCPU_CHECK(attrs.qconv.enabled)
                << node.name << ": u8 gemm schedule on an unquantized dense";
            Tensor w_s8;
            std::vector<float> w_scales;
            QuantizeConvWeightsPerOC(w, &w_s8, &w_scales);
            Tensor bias_s32;
            if (node.inputs.size() > 2) {
              const Tensor& bias = graph.node(node.inputs[2]).payload;
              NEOCPU_CHECK(bias.defined()) << node.name << ": dense bias must be constant";
              bias_s32 = QuantizeBiasS32(bias, attrs.qconv.in_scale, w_scales);
            } else if (attrs.qconv.in_zero != 0) {
              bias_s32 = Tensor::Zeros({n}, Layout::Flat(), DType::kS32);
            }
            if (attrs.qconv.in_zero != 0) {
              // bias'[o] -= in_zero * sum_k w_s8[o, k] (the u8 zero-point correction;
              // the 2-D analogue of FoldZeroPointIntoBias's blocked-conv walk).
              const std::int8_t* ws = w_s8.data_as<std::int8_t>();
              std::int32_t* bs = bias_s32.data_as<std::int32_t>();
              for (std::int64_t o = 0; o < n; ++o) {
                std::int32_t sum = 0;
                for (std::int64_t x = 0; x < kk; ++x) {
                  sum += ws[o * kk + x];
                }
                bs[o] -= attrs.qconv.in_zero * sum;
              }
            }
            Tensor packed = Tensor::Empty(
                {static_cast<std::int64_t>(PackedBS8Bytes(n, kk, sched))},
                Layout::Flat(), DType::kS8);
            PackBS8FromTransposed(w_s8.data_as<std::int8_t>(), n, kk, sched,
                                  packed.data_as<std::int8_t>());
            std::vector<int> inputs = {
                data, rw.dst().AddConstant(std::move(packed), node.name + ".w8p")};
            if (bias_s32.defined()) {
              inputs.push_back(
                  rw.dst().AddConstant(std::move(bias_s32), node.name + ".b32"));
            }
            Tensor mult = Tensor::Empty({n}, Layout::Flat());
            const float denom = attrs.qconv.requant ? attrs.qconv.out_scale : 1.0f;
            for (std::size_t o = 0; o < w_scales.size(); ++o) {
              mult.data()[o] = attrs.qconv.in_scale * w_scales[o] / denom;
            }
            inputs.push_back(rw.dst().AddConstant(std::move(mult), node.name + ".m"));
            const int new_id = rw.dst().AddNode(OpType::kDense, std::move(inputs),
                                                std::move(attrs), node.name);
            rw.dst().node(new_id).out_layout = Layout::Flat();
            rw.MapTo(id, new_id);
            break;
          }
          NEOCPU_CHECK(sched.dtype == DType::kF32)
              << node.name << ": unsupported gemm schedule dtype";
          Tensor packed = Tensor::Empty(
              {static_cast<std::int64_t>(PackedBF32Elems(n, kk, sched))}, Layout::Flat());
          PackBF32FromTransposed(w.data(), n, kk, sched, packed.data());
          std::vector<int> inputs = {
              data, rw.dst().AddConstant(std::move(packed), node.name + ".wp")};
          if (node.inputs.size() > 2) {
            inputs.push_back(rw.Lookup(node.inputs[2]));
          }
          const int new_id = rw.dst().AddNode(OpType::kDense, std::move(inputs),
                                              std::move(attrs), node.name);
          rw.dst().node(new_id).out_layout = Layout::Flat();
          rw.MapTo(id, new_id);
          break;
        }
        // Plain dense: ordinary layout-dependent handling (data back to NCHW-order
        // flat; dense inputs are 2-D so no transform is needed in practice).
        std::vector<int> inputs;
        for (std::size_t i = 0; i < node.inputs.size(); ++i) {
          int mapped = rw.Lookup(node.inputs[i]);
          if (i == 0 && graph.node(node.inputs[0]).out_dims.size() == 4) {
            mapped = ensure_layout(mapped, Layout::NCHW());
          }
          inputs.push_back(mapped);
        }
        const int new_id =
            rw.dst().AddNode(OpType::kDense, std::move(inputs), node.attrs, node.name);
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
        if (IsLayoutTolerant(node.type)) {
          const int new_id = rw.CopyNode(node);
          rw.dst().node(new_id).out_layout =
              rw.dst().node(rw.dst().node(new_id).inputs[0]).out_layout;
          break;
        }
        if (IsLayoutDependent(node.type)) {
          std::vector<int> inputs;
          for (std::size_t i = 0; i < node.inputs.size(); ++i) {
            int mapped = rw.Lookup(node.inputs[i]);
            if (i == 0 && graph.node(node.inputs[0]).out_dims.size() == 4) {
              mapped = ensure_layout(mapped, Layout::NCHW());
            }
            inputs.push_back(mapped);
          }
          const int new_id =
              rw.dst().AddNode(node.type, std::move(inputs), node.attrs, node.name);
          rw.dst().node(new_id).out_layout = Layout::Flat();
          rw.MapTo(id, new_id);
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
