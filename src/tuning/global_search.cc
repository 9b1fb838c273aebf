#include "src/tuning/global_search.h"

#include <algorithm>
#include <functional>

#include "src/base/logging.h"
#include "src/base/timer.h"
#include "src/kernels/conv_winograd.h"
#include "src/tuning/cost_model.h"

namespace neocpu {
namespace {

std::int64_t FeatureMapBytes(const std::vector<std::int64_t>& dims) {
  std::int64_t n = 1;
  for (std::int64_t d : dims) {
    n *= d;
  }
  return n * static_cast<std::int64_t>(sizeof(float));
}

// Representative producer conv of a value: the conv whose output block (oc_bn)
// determines the layout the value carries, walking back through layout-oblivious /
// layout-tolerant ops and through the *first* input of joins (add/concat adopt their
// first input's layout). Returns -1 for graph inputs / layout-dependent producers.
int RepProducer(const Graph& g, int id) {
  while (true) {
    const Node& node = g.node(id);
    switch (node.type) {
      case OpType::kConv2d:
        return id;
      case OpType::kScaleShift:
      case OpType::kBatchNorm:
      case OpType::kRelu:
      case OpType::kMaxPool:
      case OpType::kAvgPool:
      case OpType::kGlobalAvgPool:
      case OpType::kDropout:
      case OpType::kElemAdd:
      case OpType::kConcat:
        id = node.inputs[0];
        break;
      default:
        return -1;
    }
  }
}

}  // namespace

PbqpProblem GlobalProblem::ToPbqp() const {
  PbqpProblem p;
  p.node_costs.resize(options.size());
  for (std::size_t v = 0; v < options.size(); ++v) {
    for (const ScheduleCost& sc : options[v]) {
      p.node_costs[v].push_back(sc.ms);
    }
  }
  for (const LayoutEdge& e : edges) {
    PbqpProblem::Edge pe;
    pe.u = e.var_a;
    pe.v = e.var_b;
    const auto& oa = options[static_cast<std::size_t>(e.var_a)];
    const auto& ob = options[static_cast<std::size_t>(e.var_b)];
    pe.matrix.resize(oa.size() * ob.size(), 0.0);
    for (std::size_t i = 0; i < oa.size(); ++i) {
      for (std::size_t j = 0; j < ob.size(); ++j) {
        // Interface signatures combine the channel block with the execution dtype
        // (ConvSchedule::In/OutSig): NCHW-layout algorithms (Winograd, im2col: block 0)
        // pay a transform against blocked neighbours but compose for free with each
        // other and with graph inputs/outputs, and an fp32/u8 boundary costs a
        // quantize/dequantize pass charged at the same per-edge rate as a relayout
        // (both are one gather pass over the feature map).
        const std::int64_t out_sig = oa[i].schedule.OutSig();
        const std::int64_t in_sig = e.kind == LayoutEdgeKind::kProducerConsumer
                                        ? ob[j].schedule.InSig()
                                        : ob[j].schedule.OutSig();
        if (out_sig != in_sig) {
          pe.matrix[i * ob.size() + j] = e.transform_ms;
        }
      }
    }
    p.edges.push_back(std::move(pe));
  }
  return p;
}

double GlobalProblem::Evaluate(const std::vector<int>& selection) const {
  return ToPbqp().Evaluate(selection);
}

GlobalProblem ExtractGlobalProblem(const Graph& graph, const LocalSearchMap& locals) {
  GlobalProblem problem;
  std::map<int, int> var_of_conv;
  const auto consumers = graph.BuildConsumerIndex();
  std::vector<char> escapes(static_cast<std::size_t>(graph.num_nodes()), 0);
  for (int out : graph.outputs()) {
    escapes[static_cast<std::size_t>(out)] = 1;
  }
  // QuantizeGraph executes pooling natively in the integer domain, so a value "stays
  // integer" when it neither escapes nor reaches a consumer outside {conv data and
  // residual reads, pools that themselves stay integer}. A conv's data read is no
  // boundary here because its producer-consumer edge prices it: the edge compares
  // signatures that carry the dtype, so an int8 producer feeding an f32 conv pays the
  // dequantize there. A residual read is costed as integer on the assumption that the
  // reading conv is quantized; when that conv stays f32, it reads the shared
  // kDequantize that QuantizeGraph creates for f32 readers, which this sweep does not
  // charge. Concat also has an integer form, but it additionally needs its own
  // calibrated range and every input integer — unknown at costing time, so it stays a
  // (conservative) boundary here.
  std::function<bool(int)> stays_int = [&](int v) -> bool {
    if (escapes[static_cast<std::size_t>(v)] != 0) {
      return false;
    }
    for (int c : consumers[static_cast<std::size_t>(v)]) {
      const Node& cn = graph.node(c);
      if (cn.IsConv() && (cn.inputs[0] == v || (cn.attrs.epilogue.residual_add &&
                                                  cn.inputs.back() == v))) {
        continue;
      }
      if ((cn.type == OpType::kMaxPool || cn.type == OpType::kAvgPool) &&
          stays_int(c)) {
        continue;
      }
      return false;
    }
    return true;
  };
  for (int id = 0; id < graph.num_nodes(); ++id) {
    const Node& node = graph.node(id);
    if (!node.IsConv()) {
      continue;
    }
    const auto it = locals.find(id);
    NEOCPU_CHECK(it != locals.end()) << "missing local search result for conv " << id;

    // Boundary costs an int8 option pays regardless of its neighbours' choices: a
    // quantize pass unless the data arrives from another conv — possibly through a
    // pooling chain, which QuantizeGraph keeps in the integer domain — and a
    // dequantize pass when the output reaches any consumer that cannot stay integer
    // (non-conv non-pool ops, graph outputs). Direct conv-to-conv boundaries are the
    // edges' job.
    double int8_boundary_ms = 0.0;
    const int data = node.inputs[0];
    int p_walk = data;
    while (graph.node(p_walk).type == OpType::kMaxPool ||
           graph.node(p_walk).type == OpType::kAvgPool) {
      p_walk = graph.node(p_walk).inputs[0];
    }
    if (!graph.node(p_walk).IsConv()) {
      int8_boundary_ms += QdqMs(FeatureMapBytes(graph.node(data).out_dims));
    }
    if (!stays_int(id)) {
      int8_boundary_ms += QdqMs(FeatureMapBytes(node.out_dims));
    }

    // One option per (dtype, algo, ic_bn, oc_bn) combination: the combination's
    // cheapest schedule. Transform costs only see the combination, so cheaper
    // same-combination schedules dominate. Winograd options are dropped for convs
    // whose fused epilogue the kernel cannot execute (residual adds).
    std::vector<ScheduleCost> options;
    for (const ScheduleCost& sc : it->second->ranked) {
      if (sc.schedule.algo == ConvAlgo::kWinograd &&
          !WinogradLegal(node.attrs.conv, node.attrs.epilogue)) {
        continue;
      }
      bool seen = false;
      for (const ScheduleCost& kept : options) {
        if (kept.schedule.algo == sc.schedule.algo &&
            kept.schedule.dtype == sc.schedule.dtype &&
            kept.schedule.ic_bn == sc.schedule.ic_bn &&
            kept.schedule.oc_bn == sc.schedule.oc_bn) {
          seen = true;
          break;
        }
      }
      if (!seen) {
        ScheduleCost option = sc;
        if (option.schedule.IsQuantized()) {
          option.ms += int8_boundary_ms;
        }
        options.push_back(option);
      }
    }
    var_of_conv[id] = static_cast<int>(problem.conv_ids.size());
    problem.conv_ids.push_back(id);
    problem.options.push_back(std::move(options));
  }

  auto add_edge = [&](int conv_a, int conv_b, double ms, LayoutEdgeKind kind) {
    if (conv_a < 0 || conv_b < 0 || conv_a == conv_b) {
      return;
    }
    problem.edges.push_back(
        LayoutEdge{var_of_conv.at(conv_a), var_of_conv.at(conv_b), ms, kind});
  };

  for (int id = 0; id < graph.num_nodes(); ++id) {
    const Node& node = graph.node(id);
    if (node.IsConv()) {
      const int data = node.inputs[0];
      add_edge(RepProducer(graph, data), id,
               TransformMs(FeatureMapBytes(graph.node(data).out_dims)),
               LayoutEdgeKind::kProducerConsumer);
      if (node.attrs.epilogue.residual_add) {
        const int res = node.inputs.back();
        add_edge(RepProducer(graph, res), id,
                 TransformMs(FeatureMapBytes(graph.node(res).out_dims)),
                 LayoutEdgeKind::kSibling);
      }
    } else if (node.type == OpType::kElemAdd || node.type == OpType::kConcat) {
      const int rep0 = RepProducer(graph, node.inputs[0]);
      for (std::size_t k = 1; k < node.inputs.size(); ++k) {
        const int input = node.inputs[k];
        add_edge(rep0, RepProducer(graph, input),
                 TransformMs(FeatureMapBytes(graph.node(input).out_dims)),
                 LayoutEdgeKind::kSibling);
      }
    }
  }
  return problem;
}

namespace {

GlobalSolution MakeSolution(const GlobalProblem& problem, const std::vector<int>& selection,
                            double cost, bool exact, double seconds) {
  GlobalSolution solution;
  for (std::size_t v = 0; v < problem.conv_ids.size(); ++v) {
    solution.assignment[problem.conv_ids[v]] =
        problem.options[v][static_cast<std::size_t>(selection[v])].schedule;
  }
  solution.cost_ms = cost;
  solution.exact = exact;
  solution.solve_seconds = seconds;
  return solution;
}

}  // namespace

GlobalSolution SolveGlobalExactOnly(const GlobalProblem& problem,
                                    std::size_t max_dp_table_entries, bool* ok) {
  Timer timer;
  auto result = SolveExact(problem.ToPbqp(), max_dp_table_entries);
  if (ok != nullptr) {
    *ok = result.has_value();
  }
  if (!result.has_value()) {
    return {};
  }
  return MakeSolution(problem, result->selection, result->cost, /*exact=*/true,
                      timer.Seconds());
}

GlobalSolution SolveGlobalPbqpOnly(const GlobalProblem& problem) {
  Timer timer;
  PbqpSolution result = SolvePbqp(problem.ToPbqp());
  return MakeSolution(problem, result.selection, result.cost, /*exact=*/false,
                      timer.Seconds());
}

GlobalSolution SolveGlobal(const GlobalProblem& problem, std::size_t max_dp_table_entries) {
  bool ok = false;
  GlobalSolution exact = SolveGlobalExactOnly(problem, max_dp_table_entries, &ok);
  if (ok) {
    return exact;
  }
  return SolveGlobalPbqpOnly(problem);
}

}  // namespace neocpu
