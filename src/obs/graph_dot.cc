#include "src/obs/graph_dot.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "src/base/string_util.h"

namespace neocpu {

namespace {

// Escapes a string for use inside a double-quoted DOT label. Label line breaks are the
// two-character sequence \n in the DOT source, produced by the callers directly.
std::string DotEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

std::string DimsToString(const std::vector<std::int64_t>& dims) {
  return "{" +
         JoinMapped(dims, ",",
                    [](std::int64_t d) { return StrFormat("%lld", static_cast<long long>(d)); }) +
         "}";
}

// White → saturated red ramp for the profile heat overlay.
std::string HeatColor(double share) {
  share = std::clamp(share, 0.0, 1.0);
  const int cool = static_cast<int>(235.0 - 180.0 * share);
  return StrFormat("#ff%02x%02x", cool, cool);
}

// Baseline fill per op class when no profile drives the coloring.
const char* KindColor(OpType type) {
  switch (type) {
    case OpType::kInput:
      return "#d0e6f7";
    case OpType::kConstant:
      return "#f0f0f0";
    case OpType::kConv2d:
      return "#ffe0c0";
    case OpType::kDense:
      return "#ffecc0";
    case OpType::kLayoutTransform:
      return "#e0d0f0";
    case OpType::kQuantize:
    case OpType::kDequantize:
      return "#d0f0d8";
    case OpType::kMultiHeadAttention:
      return "#f7d9e6";
    case OpType::kLayerNorm:
    case OpType::kTranspose:
      return "#e6e0f7";
    default:
      return "#eaf2ea";
  }
}

const char* NodeShape(OpType type) {
  switch (type) {
    case OpType::kInput:
      return "ellipse";
    case OpType::kConstant:
      return "note";
    case OpType::kConv2d:
    case OpType::kDense:
      return "box";
    default:
      return "box";
  }
}

}  // namespace

std::string GraphToDot(const Graph& graph, const GraphDotOptions& options) {
  const bool has_profile = options.profile != nullptr && !options.profile->empty();
  // Per-node profile lookup and the hottest node (normalizer for the heat ramp).
  std::map<int, const NodeProfile*> profile_by_id;
  double max_node_ms = 0.0;
  if (has_profile) {
    for (const NodeProfile& node : options.profile->nodes) {
      profile_by_id[node.node_id] = &node;
      max_node_ms = std::max(max_node_ms, node.total_ms);
    }
  }

  std::vector<bool> exported(static_cast<std::size_t>(graph.num_nodes()), false);
  for (int id = 0; id < graph.num_nodes(); ++id) {
    const Node& node = graph.node(id);
    exported[static_cast<std::size_t>(id)] =
        options.include_constants || node.type != OpType::kConstant;
  }

  int num_nodes = 0;
  int num_edges = 0;
  std::ostringstream body;
  for (int id = 0; id < graph.num_nodes(); ++id) {
    if (!exported[static_cast<std::size_t>(id)]) {
      continue;
    }
    const Node& node = graph.node(id);
    ++num_nodes;

    std::string label = DotEscape(node.name.empty() ? StrFormat("node%d", id) : node.name);
    label += StrFormat("\\n%s", OpTypeName(node.type));
    if (node.IsConv()) {
      const ConvSchedule& sched = node.attrs.schedule;
      label += StrFormat("\\nalgo=%s dtype=%s", ConvAlgoName(sched.algo),
                         DTypeName(sched.dtype));
      if (sched.IsDirect()) {
        label += StrFormat("\\nic_bn=%lld oc_bn=%lld reg_n=%lld%s",
                           static_cast<long long>(sched.ic_bn),
                           static_cast<long long>(sched.oc_bn),
                           static_cast<long long>(sched.reg_n),
                           sched.unroll_ker ? " unroll" : "");
      }
    } else if (node.type == OpType::kDense && node.attrs.has_gemm) {
      const GemmSchedule& gemm = node.attrs.gemm;
      label += StrFormat("\\ngemm dtype=%s", DTypeName(gemm.dtype));
      label += StrFormat("\\nmc=%lld nc=%lld kc=%lld mr=%lld nr=%lld",
                         static_cast<long long>(gemm.mc),
                         static_cast<long long>(gemm.nc),
                         static_cast<long long>(gemm.kc),
                         static_cast<long long>(gemm.mr),
                         static_cast<long long>(gemm.nr));
    } else if (node.type == OpType::kMultiHeadAttention) {
      label += StrFormat("\\nheads=%lld seq=%lld dtype=%s",
                         static_cast<long long>(node.attrs.heads),
                         static_cast<long long>(node.attrs.seq),
                         DTypeName(node.out_dtype));
    } else if (node.type != OpType::kConstant) {
      label += StrFormat("\\ndtype=%s", DTypeName(node.out_dtype));
    }
    if (!node.out_dims.empty()) {
      label += StrFormat("\\n%s %s", DimsToString(node.out_dims).c_str(),
                         node.out_layout.ToString().c_str());
    }
    if (options.plan != nullptr &&
        id < static_cast<int>(options.plan->nodes.size())) {
      const NodePlan& np = options.plan->nodes[static_cast<std::size_t>(id)];
      switch (np.placement) {
        case BufferPlacement::kArena:
          if (np.in_place_of >= 0) {
            label += StrFormat("\\narena +%zu (%zu B, in-place over n%d)", np.offset,
                               np.size_bytes, np.in_place_of);
          } else {
            label += StrFormat("\\narena +%zu (%zu B)", np.offset, np.size_bytes);
          }
          break;
        case BufferPlacement::kAlias:
          label += StrFormat("\\nalias of n%d", np.alias_of);
          break;
        case BufferPlacement::kHeap:
          if (node.type != OpType::kInput && node.type != OpType::kConstant) {
            label += "\\nheap";
          }
          break;
      }
      if (np.workspace_bytes > 0 && options.plan->arena_bytes > 0) {
        label += StrFormat("\\nworkspace +%zu (%zu B)", np.workspace_offset,
                           np.workspace_bytes);
      }
    }

    std::string fill = KindColor(node.type);
    const NodeProfile* profile = nullptr;
    if (has_profile) {
      auto it = profile_by_id.find(id);
      if (it != profile_by_id.end()) {
        profile = it->second;
        const double share =
            options.profile->total_ms > 0 ? profile->total_ms / options.profile->total_ms
                                          : 0.0;
        label += StrFormat("\\n%.1f us/run  %.1f%%", profile->mean_us(), 100.0 * share);
        fill = HeatColor(max_node_ms > 0 ? profile->total_ms / max_node_ms : 0.0);
      }
    }

    body << "  n" << id << " [label=\"" << label << "\", shape=" << NodeShape(node.type)
         << ", style=filled, fillcolor=\"" << fill << "\"];\n";
    for (int input : node.inputs) {
      if (!exported[static_cast<std::size_t>(input)]) {
        continue;
      }
      body << "  n" << input << " -> n" << id << ";\n";
      ++num_edges;
    }
  }

  std::ostringstream out;
  out << "/* neocpu-dot nodes=" << num_nodes << " edges=" << num_edges << " */\n";
  out << "digraph \"" << DotEscape(options.graph_name) << "\" {\n";
  out << "  rankdir=TB;\n";
  out << "  node [fontsize=10, fontname=\"Helvetica\"];\n";
  std::string caption = DotEscape(options.graph_name);
  if (options.plan != nullptr) {
    caption += StrFormat("\\narena %zu B (naive %zu B), %d arena / %d alias / %d heap nodes",
                         options.plan->arena_bytes, options.plan->naive_bytes,
                         options.plan->arena_nodes, options.plan->alias_nodes,
                         options.plan->heap_nodes);
  }
  if (has_profile) {
    caption += StrFormat("\\nprofiled: %llu sampled runs, %.3f ms/run",
                         static_cast<unsigned long long>(options.profile->runs_sampled),
                         options.profile->PerRunMs());
  }
  out << "  label=\"" << caption << "\";\n  labelloc=t;\n";
  out << body.str();
  out << "}\n";
  return out.str();
}

std::string CompiledModelToDot(const CompiledModel& model,
                               const NodeProfileSnapshot* profile) {
  GraphDotOptions options;
  options.plan = model.plan().get();
  options.profile = profile;
  options.graph_name = model.graph().name.empty() ? "neocpu" : model.graph().name;
  return GraphToDot(model.graph(), options);
}

}  // namespace neocpu
