#include "src/obs/node_profiler.h"

#include <algorithm>
#include <mutex>
#include <map>
#include <tuple>

#include "src/base/logging.h"
#include "src/base/string_util.h"

namespace neocpu {

namespace {

// Aggregation key: op kind, with convolutions split by algorithm + dtype and dense
// layers split by kernel family + dtype — the axes the search actually decides per
// layer ("Conv2d/direct-nchwc-u8" vs "Conv2d/im2col", "dense/gemm-u8" vs
// "dense/gemm-f32"; an unlowered graph's dense reads "dense/ref").
std::string KindKey(const Node& node) {
  if (node.type == OpType::kDense) {
    std::string key = OpTypeName(node.type);
    key += '/';
    if (node.attrs.has_gemm) {
      key += node.attrs.gemm.IsQuantized() ? "gemm-u8" : "gemm-f32";
    } else {
      key += "ref";
    }
    return key;
  }
  if (!node.IsConv()) {
    return OpTypeName(node.type);
  }
  std::string key = OpTypeName(node.type);
  key += '/';
  key += ConvAlgoName(node.attrs.schedule.algo);
  if (node.attrs.schedule.IsQuantized()) {
    key += "-u8";
  }
  return key;
}

}  // namespace

NodeProfiler::NodeProfiler(std::uint32_t sample_rate)
    : sample_rate_(sample_rate == 0 ? 1 : sample_rate) {}

void NodeProfiler::RegisterGraph(const Graph& graph) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  if (cells_.size() < static_cast<std::size_t>(graph.num_nodes())) {
    cells_.resize(static_cast<std::size_t>(graph.num_nodes()));
  }
  for (int id = 0; id < graph.num_nodes(); ++id) {
    const Node& node = graph.node(id);
    if (node.type == OpType::kInput || node.type == OpType::kConstant) {
      continue;  // never executed, never recorded
    }
    std::unique_ptr<Cell>& cell = cells_[static_cast<std::size_t>(id)];
    if (cell == nullptr) {
      cell = std::make_unique<Cell>();
    }
    // Re-registration of a different graph over the same ids (a re-tuned variant)
    // re-labels the cell; the timing aggregates keep accumulating, which is the
    // behavior the per-kind rollup wants (labels follow the currently served graph).
    cell->type = node.type;
    cell->name = node.name;
    cell->kind = KindKey(node);
    cell->registered = true;
  }
}

void NodeProfiler::RecordNode(const Node& node, std::uint64_t nanos) {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  const std::size_t id = static_cast<std::size_t>(node.id);
  if (id >= cells_.size() || cells_[id] == nullptr) {
    return;  // node from an unregistered graph — drop rather than allocate on hot path
  }
  Cell& cell = *cells_[id];
  cell.nanos.fetch_add(nanos, std::memory_order_relaxed);
  cell.runs.fetch_add(1, std::memory_order_relaxed);
}

NodeProfileSnapshot NodeProfiler::Snapshot() const {
  NodeProfileSnapshot snap;
  snap.runs_total = runs_total_.load(std::memory_order_relaxed);
  snap.runs_sampled = runs_sampled_.load(std::memory_order_relaxed);
  std::map<std::string, OpKindProfile> by_kind;
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    for (std::size_t id = 0; id < cells_.size(); ++id) {
      const std::unique_ptr<Cell>& cell = cells_[id];
      if (cell == nullptr || !cell->registered) {
        continue;
      }
      const std::uint64_t runs = cell->runs.load(std::memory_order_relaxed);
      if (runs == 0) {
        continue;
      }
      NodeProfile profile;
      profile.node_id = static_cast<int>(id);
      profile.type = cell->type;
      profile.name = cell->name;
      profile.runs = runs;
      profile.total_ms =
          static_cast<double>(cell->nanos.load(std::memory_order_relaxed)) * 1e-6;
      snap.total_ms += profile.total_ms;
      OpKindProfile& kind = by_kind[cell->kind];
      kind.kind = cell->kind;
      kind.calls += runs;
      kind.total_ms += profile.total_ms;
      snap.nodes.push_back(std::move(profile));
    }
  }
  snap.by_kind.reserve(by_kind.size());
  for (auto& [key, kind] : by_kind) {
    snap.by_kind.push_back(std::move(kind));
  }
  std::sort(snap.by_kind.begin(), snap.by_kind.end(),
            [](const OpKindProfile& a, const OpKindProfile& b) {
              return a.total_ms > b.total_ms;
            });
  return snap;
}

void NodeProfiler::Reset() {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  for (std::unique_ptr<Cell>& cell : cells_) {
    if (cell != nullptr) {
      cell->nanos.store(0, std::memory_order_relaxed);
      cell->runs.store(0, std::memory_order_relaxed);
    }
  }
  runs_total_.store(0, std::memory_order_relaxed);
  runs_sampled_.store(0, std::memory_order_relaxed);
}

std::string NodeProfileSnapshot::ToString(std::size_t top_n) const {
  if (empty()) {
    return "profile: no sampled runs\n";
  }
  std::string out = StrFormat(
      "profile: %llu/%llu runs sampled, %.3f ms/run timed\n",
      static_cast<unsigned long long>(runs_sampled),
      static_cast<unsigned long long>(runs_total), PerRunMs());
  out += "  by op kind:\n";
  for (const OpKindProfile& kind : by_kind) {
    out += StrFormat("    %-28s %8llu calls %10.3f ms  %5.1f%%\n", kind.kind.c_str(),
                     static_cast<unsigned long long>(kind.calls), kind.total_ms,
                     total_ms > 0 ? 100.0 * kind.total_ms / total_ms : 0.0);
  }
  std::vector<const NodeProfile*> hottest;
  hottest.reserve(nodes.size());
  for (const NodeProfile& node : nodes) {
    hottest.push_back(&node);
  }
  std::sort(hottest.begin(), hottest.end(), [](const NodeProfile* a, const NodeProfile* b) {
    return a->total_ms > b->total_ms;
  });
  if (top_n > 0 && hottest.size() > top_n) {
    hottest.resize(top_n);
  }
  out += StrFormat("  hottest nodes (top %zu of %zu):\n", hottest.size(), nodes.size());
  for (const NodeProfile* node : hottest) {
    out += StrFormat("    n%-4d %-32s %10.3f ms  %5.1f%%  (%.1f us/run)\n",
                     node->node_id, node->name.c_str(), node->total_ms,
                     total_ms > 0 ? 100.0 * node->total_ms / total_ms : 0.0,
                     node->mean_us());
  }
  return out;
}

NodeProfileSnapshot MergeProfileSnapshots(const std::vector<NodeProfileSnapshot>& parts) {
  NodeProfileSnapshot merged;
  std::map<std::tuple<int, OpType, std::string>, NodeProfile> nodes;
  std::map<std::string, OpKindProfile> kinds;
  for (const NodeProfileSnapshot& part : parts) {
    merged.runs_total += part.runs_total;
    merged.runs_sampled += part.runs_sampled;
    merged.total_ms += part.total_ms;
    for (const NodeProfile& node : part.nodes) {
      NodeProfile& into = nodes[{node.node_id, node.type, node.name}];
      into.node_id = node.node_id;
      into.type = node.type;
      into.name = node.name;
      into.runs += node.runs;
      into.total_ms += node.total_ms;
    }
    for (const OpKindProfile& kind : part.by_kind) {
      OpKindProfile& into = kinds[kind.kind];
      into.kind = kind.kind;
      into.calls += kind.calls;
      into.total_ms += kind.total_ms;
    }
  }
  merged.nodes.reserve(nodes.size());
  for (auto& [key, node] : nodes) {
    merged.nodes.push_back(std::move(node));
  }
  merged.by_kind.reserve(kinds.size());
  for (auto& [key, kind] : kinds) {
    merged.by_kind.push_back(std::move(kind));
  }
  std::sort(merged.by_kind.begin(), merged.by_kind.end(),
            [](const OpKindProfile& a, const OpKindProfile& b) {
              return a.total_ms > b.total_ms;
            });
  return merged;
}

}  // namespace neocpu
