#include "src/core/memory_plan.h"

#include <algorithm>
#include <map>

#include "src/base/align.h"
#include "src/base/logging.h"
#include "src/base/string_util.h"
#include "src/core/op_dispatch.h"

namespace neocpu {
namespace {

std::size_t AlignUp(std::size_t bytes) {
  return (bytes + kSimdAlignBytes - 1) / kSimdAlignBytes * kSimdAlignBytes;
}

// Offset allocator over one conceptual arena: best-fit on freed intervals (smallest
// sufficient hole, lowest offset on ties), growing the arena end only when no hole
// fits. Freed neighbors coalesce, and a freed tail shrinks the end, so the peak tracks
// the true simultaneous footprint.
class IntervalAllocator {
 public:
  std::size_t Alloc(std::size_t bytes) {
    auto best = free_.end();
    for (auto it = free_.begin(); it != free_.end(); ++it) {
      if (it->second >= bytes && (best == free_.end() || it->second < best->second)) {
        best = it;
      }
    }
    if (best != free_.end()) {
      const std::size_t offset = best->first;
      const std::size_t hole = best->second;
      free_.erase(best);
      if (hole > bytes) {
        free_.emplace(offset + bytes, hole - bytes);
      }
      return offset;
    }
    const std::size_t offset = end_;
    end_ += bytes;
    peak_ = std::max(peak_, end_);
    return offset;
  }

  void Free(std::size_t offset, std::size_t bytes) {
    if (bytes == 0) {
      return;
    }
    auto [it, inserted] = free_.emplace(offset, bytes);
    NEOCPU_CHECK(inserted) << "double free at arena offset " << offset;
    // Coalesce with the successor, then the predecessor.
    auto next = std::next(it);
    if (next != free_.end() && it->first + it->second == next->first) {
      it->second += next->second;
      free_.erase(next);
    }
    if (it != free_.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second == it->first) {
        prev->second += it->second;
        free_.erase(it);
        it = prev;
      }
    }
    if (it->first + it->second == end_) {
      end_ = it->first;
      free_.erase(it);
    }
  }

  std::size_t peak() const { return peak_; }

 private:
  std::map<std::size_t, std::size_t> free_;  // offset -> hole size
  std::size_t end_ = 0;
  std::size_t peak_ = 0;
};

std::size_t OutputBytes(const std::vector<std::int64_t>& dims, DType dtype) {
  std::int64_t count = 1;
  for (std::int64_t d : dims) {
    count *= d;
  }
  return static_cast<std::size_t>(count) * ElemSizeBytes(dtype);
}

// Elementwise ops that may write their output over their (dying, same-size) first
// input: same-index reads and writes, no reordering, no __restrict in the kernels.
bool SupportsInPlace(const Node& node) {
  switch (node.type) {
    case OpType::kRelu:
    case OpType::kScaleShift:
    case OpType::kElemAdd:
      return true;
    default:
      return false;
  }
}

struct Liveness {
  std::vector<int> root;      // alias-resolved buffer owner per node
  std::vector<int> last_use;  // per root: id of the last node reading the buffer
  std::vector<bool> escapes;  // per root: referenced by the graph's outputs
};

Liveness AnalyzeLiveness(const Graph& g) {
  const int n = g.num_nodes();
  Liveness live;
  live.root.resize(static_cast<std::size_t>(n));
  live.last_use.assign(static_cast<std::size_t>(n), -1);
  live.escapes.assign(static_cast<std::size_t>(n), false);

  for (int id = 0; id < n; ++id) {
    const Node& node = g.node(id);
    const int alias = AliasedInput(node, g);
    live.root[static_cast<std::size_t>(id)] =
        alias >= 0 ? live.root[static_cast<std::size_t>(node.inputs[static_cast<std::size_t>(alias)])]
                   : id;
    // A node reads every one of its inputs' buffers while it executes.
    for (int input : node.inputs) {
      const int r = live.root[static_cast<std::size_t>(input)];
      live.last_use[static_cast<std::size_t>(r)] =
          std::max(live.last_use[static_cast<std::size_t>(r)], id);
    }
  }
  for (int out : g.outputs()) {
    live.escapes[static_cast<std::size_t>(live.root[static_cast<std::size_t>(out)])] = true;
  }
  return live;
}

// The placement pass shared by PlanMemory and PlanHeapOnly. Aliases resolve to their
// root; inputs and constants stay externally owned (kHeap, uncounted); escaping outputs
// are kHeap; every other materializing node is kArena. Every materializing node gets its
// output view's dims/layout/dtype and its workspace size. No offsets yet.
ExecutionPlan ClassifyNodes(const Graph& g, const Liveness& live) {
  ExecutionPlan plan;
  plan.nodes.resize(static_cast<std::size_t>(g.num_nodes()));
  for (int id = 0; id < g.num_nodes(); ++id) {
    const Node& node = g.node(id);
    NodePlan& np = plan.nodes[static_cast<std::size_t>(id)];
    const int root = live.root[static_cast<std::size_t>(id)];
    if (root != id) {
      np.placement = BufferPlacement::kAlias;
      np.alias_of = root;
      ++plan.alias_nodes;
      continue;
    }
    if (node.type == OpType::kInput || node.type == OpType::kConstant) {
      np.placement = BufferPlacement::kHeap;
      continue;
    }
    np.dims = MakeSharedDims(PlannedOutputDims(node));
    np.layout = PlannedOutputLayout(node);
    np.dtype = node.out_dtype;
    np.workspace_bytes = AlignUp(NodeWorkspaceBytes(node));
    if (live.escapes[static_cast<std::size_t>(id)]) {
      np.placement = BufferPlacement::kHeap;  // outlives the Run, so owns its storage
      ++plan.heap_nodes;
    } else {
      np.placement = BufferPlacement::kArena;
      np.size_bytes = AlignUp(OutputBytes(*np.dims, np.dtype));
      ++plan.arena_nodes;
    }
  }
  return plan;
}

}  // namespace

ExecutionPlan PlanHeapOnly(const Graph& g) {
  ExecutionPlan plan = ClassifyNodes(g, AnalyzeLiveness(g));
  for (NodePlan& np : plan.nodes) {
    if (np.placement == BufferPlacement::kArena) {
      np.placement = BufferPlacement::kHeap;
      np.size_bytes = 0;
    }
  }
  plan.heap_nodes += plan.arena_nodes;
  plan.arena_nodes = 0;
  return plan;
}

ExecutionPlan PlanMemory(const Graph& g) {
  const int n = g.num_nodes();
  const Liveness live = AnalyzeLiveness(g);
  ExecutionPlan plan = ClassifyNodes(g, live);

  // Greedy offset assignment in execution (topological id) order. Within one node's
  // timestep the output, the workspace, and every input buffer coexist; inputs whose
  // last consumer is this node are released only after it runs. Workspaces are placed
  // for every materializing node, heap-placed outputs included.
  //
  // In-place elementwise: a ReLU/ScaleShift/ElemAdd whose first input is an
  // arena-placed buffer of identical size that DIES at this node writes straight over
  // it — the input's interval transfers to the output instead of being freed, which
  // shaves one live buffer off the peak exactly where elementwise chains would
  // otherwise double-buffer.
  IntervalAllocator alloc;
  std::vector<char> transferred(static_cast<std::size_t>(n), 0);
  for (int id = 0; id < n; ++id) {
    const Node& node = g.node(id);
    NodePlan& np = plan.nodes[static_cast<std::size_t>(id)];
    if (np.placement == BufferPlacement::kArena) {
      int reuse = -1;
      if (SupportsInPlace(node)) {
        const int r = live.root[static_cast<std::size_t>(node.inputs[0])];
        const NodePlan& rp = plan.nodes[static_cast<std::size_t>(r)];
        if (rp.placement == BufferPlacement::kArena &&
            !transferred[static_cast<std::size_t>(r)] &&
            live.last_use[static_cast<std::size_t>(r)] == id &&
            rp.size_bytes == np.size_bytes) {
          reuse = r;
        }
      }
      if (reuse >= 0) {
        np.offset = plan.nodes[static_cast<std::size_t>(reuse)].offset;
        np.in_place_of = reuse;
        transferred[static_cast<std::size_t>(reuse)] = 1;
        ++plan.in_place_nodes;
      } else {
        np.offset = alloc.Alloc(np.size_bytes);
      }
      plan.naive_bytes += np.size_bytes;
    }
    // The workspace dies with the node; the output dies when its last consumer ran.
    if (np.workspace_bytes > 0) {
      np.workspace_offset = alloc.Alloc(np.workspace_bytes);
      plan.naive_bytes += np.workspace_bytes;
      alloc.Free(np.workspace_offset, np.workspace_bytes);
    }
    // A transferred buffer is never freed directly: its bytes free when the in-place
    // chain's final owner dies (same offset and size along the whole chain).
    for (int r = 0; r <= id; ++r) {
      const NodePlan& rp = plan.nodes[static_cast<std::size_t>(r)];
      if (rp.placement == BufferPlacement::kArena &&
          !transferred[static_cast<std::size_t>(r)] &&
          std::max(live.last_use[static_cast<std::size_t>(r)], r) == id) {
        alloc.Free(rp.offset, rp.size_bytes);
      }
    }
  }
  plan.arena_bytes = alloc.peak();
  return plan;
}

bool ValidatePlan(const Graph& g, const ExecutionPlan& plan,
                  std::vector<std::string>* errors) {
  bool ok = true;
  auto fail = [&](std::string msg) {
    ok = false;
    if (errors != nullptr) {
      errors->push_back(std::move(msg));
    }
  };
  const int n = g.num_nodes();
  if (static_cast<int>(plan.nodes.size()) != n) {
    fail("plan size mismatch");
    return false;
  }
  const Liveness live = AnalyzeLiveness(g);

  // Collect every arena interval with its live range [def, release].
  struct LiveInterval {
    int def, release;
    std::size_t offset, bytes;
    int node;
  };
  std::vector<LiveInterval> intervals;
  for (int id = 0; id < n; ++id) {
    const Node& node = g.node(id);
    const NodePlan& np = plan.nodes[static_cast<std::size_t>(id)];
    switch (np.placement) {
      case BufferPlacement::kArena: {
        if (live.escapes[static_cast<std::size_t>(id)]) {
          fail(StrFormat("node %d (%s) escapes via graph outputs but is arena-placed", id,
                         node.name.c_str()));
        }
        if (np.offset + np.size_bytes > plan.arena_bytes) {
          fail(StrFormat("node %d output [%zu, %zu) exceeds arena of %zu bytes", id,
                         np.offset, np.offset + np.size_bytes, plan.arena_bytes));
        }
        if (np.in_place_of >= 0) {
          // In-place reuse is only sound when the op tolerates output==input, the
          // reused buffer dies exactly here, and the byte ranges coincide.
          const NodePlan& rp = plan.nodes[static_cast<std::size_t>(np.in_place_of)];
          if (!SupportsInPlace(node)) {
            fail(StrFormat("node %d (%s) claims in-place but op cannot alias its input",
                           id, node.name.c_str()));
          }
          if (live.root[static_cast<std::size_t>(node.inputs[0])] != np.in_place_of) {
            fail(StrFormat("node %d in-place target %d is not its first input's buffer",
                           id, np.in_place_of));
          }
          if (live.last_use[static_cast<std::size_t>(np.in_place_of)] != id) {
            fail(StrFormat("node %d overwrites buffer %d which outlives it", id,
                           np.in_place_of));
          }
          if (rp.offset != np.offset || rp.size_bytes != np.size_bytes) {
            fail(StrFormat("node %d in-place bytes differ from buffer %d's", id,
                           np.in_place_of));
          }
        }
        const int release = std::max(live.last_use[static_cast<std::size_t>(id)], id);
        intervals.push_back({id, release, np.offset, np.size_bytes, id});
        break;
      }
      case BufferPlacement::kAlias: {
        if (np.alias_of < 0 || np.alias_of >= n) {
          fail(StrFormat("node %d alias target %d out of range", id, np.alias_of));
        } else if (np.alias_of != live.root[static_cast<std::size_t>(id)]) {
          fail(StrFormat("node %d aliases %d but liveness says root %d", id, np.alias_of,
                         live.root[static_cast<std::size_t>(id)]));
        }
        break;
      }
      case BufferPlacement::kHeap:
        break;
    }
    // Workspaces live in the arena whenever the plan has one (a heap-only plan backs
    // them per execution instead).
    if (np.workspace_bytes > 0 && plan.arena_bytes > 0) {
      if (np.workspace_offset + np.workspace_bytes > plan.arena_bytes) {
        fail(StrFormat("node %d workspace exceeds arena", id));
      }
      intervals.push_back({id, id, np.workspace_offset, np.workspace_bytes, id});
    }
  }

  // Concurrently-live intervals must not overlap in bytes. Two intervals are
  // simultaneously live when their [def, release] ranges intersect — a buffer released
  // at timestep t and one defined at t DO coexist (the consumer reads the former while
  // the latter is its output), which is exactly the aliasing hazard this guards.
  auto in_place_pair = [&](int a, int b) {
    return plan.nodes[static_cast<std::size_t>(a)].in_place_of == b ||
           plan.nodes[static_cast<std::size_t>(b)].in_place_of == a;
  };
  for (std::size_t a = 0; a < intervals.size(); ++a) {
    for (std::size_t b = a + 1; b < intervals.size(); ++b) {
      const LiveInterval& x = intervals[a];
      const LiveInterval& y = intervals[b];
      const bool time_overlap = x.def <= y.release && y.def <= x.release;
      const bool byte_overlap = x.offset < y.offset + y.bytes && y.offset < x.offset + x.bytes;
      if (time_overlap && byte_overlap && !in_place_pair(x.node, y.node)) {
        fail(StrFormat("nodes %d and %d: live intervals overlap in the arena", x.node,
                       y.node));
      }
    }
  }
  return ok;
}

std::string ExecutionPlan::ToString() const {
  std::string out = StrFormat(
      "ExecutionPlan: arena=%zu naive=%zu (%d arena [%d in-place], %d alias, %d heap)\n",
      arena_bytes, naive_bytes, arena_nodes, in_place_nodes, alias_nodes, heap_nodes);
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    const NodePlan& np = nodes[id];
    switch (np.placement) {
      case BufferPlacement::kArena:
        out += StrFormat("  %3zu arena [%zu, %zu)", id, np.offset, np.offset + np.size_bytes);
        if (np.in_place_of >= 0) {
          out += StrFormat(" in-place of %d", np.in_place_of);
        }
        if (np.workspace_bytes > 0) {
          out += StrFormat(" ws [%zu, %zu)", np.workspace_offset,
                           np.workspace_offset + np.workspace_bytes);
        }
        out += "\n";
        break;
      case BufferPlacement::kAlias:
        out += StrFormat("  %3zu alias -> %d\n", id, np.alias_of);
        break;
      case BufferPlacement::kHeap:
        if (np.workspace_bytes > 0 && arena_bytes > 0) {
          out += StrFormat("  %3zu heap ws [%zu, %zu)\n", id, np.workspace_offset,
                           np.workspace_offset + np.workspace_bytes);
        }
        break;
    }
  }
  return out;
}

}  // namespace neocpu
