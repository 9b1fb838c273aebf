// CPU / NUMA topology discovery.
//
// The partition planner (src/runtime/partition.h) needs to know which logical CPUs
// share a socket, a NUMA node, and a last-level cache, and which are hyperthread
// siblings of the same physical core — a partition that straddles a NUMA boundary
// pays a cross-interconnect hop on every weight and arena access (Proximu$ argues
// DNN inference scaling on multi-core CPUs is exactly this bandwidth/cache-topology
// bound). This module parses the kernel's sysfs description of the machine:
//
//   /sys/devices/system/cpu/online                         which cpus exist
//   /sys/devices/system/cpu/cpuN/topology/…                package / core / siblings
//   /sys/devices/system/cpu/cpuN/cache/index3/…            LLC sharing domains
//   /sys/devices/system/node/nodeN/cpulist                 NUMA node membership
//
// The sysfs root is injectable (FromSysfs takes any directory laid out like /sys),
// so the parser is unit-tested against committed fixture trees without needing
// multi-socket hardware. Hosts without a node directory (kernels built !CONFIG_NUMA,
// non-Linux) degrade to a single node holding every online cpu.
#ifndef NEOCPU_SRC_RUNTIME_TOPOLOGY_H_
#define NEOCPU_SRC_RUNTIME_TOPOLOGY_H_

#include <cstddef>
#include <string>
#include <vector>

namespace neocpu {

// One logical CPU as the kernel describes it.
struct LogicalCpu {
  int id = 0;
  int package = 0;  // physical_package_id (socket)
  int node = 0;     // NUMA node
  int core = 0;     // core_id within the package
  int llc = 0;      // last-level-cache domain (smallest cpu id sharing the LLC)
  bool online = true;
  // True for the smallest-id online sibling of its physical core — the "physical"
  // cpu the planner prefers; false for hyperthread siblings.
  bool primary = true;
};

// One NUMA node and its online cpus, ascending.
struct TopologyNode {
  int id = 0;
  std::vector<int> cpus;          // every online cpu on this node
  std::vector<int> primary_cpus;  // the primary (non-HT-sibling) subset
};

class CpuTopology {
 public:
  // Parses a sysfs-shaped tree rooted at `sysfs_root` (i.e. the directory holding
  // devices/system/cpu). Unknown or partial trees degrade: missing per-cpu topology
  // files default to package 0 / unique cores, a missing node directory collapses to
  // one node spanning every online cpu, and a tree with no cpus at all yields an
  // empty topology (callers fall back to SingleNode).
  static CpuTopology FromSysfs(const std::string& sysfs_root);

  // Synthetic single-node topology of `num_cpus` online cpus 0..num_cpus-1 — the
  // non-Linux / unreadable-sysfs fallback.
  static CpuTopology SingleNode(int num_cpus);

  // Every discovered cpu (including offline ones), ascending by id.
  const std::vector<LogicalCpu>& cpus() const { return cpus_; }
  // NUMA nodes with at least one online cpu, ascending by id.
  const std::vector<TopologyNode>& nodes() const { return nodes_; }

  int num_online_cpus() const;
  int num_primary_cpus() const;
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_packages() const;
  bool multi_node() const { return nodes_.size() > 1; }

  // NUMA node of an online cpu; -1 for offline or unknown ids.
  int NodeOfCpu(int cpu) const;
  // First online cpu of `node`; -1 when the node is unknown or empty. Threads that
  // want node-local first-touch bind here before touching pages.
  int FirstCpuOfNode(int node) const;

 private:
  void RebuildNodes();

  std::vector<LogicalCpu> cpus_;
  std::vector<TopologyNode> nodes_;
};

// The host's topology, parsed from /sys once and cached for the process lifetime.
// Falls back to SingleNode(hardware concurrency) when /sys is unreadable.
const CpuTopology& HostTopology();

// Parses the kernel's cpulist format ("0-3,8-11,16") into ascending cpu ids.
// Malformed chunks are skipped; whitespace is tolerated.
std::vector<int> ParseCpuList(const std::string& text);

// Best-effort: pins the calling thread to one cpu. Returns false when the platform
// has no affinity API or the kernel refuses (cpuset-restricted process); failure
// leaves the thread floating, never errors.
bool BindCurrentThreadToCpu(int cpu);
// The same for a set of cpus (false when `cpus` is empty).
bool BindCurrentThreadToCpus(const std::vector<int>& cpus);

// The calling thread's affinity mask as ascending cpu ids; empty when the platform has
// no affinity API or the query fails.
std::vector<int> CurrentThreadCpus();

// Best-effort: binds the pages of [addr, addr+len) to `node` with a preferred-node
// memory policy (raw mbind(2) — no libnuma dependency). Call before first touch.
// Returns false on non-Linux, kernels without NUMA, or policy failure; pages then
// fall back to default first-touch placement, which the arena's pre-fault already
// does on the right thread.
bool TryBindMemoryToNode(void* addr, std::size_t len, int node);

}  // namespace neocpu

#endif  // NEOCPU_SRC_RUNTIME_TOPOLOGY_H_
