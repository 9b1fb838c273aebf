// Topology parsing against committed sysfs fixture trees, the NUMA-aware partition
// planner's invariants (node alignment, primary-before-sibling fill, the
// single-spanning-partition exception, the single-socket contiguous split, online cpus
// only), and the thread affinity a partition's pool applies.
#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#ifdef __linux__
#include <sched.h>
#endif

#include "src/obs/metrics.h"
#include "src/runtime/arena_pool.h"
#include "src/runtime/partition.h"
#include "src/runtime/thread_pool.h"
#include "src/runtime/topology.h"

namespace neocpu {
namespace {

std::string Fixture(const std::string& name) {
  return std::string(NEOCPU_SOURCE_DIR) + "/tests/fixtures/sysfs/" + name;
}

std::vector<int> NodeCpus(const CpuTopology& topo, int node) {
  for (const TopologyNode& record : topo.nodes()) {
    if (record.id == node) {
      return record.cpus;
    }
  }
  return {};
}

// Every plan must cover disjoint cpus, and every slice must stay inside its reported
// home node (which also means every planned cpu is online).
void CheckPlanInvariants(const std::vector<CorePartition>& plan,
                         const CpuTopology& topo) {
  std::set<int> seen;
  for (const CorePartition& part : plan) {
    EXPECT_FALSE(part.cpus.empty());
    for (int cpu : part.cpus) {
      EXPECT_TRUE(seen.insert(cpu).second) << "cpu " << cpu << " in two partitions";
      EXPECT_EQ(topo.NodeOfCpu(cpu), part.home_node)
          << "cpu " << cpu << " strays off home node " << part.home_node;
    }
  }
}

// ---------------------------------------------------------------- parsing

TEST(ParseCpuList, RangesCommasAndNoise) {
  EXPECT_EQ(ParseCpuList("0-3,8-11"),
            (std::vector<int>{0, 1, 2, 3, 8, 9, 10, 11}));
  EXPECT_EQ(ParseCpuList("7"), (std::vector<int>{7}));
  EXPECT_EQ(ParseCpuList(" 2 , 5 "), (std::vector<int>{2, 5}));
  EXPECT_EQ(ParseCpuList("1,1-2"), (std::vector<int>{1, 2}));  // dedup + sort
  EXPECT_EQ(ParseCpuList("x,7"), (std::vector<int>{7}));       // skip malformed chunk
  EXPECT_TRUE(ParseCpuList("").empty());
  EXPECT_TRUE(ParseCpuList("3-1").empty());  // inverted range produces nothing
}

TEST(TopologyParse, DualSocket) {
  const CpuTopology topo = CpuTopology::FromSysfs(Fixture("dual_socket"));
  EXPECT_EQ(topo.num_online_cpus(), 16);
  EXPECT_EQ(topo.num_nodes(), 2);
  EXPECT_EQ(topo.num_packages(), 2);
  EXPECT_TRUE(topo.multi_node());
  EXPECT_EQ(NodeCpus(topo, 0), (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(NodeCpus(topo, 1), (std::vector<int>{8, 9, 10, 11, 12, 13, 14, 15}));
  EXPECT_EQ(topo.NodeOfCpu(3), 0);
  EXPECT_EQ(topo.NodeOfCpu(12), 1);
  EXPECT_EQ(topo.FirstCpuOfNode(1), 8);
  // No hyperthreads: every cpu is the primary of its own core, LLC per socket.
  EXPECT_EQ(topo.num_primary_cpus(), 16);
  for (const LogicalCpu& cpu : topo.cpus()) {
    EXPECT_TRUE(cpu.primary);
    EXPECT_EQ(cpu.llc, cpu.id < 8 ? 0 : 8);
  }
}

TEST(TopologyParse, SingleSocket) {
  const CpuTopology topo = CpuTopology::FromSysfs(Fixture("single_socket"));
  EXPECT_EQ(topo.num_online_cpus(), 4);
  EXPECT_EQ(topo.num_nodes(), 1);
  EXPECT_FALSE(topo.multi_node());
  EXPECT_EQ(NodeCpus(topo, 0), (std::vector<int>{0, 1, 2, 3}));
}

TEST(TopologyParse, HyperthreadSiblings) {
  const CpuTopology topo = CpuTopology::FromSysfs(Fixture("ht_sibling"));
  EXPECT_EQ(topo.num_online_cpus(), 8);
  EXPECT_EQ(topo.num_primary_cpus(), 4);
  // Linux's split enumeration: primaries 0-3, their siblings 4-7.
  for (const LogicalCpu& cpu : topo.cpus()) {
    EXPECT_EQ(cpu.primary, cpu.id < 4) << "cpu " << cpu.id;
  }
  EXPECT_EQ(topo.nodes().front().primary_cpus, (std::vector<int>{0, 1, 2, 3}));
}

TEST(TopologyParse, HyperthreadDualSocket) {
  const CpuTopology topo = CpuTopology::FromSysfs(Fixture("ht_dual_socket"));
  EXPECT_EQ(topo.num_online_cpus(), 16);
  EXPECT_EQ(topo.num_nodes(), 2);
  EXPECT_EQ(topo.num_primary_cpus(), 8);
  EXPECT_EQ(NodeCpus(topo, 0), (std::vector<int>{0, 1, 2, 3, 8, 9, 10, 11}));
  EXPECT_EQ(NodeCpus(topo, 1), (std::vector<int>{4, 5, 6, 7, 12, 13, 14, 15}));
}

TEST(TopologyParse, OfflineCpuIsExcluded) {
  const CpuTopology topo = CpuTopology::FromSysfs(Fixture("offline_cpu"));
  EXPECT_EQ(topo.num_online_cpus(), 3);
  EXPECT_EQ(topo.NodeOfCpu(2), -1);  // offline cpu has no node
  EXPECT_EQ(NodeCpus(topo, 0), (std::vector<int>{0, 1, 3}));
}

TEST(TopologyParse, MissingNodeDirMeansOneNode) {
  const CpuTopology topo = CpuTopology::FromSysfs(Fixture("no_numa"));
  EXPECT_EQ(topo.num_online_cpus(), 4);
  EXPECT_EQ(topo.num_nodes(), 1);
  EXPECT_FALSE(topo.multi_node());
  EXPECT_EQ(topo.nodes().front().id, 0);
}

TEST(TopologyParse, MissingRootYieldsEmptyTopology) {
  const CpuTopology topo = CpuTopology::FromSysfs(Fixture("does_not_exist"));
  EXPECT_TRUE(topo.cpus().empty());
  EXPECT_EQ(topo.num_nodes(), 0);
}

TEST(TopologyParse, HostTopologyIsUsable) {
  // Whatever the host looks like, the cached topology must be non-degenerate: the
  // planner and the server build on these invariants.
  const CpuTopology& topo = HostTopology();
  EXPECT_GE(topo.num_online_cpus(), 1);
  EXPECT_GE(topo.num_nodes(), 1);
  for (const TopologyNode& node : topo.nodes()) {
    EXPECT_FALSE(node.cpus.empty());
  }
}

// ---------------------------------------------------------------- planner

TEST(PlanCorePartitions, SingleSocketMatchesLegacyContiguousSplit) {
  // Regression pin: on a single-node topology the plan is the pre-NUMA contiguous
  // split (earlier partitions absorb the remainder, home node 0), as cpu lists.
  struct Case {
    int partitions;
    int total;
    std::vector<std::vector<int>> expect;  // each partition's cpus
  };
  const Case cases[] = {
      {2, 8, {{0, 1, 2, 3}, {4, 5, 6, 7}}},
      {3, 8, {{0, 1, 2}, {3, 4, 5}, {6, 7}}},
      {1, 4, {{0, 1, 2, 3}}},
      {4, 4, {{0}, {1}, {2}, {3}}},
      {8, 4, {{0}, {1}, {2}, {3}}},  // clamped to one core each
      {2, 3, {{0, 1}, {2}}},
  };
  for (const Case& c : cases) {
    const std::vector<CorePartition> plan =
        PlanCorePartitions(c.partitions, c.total, CpuTopology::SingleNode(c.total));
    ASSERT_EQ(plan.size(), c.expect.size()) << c.partitions << "x" << c.total;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      EXPECT_EQ(plan[i].cpus, c.expect[i]) << c.partitions << "x" << c.total;
      EXPECT_EQ(plan[i].home_node, 0);
    }
  }
}

TEST(PlanCorePartitions, HostPlanUsesOnlyOnlineCpus) {
  // A budget larger than the host clamps to its online cpus: no worker is ever handed
  // a cpu it cannot bind to (the kernel would refuse and leave it floating).
  const CpuTopology& host = HostTopology();
  const std::pair<int, int> requests[] = {{3, 8}, {2, 0}, {1, 64}, {4, 4}, {2, 3}};
  for (const auto& [partitions, total] : requests) {
    const std::vector<CorePartition> plan = PlanCorePartitions(partitions, total);
    CheckPlanInvariants(plan, host);  // every cpu online, on its slice's home node
    std::size_t planned = 0;
    for (const CorePartition& part : plan) {
      planned += part.cpus.size();
    }
    EXPECT_LE(planned, static_cast<std::size_t>(host.num_online_cpus()))
        << partitions << "x" << total;
  }
}

TEST(PlanCorePartitions, DualSocketOnePartitionPerNode) {
  const CpuTopology topo = CpuTopology::FromSysfs(Fixture("dual_socket"));
  const std::vector<CorePartition> plan = PlanCorePartitions(2, 16, topo);
  ASSERT_EQ(plan.size(), 2u);
  CheckPlanInvariants(plan, topo);
  EXPECT_EQ(plan[0].home_node, 0);
  EXPECT_EQ(plan[0].cpus, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(plan[1].home_node, 1);
  EXPECT_EQ(plan[1].cpus, (std::vector<int>{8, 9, 10, 11, 12, 13, 14, 15}));
}

TEST(PlanCorePartitions, MorePartitionsThanNodes) {
  const CpuTopology topo = CpuTopology::FromSysfs(Fixture("dual_socket"));
  // 4 partitions over 2 nodes: two per node, none straddling.
  std::vector<CorePartition> plan = PlanCorePartitions(4, 16, topo);
  ASSERT_EQ(plan.size(), 4u);
  CheckPlanInvariants(plan, topo);
  for (const CorePartition& part : plan) {
    EXPECT_EQ(part.cpus.size(), 4u);
  }
  // An odd count still never straddles: 3 partitions land 2 on one node, 1 on the
  // other, and every slice keeps a single home node.
  plan = PlanCorePartitions(3, 16, topo);
  ASSERT_EQ(plan.size(), 3u);
  CheckPlanInvariants(plan, topo);
  int total_cpus = 0;
  for (const CorePartition& part : plan) {
    total_cpus += static_cast<int>(part.cpus.size());
  }
  EXPECT_EQ(total_cpus, 16);
}

TEST(PlanCorePartitions, UnevenNodesSplitProportionally) {
  const CpuTopology topo = CpuTopology::FromSysfs(Fixture("dual_socket_uneven"));
  // Node 0 holds 6 cpus, node 1 holds 4: two partitions land one per node with the
  // node's full width.
  std::vector<CorePartition> plan = PlanCorePartitions(2, 10, topo);
  ASSERT_EQ(plan.size(), 2u);
  CheckPlanInvariants(plan, topo);
  EXPECT_EQ(plan[0].home_node, 0);
  EXPECT_EQ(plan[0].cpus.size(), 6u);
  EXPECT_EQ(plan[1].home_node, 1);
  EXPECT_EQ(plan[1].cpus.size(), 4u);
  // Five partitions apportion 3:2 by capacity.
  plan = PlanCorePartitions(5, 10, topo);
  ASSERT_EQ(plan.size(), 5u);
  CheckPlanInvariants(plan, topo);
  int on_node0 = 0;
  for (const CorePartition& part : plan) {
    on_node0 += part.home_node == 0 ? 1 : 0;
  }
  EXPECT_EQ(on_node0, 3);
}

TEST(PlanCorePartitions, SinglePartitionPrefersOneNodeThenSpans) {
  const CpuTopology topo = CpuTopology::FromSysfs(Fixture("dual_socket"));
  // Fits the largest node: stays node-local.
  std::vector<CorePartition> plan = PlanCorePartitions(1, 8, topo);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].cpus, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(plan[0].home_node, 0);
  // Needs the whole host: the documented exception — one partition may straddle.
  plan = PlanCorePartitions(1, 16, topo);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].cpus.size(), 16u);
}

TEST(PlanCorePartitions, PrimariesBeforeHyperthreadSiblings) {
  const CpuTopology topo = CpuTopology::FromSysfs(Fixture("ht_dual_socket"));
  // 8 workers over 2 nodes: each partition takes its node's 4 physical cores and no
  // HT siblings.
  const std::vector<CorePartition> plan = PlanCorePartitions(2, 8, topo);
  ASSERT_EQ(plan.size(), 2u);
  CheckPlanInvariants(plan, topo);
  EXPECT_EQ(plan[0].cpus, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(plan[1].cpus, (std::vector<int>{4, 5, 6, 7}));
  // Oversubscribed past the primaries, siblings join their own node's slice.
  const std::vector<CorePartition> full = PlanCorePartitions(2, 16, topo);
  CheckPlanInvariants(full, topo);
  EXPECT_EQ(full[0].cpus.size(), 8u);
  EXPECT_EQ(full[1].cpus.size(), 8u);
}

TEST(PlanCorePartitions, WorkerBudgetClampsToCapacity) {
  const CpuTopology topo = CpuTopology::FromSysfs(Fixture("dual_socket"));
  const std::vector<CorePartition> plan = PlanCorePartitions(2, 64, topo);
  int total = 0;
  for (const CorePartition& part : plan) {
    total += static_cast<int>(part.cpus.size());
  }
  EXPECT_EQ(total, 16) << "budget beyond the host clamps to online cpus";
}

// ---------------------------------------------------------------- pools + arena

#ifdef __linux__
// The calling thread's affinity mask, ascending cpu ids.
std::vector<int> ThreadAffinity() {
  cpu_set_t set;
  CPU_ZERO(&set);
  EXPECT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) {
      cpus.push_back(cpu);
    }
  }
  return cpus;
}
#endif

TEST(NeoThreadPool, WidthOnePoolPinsItsThreadOnlyWhenBound) {
#ifndef __linux__
  GTEST_SKIP() << "thread affinity is read through sched_getaffinity";
#else
  // A cpu this process may run on, so the kernel cannot refuse the bind.
  const int cpu = ThreadAffinity().back();
  std::vector<int> bound_mask;
  std::thread::id ran_on;
  std::thread::id builder;
  std::thread([&] {
    builder = std::this_thread::get_id();
    NeoThreadPool pool(1, /*bind_threads=*/true, {cpu});
    pool.ParallelRun(3, [&](int, int) { ran_on = std::this_thread::get_id(); });
    bound_mask = ThreadAffinity();
  }).join();
  EXPECT_EQ(bound_mask, std::vector<int>{cpu}) << "a bound pool pins exactly its cpu";
  EXPECT_EQ(ran_on, builder) << "a width-1 pool runs regions inline";

  std::vector<int> before;
  std::vector<int> after;
  std::thread([&] {
    before = ThreadAffinity();
    NeoThreadPool pool(1, /*bind_threads=*/false, {cpu});
    pool.ParallelRun(1, [](int, int) {});
    after = ThreadAffinity();
  }).join();
  EXPECT_EQ(after, before) << "an unbound pool leaves the mask alone";
#endif
}

TEST(Arena, NodeBoundArenaReportsPerNodeGauge) {
  Gauge* gauge = MetricsRegistry::Global().GetGauge(
      "neocpu_arena_bytes_node_0", "Arena bytes resident on NUMA node 0");
  const double before = gauge->Value();
  {
    Arena arena;
    arena.set_home_node(0);
    arena.Reserve(1 << 16);
    EXPECT_GE(gauge->Value(), before + (1 << 16));
    // Growth moves the accounting, never double-counts.
    arena.Reserve(1 << 18);
    EXPECT_GE(gauge->Value(), before + (1 << 18));
  }
  EXPECT_DOUBLE_EQ(gauge->Value(), before);  // destructor returns the bytes
}

TEST(Arena, LateNodeBindMovesAccounting) {
  Gauge* node0 = MetricsRegistry::Global().GetGauge(
      "neocpu_arena_bytes_node_0", "Arena bytes resident on NUMA node 0");
  const double before = node0->Value();
  Arena arena;
  arena.Reserve(4096);  // unbound: no node gauge yet
  EXPECT_DOUBLE_EQ(node0->Value(), before);
  arena.set_home_node(0);
  arena.Reserve(8192);  // first bound growth claims the full capacity
  EXPECT_GE(node0->Value(), before + 8192);
}

}  // namespace
}  // namespace neocpu
