#include "src/runtime/topology.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#ifdef __linux__
#include <dirent.h>
#include <pthread.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "src/base/cpu_info.h"

namespace neocpu {
namespace {

// First line of a sysfs attribute file, without the trailing newline. Empty when the
// file is missing or unreadable — every caller treats that as "attribute absent".
std::string ReadSysfsFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return "";
  }
  std::string line;
  std::getline(in, line);
  return line;
}

bool ReadSysfsInt(const std::string& path, int* out) {
  const std::string text = ReadSysfsFile(path);
  if (text.empty()) {
    return false;
  }
  try {
    *out = std::stoi(text);
  } catch (...) {
    return false;
  }
  return true;
}

// Directory entries matching `prefix` + decimal suffix ("cpu17", "node1"), as the
// parsed suffixes, ascending. Empty when the directory is missing.
std::vector<int> ListNumberedEntries(const std::string& dir, const std::string& prefix) {
  std::vector<int> ids;
#ifdef __linux__
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) {
    return ids;
  }
  while (dirent* entry = readdir(d)) {
    const std::string name = entry->d_name;
    if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    bool digits = true;
    for (std::size_t i = prefix.size(); i < name.size(); ++i) {
      if (!std::isdigit(static_cast<unsigned char>(name[i]))) {
        digits = false;
        break;
      }
    }
    if (digits) {
      ids.push_back(std::stoi(name.substr(prefix.size())));
    }
  }
  closedir(d);
  std::sort(ids.begin(), ids.end());
#else
  (void)dir;
  (void)prefix;
#endif
  return ids;
}

}  // namespace

std::vector<int> ParseCpuList(const std::string& text) {
  std::vector<int> cpus;
  std::stringstream stream(text);
  std::string chunk;
  while (std::getline(stream, chunk, ',')) {
    // Trim whitespace; sysfs lists are tight but fixture files may not be.
    const std::size_t begin = chunk.find_first_not_of(" \t\r\n");
    const std::size_t end = chunk.find_last_not_of(" \t\r\n");
    if (begin == std::string::npos) {
      continue;
    }
    chunk = chunk.substr(begin, end - begin + 1);
    const std::size_t dash = chunk.find('-');
    try {
      if (dash == std::string::npos) {
        cpus.push_back(std::stoi(chunk));
      } else {
        const int lo = std::stoi(chunk.substr(0, dash));
        const int hi = std::stoi(chunk.substr(dash + 1));
        for (int c = lo; c <= hi; ++c) {
          cpus.push_back(c);
        }
      }
    } catch (...) {
      // Malformed chunk: skip it, keep whatever else parses.
    }
  }
  std::sort(cpus.begin(), cpus.end());
  cpus.erase(std::unique(cpus.begin(), cpus.end()), cpus.end());
  return cpus;
}

CpuTopology CpuTopology::FromSysfs(const std::string& sysfs_root) {
  CpuTopology topo;
  const std::string cpu_dir = sysfs_root + "/devices/system/cpu";
  const std::vector<int> cpu_ids = ListNumberedEntries(cpu_dir, "cpu");
  if (cpu_ids.empty()) {
    return topo;
  }

  // Which cpus are online: the global mask when present, else every enumerated cpu
  // (kernels always expose the file, but fixture trees may omit it).
  std::set<int> online(cpu_ids.begin(), cpu_ids.end());
  const std::string online_text = ReadSysfsFile(cpu_dir + "/online");
  if (!online_text.empty()) {
    const std::vector<int> list = ParseCpuList(online_text);
    online = std::set<int>(list.begin(), list.end());
  }

  for (int id : cpu_ids) {
    const std::string base = cpu_dir + "/cpu" + std::to_string(id);
    LogicalCpu cpu;
    cpu.id = id;
    cpu.online = online.count(id) > 0;
    if (!ReadSysfsInt(base + "/topology/physical_package_id", &cpu.package)) {
      cpu.package = 0;
    }
    if (!ReadSysfsInt(base + "/topology/core_id", &cpu.core)) {
      cpu.core = id;  // no core info: every cpu is its own core (no HT detected)
    }
    // Hyperthread detection: the smallest ONLINE sibling of a core is the primary;
    // the rest are HT siblings the planner only uses once primaries run out.
    std::string siblings_text = ReadSysfsFile(base + "/topology/core_cpus_list");
    if (siblings_text.empty()) {
      siblings_text = ReadSysfsFile(base + "/topology/thread_siblings_list");
    }
    cpu.primary = true;
    if (!siblings_text.empty()) {
      for (int sibling : ParseCpuList(siblings_text)) {
        if (sibling < id && online.count(sibling) > 0) {
          cpu.primary = false;
          break;
        }
      }
    }
    // LLC domain: the smallest cpu sharing the last-level cache. index3 (L3) when
    // present, else index2 — matching how cpu_info sizes the caches.
    std::string llc_text = ReadSysfsFile(base + "/cache/index3/shared_cpu_list");
    if (llc_text.empty()) {
      llc_text = ReadSysfsFile(base + "/cache/index2/shared_cpu_list");
    }
    if (!llc_text.empty()) {
      const std::vector<int> shared = ParseCpuList(llc_text);
      cpu.llc = shared.empty() ? id : shared.front();
    } else {
      cpu.llc = cpu.package;  // no cache info: assume one LLC per socket
    }
    topo.cpus_.push_back(cpu);
  }

  // NUMA membership. A missing node directory (CONFIG_NUMA=n) means one node.
  const std::string node_dir = sysfs_root + "/devices/system/node";
  bool any_node = false;
  for (int node_id : ListNumberedEntries(node_dir, "node")) {
    const std::string cpulist =
        ReadSysfsFile(node_dir + "/node" + std::to_string(node_id) + "/cpulist");
    if (cpulist.empty()) {
      continue;  // memory-only node: no cpus to plan over
    }
    any_node = true;
    for (int cpu : ParseCpuList(cpulist)) {
      for (LogicalCpu& record : topo.cpus_) {
        if (record.id == cpu) {
          record.node = node_id;
        }
      }
    }
  }
  if (!any_node) {
    for (LogicalCpu& record : topo.cpus_) {
      record.node = 0;
    }
  }

  topo.RebuildNodes();
  return topo;
}

CpuTopology CpuTopology::SingleNode(int num_cpus) {
  CpuTopology topo;
  if (num_cpus < 1) {
    num_cpus = 1;
  }
  topo.cpus_.reserve(static_cast<std::size_t>(num_cpus));
  for (int id = 0; id < num_cpus; ++id) {
    LogicalCpu cpu;
    cpu.id = id;
    cpu.core = id;
    cpu.llc = 0;
    topo.cpus_.push_back(cpu);
  }
  topo.RebuildNodes();
  return topo;
}

void CpuTopology::RebuildNodes() {
  nodes_.clear();
  std::map<int, TopologyNode> by_id;
  for (const LogicalCpu& cpu : cpus_) {
    if (!cpu.online) {
      continue;
    }
    TopologyNode& node = by_id[cpu.node];
    node.id = cpu.node;
    node.cpus.push_back(cpu.id);
    if (cpu.primary) {
      node.primary_cpus.push_back(cpu.id);
    }
  }
  nodes_.reserve(by_id.size());
  for (auto& [id, node] : by_id) {
    std::sort(node.cpus.begin(), node.cpus.end());
    std::sort(node.primary_cpus.begin(), node.primary_cpus.end());
    nodes_.push_back(std::move(node));
  }
}

int CpuTopology::num_online_cpus() const {
  int count = 0;
  for (const LogicalCpu& cpu : cpus_) {
    count += cpu.online ? 1 : 0;
  }
  return count;
}

int CpuTopology::num_primary_cpus() const {
  int count = 0;
  for (const LogicalCpu& cpu : cpus_) {
    count += (cpu.online && cpu.primary) ? 1 : 0;
  }
  return count;
}

int CpuTopology::num_packages() const {
  std::set<int> packages;
  for (const LogicalCpu& cpu : cpus_) {
    if (cpu.online) {
      packages.insert(cpu.package);
    }
  }
  return static_cast<int>(packages.size());
}

int CpuTopology::NodeOfCpu(int cpu) const {
  for (const LogicalCpu& record : cpus_) {
    if (record.id == cpu) {
      return record.online ? record.node : -1;
    }
  }
  return -1;
}

int CpuTopology::FirstCpuOfNode(int node) const {
  for (const TopologyNode& record : nodes_) {
    if (record.id == node) {
      return record.cpus.empty() ? -1 : record.cpus.front();
    }
  }
  return -1;
}

const CpuTopology& HostTopology() {
  static const CpuTopology* topo = [] {
    CpuTopology parsed = CpuTopology::FromSysfs("/sys");
    if (parsed.cpus().empty() || parsed.num_online_cpus() < 1) {
      parsed = CpuTopology::SingleNode(HostCpuInfo().physical_cores);
    }
    return new CpuTopology(std::move(parsed));
  }();
  return *topo;
}

bool BindCurrentThreadToCpu(int cpu) { return BindCurrentThreadToCpus({cpu}); }

bool BindCurrentThreadToCpus(const std::vector<int>& cpus) {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) {
    CPU_SET(cpu % CPU_SETSIZE, &set);
  }
  return !cpus.empty() && pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpus;
  return false;
#endif
}

std::vector<int> CurrentThreadCpus() {
  std::vector<int> cpus;
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (pthread_getaffinity_np(pthread_self(), sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus.push_back(cpu);
      }
    }
  }
#endif
  return cpus;
}

bool TryBindMemoryToNode(void* addr, std::size_t len, int node) {
#if defined(__linux__) && defined(SYS_mbind)
  if (addr == nullptr || len == 0 || node < 0) {
    return false;
  }
  const long page = sysconf(_SC_PAGESIZE);
  if (page <= 0) {
    return false;
  }
  // mbind wants a page-aligned range; widen to the enclosing pages.
  const std::uintptr_t raw = reinterpret_cast<std::uintptr_t>(addr);
  const std::uintptr_t begin = raw & ~static_cast<std::uintptr_t>(page - 1);
  const std::uintptr_t end =
      (raw + len + static_cast<std::uintptr_t>(page - 1)) &
      ~static_cast<std::uintptr_t>(page - 1);
  constexpr int kMpolPreferred = 1;  // numaif.h MPOL_PREFERRED, without libnuma
  constexpr std::size_t kMaskBits = 1024;
  unsigned long mask[kMaskBits / (8 * sizeof(unsigned long))] = {0};
  if (static_cast<std::size_t>(node) >= kMaskBits) {
    return false;
  }
  mask[static_cast<std::size_t>(node) / (8 * sizeof(unsigned long))] |=
      1ul << (static_cast<std::size_t>(node) % (8 * sizeof(unsigned long)));
  return syscall(SYS_mbind, reinterpret_cast<void*>(begin), end - begin, kMpolPreferred,
                 mask, kMaskBits + 1, 0u) == 0;
#else
  (void)addr;
  (void)len;
  (void)node;
  return false;
#endif
}

}  // namespace neocpu
