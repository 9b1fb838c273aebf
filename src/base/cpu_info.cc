#include "src/base/cpu_info.h"

#include <fstream>
#include <thread>

#ifdef __linux__
#include <unistd.h>
#endif

namespace neocpu {
namespace {

CpuInfo Detect() {
  CpuInfo info;
#if defined(__x86_64__) || defined(__i386__)
  // Runtime (not compile-time) capability: the binary is built portable and picks its
  // kernel tiers via cpuid, so the Target profile must reflect the machine it is
  // running on, not the flags it was compiled with.
  if (CpuSupportsTier(IsaTier::kAvx512)) {
    info.isa = SimdIsa::kAvx512;
    info.vector_bits = 512;
    info.num_vector_registers = 32;
  } else if (CpuSupportsTier(IsaTier::kAvx2)) {
    info.isa = SimdIsa::kAvx2;
    info.vector_bits = 256;
    info.num_vector_registers = 16;
  }
  info.has_fma = __builtin_cpu_supports("fma") != 0;
  info.has_vnni = __builtin_cpu_supports("avx512vnni") != 0;
#elif defined(__ARM_NEON)
  info.isa = SimdIsa::kNeon;
  info.vector_bits = 128;
  info.num_vector_registers = 32;
#if defined(__ARM_FEATURE_FMA)
  info.has_fma = true;
#endif
#endif

  unsigned hw = std::thread::hardware_concurrency();
  info.physical_cores = hw == 0 ? 1 : static_cast<int>(hw);

#ifdef __linux__
  long l1 = sysconf(_SC_LEVEL1_DCACHE_SIZE);
  long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l1 > 0) {
    info.l1d_bytes = static_cast<std::size_t>(l1);
  }
  if (l2 > 0) {
    info.l2_bytes = static_cast<std::size_t>(l2);
  }
  if (l3 > 0) {
    info.l3_bytes = static_cast<std::size_t>(l3);
  }
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  bool constant_tsc = false, nonstop_tsc = false;
  while (std::getline(cpuinfo, line)) {
    if (info.brand.empty() && line.rfind("model name", 0) == 0) {
      std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        info.brand = line.substr(colon + 2);
      }
    } else if (line.rfind("flags", 0) == 0) {
      constant_tsc = line.find(" constant_tsc") != std::string::npos;
      nonstop_tsc = line.find(" nonstop_tsc") != std::string::npos;
      break;  // flags follow the model name; one logical CPU is representative
    }
  }
  info.has_invariant_tsc = constant_tsc && nonstop_tsc;
#endif
  return info;
}

}  // namespace

const CpuInfo& HostCpuInfo() {
  static const CpuInfo info = Detect();
  return info;
}

const char* SimdIsaName(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kScalar:
      return "scalar";
    case SimdIsa::kNeon:
      return "neon";
    case SimdIsa::kAvx2:
      return "avx2";
    case SimdIsa::kAvx512:
      return "avx512";
  }
  return "unknown";
}

const char* IsaTierName(IsaTier tier) {
  switch (tier) {
    case IsaTier::kBaseline:
      return "baseline";
    case IsaTier::kAvx2:
      return "avx2";
    case IsaTier::kAvx512:
      return "avx512";
    case IsaTier::kAvx512Vnni:
      return "avx512vnni";
  }
  return "unknown";
}

bool CpuSupportsTier(IsaTier tier) {
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  __builtin_cpu_init();
  const bool avx512 = __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
                      __builtin_cpu_supports("avx512vl") && __builtin_cpu_supports("avx512dq") &&
                      __builtin_cpu_supports("fma");
  switch (tier) {
    case IsaTier::kBaseline:
      return true;
    case IsaTier::kAvx2:
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    case IsaTier::kAvx512:
      return avx512;
    case IsaTier::kAvx512Vnni:
      return avx512 && __builtin_cpu_supports("avx512vnni");
  }
  return false;
#else
  return tier == IsaTier::kBaseline;
#endif
}

}  // namespace neocpu
