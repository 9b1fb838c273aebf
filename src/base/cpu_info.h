// Host CPU introspection: SIMD capability, physical core count, cache sizes.
// These feed the default Target profile (src/core/target.h) and the analytic cost model.
// On x86 the SIMD fields come from cpuid at runtime, not from the compile flags: the
// library is built at the portable baseline ISA and dispatches its hot kernels to
// per-ISA variants (src/kernels/isa_tiers.h).
#ifndef NEOCPU_SRC_BASE_CPU_INFO_H_
#define NEOCPU_SRC_BASE_CPU_INFO_H_

#include <cstddef>
#include <string>

namespace neocpu {

enum class SimdIsa {
  kScalar,   // no vector extension detected
  kNeon,     // 128-bit (4 fp32 lanes)
  kAvx2,     // 256-bit (8 fp32 lanes)
  kAvx512,   // 512-bit (16 fp32 lanes)
};

// Instruction-set tier of a per-ISA kernel variant: the vector flags its translation
// unit is compiled with.
enum class IsaTier {
  kBaseline,    // the library's portable ISA (SSE2 on x86-64, NEON on AArch64)
  kAvx2,        // -mavx2 -mfma
  kAvx512,      // -mavx512f -mavx512bw -mavx512vl -mavx512dq
  kAvx512Vnni,  // kAvx512 + -mavx512vnni
};

struct CpuInfo {
  SimdIsa isa = SimdIsa::kScalar;
  int vector_bits = 128;          // widest usable fp32 vector
  int num_vector_registers = 16;  // architectural SIMD register count
  int physical_cores = 1;
  std::size_t l1d_bytes = 32 * 1024;
  std::size_t l2_bytes = 1024 * 1024;
  std::size_t l3_bytes = 8 * 1024 * 1024;
  bool has_fma = false;
  bool has_vnni = false;          // AVX-512 VNNI (vpdpbusd), detected at runtime
  // Invariant TSC: rdtsc ticks at a constant rate across frequency scaling and sleep
  // states, so it can back cycle-accurate node timing (constant_tsc + nonstop_tsc).
  bool has_invariant_tsc = false;
  std::string brand;

  int VectorLanesF32() const { return vector_bits / 32; }
};

// Detects the host once; subsequent calls return the cached result.
const CpuInfo& HostCpuInfo();

const char* SimdIsaName(SimdIsa isa);

// "baseline", "avx2", "avx512", "avx512vnni".
const char* IsaTierName(IsaTier tier);

// Whether the running CPU can execute code compiled for `tier` (cpuid; always true for
// kBaseline). The kAvx512 tiers require F, BW, VL, DQ and FMA.
bool CpuSupportsTier(IsaTier tier);

}  // namespace neocpu

#endif  // NEOCPU_SRC_BASE_CPU_INFO_H_
