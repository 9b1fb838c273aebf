#include "src/core/target.h"

#include "src/base/cpu_info.h"
#include "src/base/logging.h"
#include "src/kernels/conv_nchwc.h"

namespace neocpu {

Target Target::Host() {
  const CpuInfo& info = HostCpuInfo();
  Target t;
  t.name = "host";
  // The vector shape is the one the f32 conv template actually runs at: cpuid
  // capability clamped to the tiers compiled in. The §3.3 search then admits the
  // blocks that tier executes and scores them with its real lane count.
  switch (ConvNCHWcHostTier()) {
    case IsaTier::kAvx512:
    case IsaTier::kAvx512Vnni:
      t.vector_lanes = 16;
      t.num_vector_registers = 32;
      t.fma_per_cycle = 2;
      break;
    case IsaTier::kAvx2:
      t.vector_lanes = 8;
      t.num_vector_registers = 16;
      t.fma_per_cycle = 2;
      break;
    case IsaTier::kBaseline:
      // The portable build: SSE2 on x86-64 (16 registers, no FMA), NEON on AArch64.
      t.vector_lanes = 4;
      t.num_vector_registers = info.isa == SimdIsa::kNeon ? info.num_vector_registers : 16;
      t.fma_per_cycle = info.isa == SimdIsa::kNeon && info.has_fma ? 2 : 1;
      break;
  }
  t.num_cores = info.physical_cores;
  t.l1d_bytes = info.l1d_bytes;
  t.l2_bytes = info.l2_bytes;
  t.l3_bytes = info.l3_bytes;
  t.vnni_dot = info.has_vnni;
  return t;
}

std::string Target::KeyName() const {
  if (name != "host") {
    return name;
  }
  const IsaTier tier = vector_lanes >= 16  ? IsaTier::kAvx512
                       : vector_lanes == 8 ? IsaTier::kAvx2
                                           : IsaTier::kBaseline;
  return std::string("host@") + IsaTierName(tier);
}

Target Target::SkylakeAvx512() {
  Target t;
  t.name = "avx512";
  t.vector_lanes = 16;
  t.num_vector_registers = 32;
  t.num_cores = 18;
  t.freq_ghz = 3.0;
  t.fma_per_cycle = 2;
  t.l1d_bytes = 32 * 1024;
  t.l2_bytes = 1024 * 1024;
  t.l3_bytes = 24ull * 1024 * 1024;
  return t;
}

Target Target::EpycAvx2() {
  Target t;
  t.name = "avx2";
  t.vector_lanes = 8;
  t.num_vector_registers = 16;
  t.num_cores = 24;
  t.freq_ghz = 2.5;
  t.fma_per_cycle = 2;
  t.l1d_bytes = 32 * 1024;
  t.l2_bytes = 512 * 1024;
  t.l3_bytes = 8ull * 1024 * 1024;
  return t;
}

Target Target::ArmA72Neon() {
  Target t;
  t.name = "neon";
  t.vector_lanes = 4;
  t.num_vector_registers = 32;
  t.num_cores = 16;
  t.freq_ghz = 2.3;
  t.fma_per_cycle = 1;
  t.l1d_bytes = 32 * 1024;
  t.l2_bytes = 1024 * 1024;
  t.l3_bytes = 2ull * 1024 * 1024;
  return t;
}

Target Target::CascadeLakeVnni() {
  // Same core/cache shape as the Skylake profile (Cascade Lake is its refresh); the
  // schedule-space difference is the fused u8·s8 dot product.
  Target t = SkylakeAvx512();
  t.name = "vnni";
  t.vnni_dot = true;
  return t;
}

Target Target::ByName(const std::string& name) {
  if (name == "host") {
    return Host();
  }
  if (name == "avx512" || name == "skylake") {
    return SkylakeAvx512();
  }
  if (name == "vnni" || name == "cascadelake") {
    return CascadeLakeVnni();
  }
  if (name == "avx2" || name == "epyc") {
    return EpycAvx2();
  }
  if (name == "neon" || name == "a72" || name == "arm") {
    return ArmA72Neon();
  }
  LOG(FATAL) << "unknown target '" << name << "'";
  return {};
}

}  // namespace neocpu
