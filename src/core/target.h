// Target architecture profiles.
//
// The paper evaluates on three CPUs (18-core Intel Skylake AVX-512, 24-core AMD EPYC
// AVX2, 16-core ARM Cortex-A72 NEON). This repository runs on a single host, so a
// Target captures the *schedule-space* properties of each architecture — fp32 vector
// lanes, SIMD register count, core count, cache sizes — and the search is constrained
// to schedules that ISA could execute. See DESIGN.md §1 for why this substitution
// preserves the experiments' shape.
#ifndef NEOCPU_SRC_CORE_TARGET_H_
#define NEOCPU_SRC_CORE_TARGET_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace neocpu {

struct Target {
  std::string name = "host";
  int vector_lanes = 16;          // fp32 lanes per SIMD vector
  int num_vector_registers = 32;  // architectural SIMD registers
  int num_cores = 1;
  double freq_ghz = 2.1;
  int fma_per_cycle = 2;  // vector FMA issue width
  std::size_t l1d_bytes = 32 * 1024;
  std::size_t l2_bytes = 1024 * 1024;
  std::size_t l3_bytes = 24ull * 1024 * 1024;

  // Whether the schedule space admits s8 (quantized) convolution schedules on this
  // ISA profile. All built-in profiles support it (the s8 kernel is portable); tests
  // flip it off to verify the gating.
  bool int8_dot = true;

  // Whether this profile has a fused u8·s8 dot-product instruction (AVX-512 VNNI
  // vpdpbusd). The u8 cost model credits the fused MAC chain only when this is set;
  // without it the u8 path pays the overflow-safe s32 accumulation (the IntelCaffe
  // s16-overflow workaround) and rarely beats s8. Host() detects it via cpuid; the
  // CascadeLakeVnni profile pins it for tests.
  bool vnni_dot = false;

  // Natural channel block: one vector register of fp32 lanes.
  std::int64_t PreferredBlock() const { return vector_lanes; }
  // Largest channel block the schedule space admits for this ISA.
  std::int64_t MaxBlock() const { return 2ll * vector_lanes; }
  // s8 elements per vector register: 4x the fp32 lane count. The s8 kernel's MAC
  // density scales with how much of a full s8 vector the oc block fills, so the s8
  // schedule space prefers (and admits up to) these wider blocks.
  std::int64_t PreferredBlockS8() const {
    const std::int64_t b = 4ll * vector_lanes;
    return b < kMaxS8Block ? b : kMaxS8Block;
  }
  std::int64_t MaxBlockS8() const { return PreferredBlockS8(); }

  static constexpr std::int64_t kMaxS8Block = 64;  // == kMaxChannelBlock

  // Spelling of this profile in tuning-cache keys. Named profiles use their name; a
  // host-derived one ("host") appends its vector tier, e.g. "host@avx512", so schedules
  // tuned on a narrower machine (or before runtime ISA detection) never hit here.
  std::string KeyName() const;

  // The machine this process runs on: cores and caches as detected, vector shape of the
  // f32 conv tier the runtime dispatches to (see ConvNCHWcHostTier).
  static Target Host();
  // The paper's three evaluation platforms (§4).
  static Target SkylakeAvx512();
  static Target EpycAvx2();
  static Target ArmA72Neon();
  // Skylake's server successor with AVX-512 VNNI (the IntelCaffe evaluation class).
  static Target CascadeLakeVnni();
  // "host", "avx512", "avx2", "neon", "vnni".
  static Target ByName(const std::string& name);
};

}  // namespace neocpu

#endif  // NEOCPU_SRC_CORE_TARGET_H_
