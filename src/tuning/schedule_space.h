// Schedule candidate enumeration (paper §3.3.1).
//
// The candidate lists follow the paper exactly:
//   * ic_bn / oc_bn: all factors of the channel counts (capped by the target ISA's
//     admissible block size), oc_bn restricted to the templated blocks
//     {4, 8, 16, 32, 64};
//   * reg_n: [32, 16, 8, 4, 2];
//   * unroll_ker: [true, false].
#ifndef NEOCPU_SRC_TUNING_SCHEDULE_SPACE_H_
#define NEOCPU_SRC_TUNING_SCHEDULE_SPACE_H_

#include <cstdint>
#include <vector>

#include "src/core/target.h"
#include "src/kernels/conv_params.h"
#include "src/kernels/conv_schedule.h"
#include "src/kernels/dense_params.h"
#include "src/kernels/gemm_schedule.h"

namespace neocpu {

// All factors of n that are <= cap, ascending.
std::vector<std::int64_t> Factors(std::int64_t n, std::int64_t cap);

// The full §3.3.1 space for one workload on one target. With quick_space, the channel
// factors are pruned to the neighbourhood of the target's preferred block (half / one /
// two vectors), which keeps measured search affordable; the full space is what the
// paper's offline multi-hour search walks. Direct-NCHWc schedules only, and only the
// block shapes the template is instantiated for (IsTemplated), so the space is empty
// for a conv with no templated oc block (a 126-channel SSD class head); the local
// search ranks im2col next to these, so every conv has a candidate.
std::vector<ConvSchedule> EnumerateSchedules(const Conv2dParams& params, const Target& target,
                                             bool quick_space = false);

// The quantized (u8 activations x s8 weights) direct-NCHWc space for one workload:
// same tuple structure, but channel blocks run up to the target's full 8-bit vector
// (4x the fp32 lanes — the int8 kernel's throughput scales with the filled vector
// fraction) and quick_space prunes to the {full, half, quarter} 8-bit-vector
// neighbourhood. The ic blocks split the quad-padded input channels
// (Conv2dParams::QuadPadded: a 3-channel stem gets ic_bn 4), only factors divisible
// by 4 (the VNNI quad-packing constraint) are admitted, and only the oc_bn values the
// kernel is instantiated for (IsTemplated), so the space is empty for a conv with no
// templated oc block — a 126-channel SSD class head. Every schedule carries dtype kU8
// and caches under the u8-tagged WorkloadKey, separate from the fp32 entries.
std::vector<ConvSchedule> EnumerateS8Schedules(const Conv2dParams& params,
                                               const Target& target,
                                               bool quick_space = false);

// Blocking space for one tuned GEMM (Dense) workload: register kernel mr x nr crossed
// with mc/nc/kc cache tiles. quick_space keeps the register-kernel neighbourhood that
// wins on every shape we have measured (mr in {4,6,8}, nr in {16,32,64}) with one cache
// tiling; the full space adds the small register kernels and sweeps the cache tiles.
// The u8 space (dtype == kU8) pins kc = k — the quantized kernel accumulates the whole
// reduction in s32 registers in a single K pass so the requant epilogue can fuse.
std::vector<GemmSchedule> EnumerateDenseSchedules(const DenseParams& params,
                                                  bool quick_space = false,
                                                  DType dtype = DType::kF32);

inline const std::vector<std::int64_t>& RegNCandidates() {
  static const std::vector<std::int64_t> kCandidates = {32, 16, 8, 4, 2};
  return kCandidates;
}

}  // namespace neocpu

#endif  // NEOCPU_SRC_TUNING_SCHEDULE_SPACE_H_
