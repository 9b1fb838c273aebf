// First-class tuning-workload identity.
//
// The paper's §3.3 search picks a schedule for one concrete convolution workload; which
// schedule wins depends on more than the conv shape. A WorkloadKey captures the full
// identity a cached search result is valid for:
//   * the convolution parameters — *including the batch size*: batch changes the
//     parallelism grain and cache footprint, so batch-1 and batch-8 are distinct
//     workloads with distinct optima;
//   * the target ISA profile the schedule space was constrained to (Target::KeyName:
//     a host-derived profile carries its detected tier, e.g. "host@avx512");
//   * the cost mode (analytic model vs real measurement);
//   * the space mode (quick pruned neighbourhood vs the full §3.3.1 enumeration).
//
// Keys have a stable, human-readable text form (ToString/Parse round-trip) that is the
// on-disk representation inside a persisted TuningCache.
//
// The convolution *algorithm* (direct NCHWc / im2col) is NOT part of the key: one
// workload's search ranks both together, so the cached result is algorithm-tagged per
// schedule entry (ConvSchedule::algo) while the key stays pure shape identity. Every
// ranked algorithm runs every fused epilogue, so one entry serves every fusion shape.
#ifndef NEOCPU_SRC_TUNING_WORKLOAD_KEY_H_
#define NEOCPU_SRC_TUNING_WORKLOAD_KEY_H_

#include <string>

#include "src/core/target.h"
#include "src/kernels/conv_params.h"
#include "src/kernels/dense_params.h"
#include "src/tensor/dtype.h"
#include "src/tuning/cost_model.h"

namespace neocpu {

struct WorkloadKey {
  Conv2dParams conv;    // full workload shape, batch included (conv workloads)
  DenseParams dense;    // GEMM workload shape (dense workloads; is_dense set)
  bool is_dense = false;
  std::string target = "host";
  CostMode cost_mode = CostMode::kAnalytic;
  bool quick_space = true;
  // Execution dtype the space was searched for, kF32 or kU8: the u8 schedule space
  // (different block caps, different kernel) caches under its own key, so fp32 and
  // quantized tunings of one shape coexist — exactly like distinct batches.
  DType dtype = DType::kF32;

  static WorkloadKey Of(const Conv2dParams& params, const Target& target, CostMode mode,
                        bool quick_space, DType dtype = DType::kF32) {
    WorkloadKey key;
    key.conv = params;
    key.target = target.KeyName();
    key.cost_mode = mode;
    key.quick_space = quick_space;
    key.dtype = dtype;
    return key;
  }

  static WorkloadKey OfDense(const DenseParams& params, const Target& target,
                             CostMode mode, bool quick_space,
                             DType dtype = DType::kF32) {
    WorkloadKey key;
    key.dense = params;
    key.is_dense = true;
    key.target = target.KeyName();
    key.cost_mode = mode;
    key.quick_space = quick_space;
    key.dtype = dtype;
    return key;
  }

  bool operator==(const WorkloadKey&) const = default;

  // Stable single-token text form, e.g.
  //   "avx512|8_64_28x28_64_3x3_1x1_1x1|analytic|quick"       (fp32)
  //   "avx512|8_64_28x28_64_3x3_1x1_1x1|analytic|quick|u8"    (quantized)
  //   "avx512|dense:64_256_64|analytic|quick|u8"              (dense GEMM workload)
  // An fp32 key has four tokens and a quantized one appends its dtype; dense workloads
  // reuse the same frame with a "dense:" shape token.
  std::string ToString() const;

  // Inverse of ToString. Returns false (leaving *key untouched) on malformed input.
  static bool Parse(const std::string& text, WorkloadKey* key);
};

}  // namespace neocpu

#endif  // NEOCPU_SRC_TUNING_WORKLOAD_KEY_H_
