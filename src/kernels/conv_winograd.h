// Winograd convolution F(2x2, 3x3) — the paper's named future-work extension ("the
// future work includes extending to other convolution computation algorithms such as
// Winograd and FFT"; §1 notes NeoCPU "is compatible to other optimization works on the
// computationally-intensive kernels, e.g. CONVs via Winograd").
//
// Applicable to 3x3 stride-1 convolutions. Arithmetic drops from 9 to 16/4 = 4 MACs per
// output (2.25x), traded against the input/output tile transforms. The implementation
// here is the standard minimal-filtering form:
//   U = G g G^T (weight transform, once per compile),
//   V = B^T d B (input tile transform),
//   Y = A^T [ sum_ic U .* V ] A (output transform),
// with zero-padded gathers at image borders and guarded stores at odd output edges.
#ifndef NEOCPU_SRC_KERNELS_CONV_WINOGRAD_H_
#define NEOCPU_SRC_KERNELS_CONV_WINOGRAD_H_

#include "src/kernels/conv_params.h"
#include "src/runtime/thread_engine.h"
#include "src/tensor/tensor.h"

namespace neocpu {

// True when the workload is in Winograd's domain (3x3, stride 1).
bool WinogradApplicable(const Conv2dParams& params);

// Graph-dispatch legality: the workload is applicable AND the fused epilogue is one the
// kernel supports (bias/ReLU yes, residual add no — the tuner must not pick Winograd
// for a conv that fused a shortcut).
bool WinogradLegal(const Conv2dParams& params, const ConvEpilogue& epilogue);

// Weight transform: OIHW {OC, IC, 3, 3} -> {4, 4, OC, IC} (transform-major so the
// per-tile accumulation streams contiguous (oc, ic) planes). Computed at compile time.
Tensor WinogradTransformWeights(const Tensor& weight_oihw);

// Workspace-size query hook for the memory planner: bytes of V/M tile scratch one
// ConvWinograd call needs when run on an engine with `num_workers` workers (each worker
// owns a disjoint V[16, IC] + M[16, OC] slice).
std::size_t WinogradWorkspaceBytes(const Conv2dParams& params, int num_workers);

// input NCHW; transformed weights from WinogradTransformWeights; bias flat {OC} or
// null; output preallocated NCHW. `workspace` (optional) holds per-worker V/M tile
// scratch — when null, each worker allocates its own. `workspace_floats` is the
// workspace's capacity in floats (0 = trust the caller to have sized it for this
// engine's worker count); when the capacity covers fewer workers than the engine offers,
// the kernel clamps its parallelism to the workers the workspace can back, so a plan
// sized for N workers stays safe under any engine.
void ConvWinograd(const Conv2dParams& params, const Tensor& input,
                  const Tensor& transformed_weights, const Tensor* bias,
                  const ConvEpilogue& epilogue, Tensor* output,
                  ThreadEngine* engine = nullptr, float* workspace = nullptr,
                  std::size_t workspace_floats = 0);

}  // namespace neocpu

#endif  // NEOCPU_SRC_KERNELS_CONV_WINOGRAD_H_
