// Transformer-encoder building blocks (LayerNorm, 2-D transpose, multi-head
// attention).
//
// The paper's pipeline is CNN-centric, but its serving story — tuned GEMMs behind a
// compiled graph — extends directly to encoder blocks: every FLOP-heavy piece of an
// encoder layer (QKV projections, attention output projection, the FFN) is a Dense
// lowered onto the packed GEMM family (kernels/gemm_packed*.h). What remains are the
// memory-bound glue ops below. Each writes into an output the executor placed, with
// ThreadEngine-parallel row loops.
#ifndef NEOCPU_SRC_KERNELS_TRANSFORMER_H_
#define NEOCPU_SRC_KERNELS_TRANSFORMER_H_

#include <cstdint>

#include "src/runtime/thread_engine.h"
#include "src/tensor/tensor.h"

namespace neocpu {

// Row-wise layer normalization over a {M, D} (or flat {D}) f32 tensor:
//   out[m, d] = gamma[d] * (x[m, d] - mean_m) / sqrt(var_m + epsilon) + beta[d]
// gamma/beta are {D} constants.
void LayerNormRows(const Tensor& input, const Tensor& gamma, const Tensor& beta,
                   float epsilon, Tensor* out, ThreadEngine* engine = nullptr);

// {M, N} -> {N, M} transpose of a 2-D f32 tensor.
void Transpose2D(const Tensor& input, Tensor* out, ThreadEngine* engine = nullptr);

// Scaled dot-product multi-head attention. q/k/v are {batch*seq, dim} f32 tensors
// (already projected); dim must divide by `heads` and the row count by `seq`. For each
// (batch, head) pair with head width dh = dim/heads:
//   scores = softmax(Q_h K_h^T / sqrt(dh))   ({seq, seq})
//   out_h  = scores V_h                      ({seq, dh})
// Heads are concatenated back into {batch*seq, dim} (the caller applies the output
// projection as an ordinary Dense). `workspace` must hold MhaWorkspaceFloats(...)
// floats — the per-(batch, head) score buffers.
void MultiHeadAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                        std::int64_t heads, std::int64_t seq, Tensor* out,
                        float* workspace, ThreadEngine* engine = nullptr);

// Floats of scratch MultiHeadAttention needs for {rows, dim} inputs: one {seq, seq}
// score tile per (batch, head) unit so units parallelize without sharing.
std::int64_t MhaWorkspaceFloats(std::int64_t rows, std::int64_t seq,
                                std::int64_t heads);

}  // namespace neocpu

#endif  // NEOCPU_SRC_KERNELS_TRANSFORMER_H_
