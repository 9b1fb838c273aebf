#include "src/kernels/transformer.h"

#include <algorithm>
#include <cmath>

#include "src/base/logging.h"

namespace neocpu {

namespace {

// Rows (M) and width (D) of a {M, D} or flat {D} tensor.
void RowsCols(const Tensor& t, std::int64_t* rows, std::int64_t* cols) {
  NEOCPU_CHECK(t.dims().size() == 2 || t.dims().size() == 1)
      << "expected a 2-D (or flat) tensor, got " << t.dims().size() << "-D";
  if (t.dims().size() == 2) {
    *rows = t.dim(0);
    *cols = t.dim(1);
  } else {
    *rows = 1;
    *cols = t.dim(0);
  }
}

}  // namespace

void LayerNormRows(const Tensor& input, const Tensor& gamma, const Tensor& beta,
                   float epsilon, Tensor* out, ThreadEngine* engine) {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  RowsCols(input, &rows, &cols);
  NEOCPU_CHECK(gamma.NumElements() == cols && beta.NumElements() == cols)
      << "layer_norm gamma/beta must be {D} with D=" << cols;
  NEOCPU_CHECK(out->NumElements() == input.NumElements());
  const float* x = input.data();
  const float* g = gamma.data();
  const float* b = beta.data();
  float* y = out->data();
  ThreadEngine& eng = EngineOrSerial(engine);
  ParallelFor(eng, rows, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t m = begin; m < end; ++m) {
      const float* row = x + m * cols;
      float* dst = y + m * cols;
      float mean = 0.0f;
      for (std::int64_t d = 0; d < cols; ++d) {
        mean += row[d];
      }
      mean /= static_cast<float>(cols);
      float var = 0.0f;
      for (std::int64_t d = 0; d < cols; ++d) {
        const float c = row[d] - mean;
        var += c * c;
      }
      var /= static_cast<float>(cols);
      const float inv = 1.0f / std::sqrt(var + epsilon);
      for (std::int64_t d = 0; d < cols; ++d) {
        dst[d] = g[d] * (row[d] - mean) * inv + b[d];
      }
    }
  });
}

void Transpose2D(const Tensor& input, Tensor* out, ThreadEngine* engine) {
  NEOCPU_CHECK(input.dims().size() == 2) << "transpose expects a 2-D tensor";
  const std::int64_t m = input.dim(0);
  const std::int64_t n = input.dim(1);
  NEOCPU_CHECK(out->NumElements() == m * n);
  const float* x = input.data();
  float* y = out->data();
  ThreadEngine& eng = EngineOrSerial(engine);
  // Block 32x32 so both the read and write streams stay cache-resident.
  constexpr std::int64_t kB = 32;
  const std::int64_t row_blocks = (m + kB - 1) / kB;
  ParallelFor(eng, row_blocks, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t rb = begin; rb < end; ++rb) {
      const std::int64_t i0 = rb * kB;
      const std::int64_t i1 = std::min<std::int64_t>(i0 + kB, m);
      for (std::int64_t j0 = 0; j0 < n; j0 += kB) {
        const std::int64_t j1 = std::min<std::int64_t>(j0 + kB, n);
        for (std::int64_t i = i0; i < i1; ++i) {
          for (std::int64_t j = j0; j < j1; ++j) {
            y[j * m + i] = x[i * n + j];
          }
        }
      }
    }
  });
}

std::int64_t MhaWorkspaceFloats(std::int64_t rows, std::int64_t seq,
                                std::int64_t heads) {
  NEOCPU_CHECK(seq > 0 && heads > 0 && rows % seq == 0);
  const std::int64_t batch = rows / seq;
  return batch * heads * seq * seq;
}

void MultiHeadAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                        std::int64_t heads, std::int64_t seq, Tensor* out,
                        float* workspace, ThreadEngine* engine) {
  std::int64_t rows = 0;
  std::int64_t dim = 0;
  RowsCols(q, &rows, &dim);
  NEOCPU_CHECK(k.NumElements() == rows * dim && v.NumElements() == rows * dim)
      << "attention q/k/v shapes must match";
  NEOCPU_CHECK(heads > 0 && dim % heads == 0)
      << "attention dim " << dim << " not divisible by heads " << heads;
  NEOCPU_CHECK(seq > 0 && rows % seq == 0)
      << "attention rows " << rows << " not divisible by seq " << seq;
  NEOCPU_CHECK(out->NumElements() == rows * dim);
  NEOCPU_CHECK(workspace != nullptr) << "attention needs a score workspace";
  const std::int64_t batch = rows / seq;
  const std::int64_t dh = dim / heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  const float* qp = q.data();
  const float* kp = k.data();
  const float* vp = v.data();
  float* op = out->data();
  ThreadEngine& eng = EngineOrSerial(engine);
  // One unit per (batch, head) pair; each owns a private {seq, seq} score tile in the
  // workspace, so the loop is embarrassingly parallel and allocation-free.
  ParallelFor(eng, batch * heads, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t u = begin; u < end; ++u) {
      const std::int64_t b = u / heads;
      const std::int64_t h = u % heads;
      // Head h of row r lives at [(b*seq + r) * dim + h*dh .. +dh).
      const float* qh = qp + b * seq * dim + h * dh;
      const float* kh = kp + b * seq * dim + h * dh;
      const float* vh = vp + b * seq * dim + h * dh;
      float* oh = op + b * seq * dim + h * dh;
      float* scores = workspace + u * seq * seq;
      for (std::int64_t i = 0; i < seq; ++i) {
        float* srow = scores + i * seq;
        // scores[i, j] = scale * <q_i, k_j>
        for (std::int64_t j = 0; j < seq; ++j) {
          float acc = 0.0f;
          const float* qi = qh + i * dim;
          const float* kj = kh + j * dim;
          for (std::int64_t d = 0; d < dh; ++d) {
            acc += qi[d] * kj[d];
          }
          srow[j] = acc * scale;
        }
        // Numerically-stable softmax in place.
        float mx = srow[0];
        for (std::int64_t j = 1; j < seq; ++j) {
          mx = std::max(mx, srow[j]);
        }
        float sum = 0.0f;
        for (std::int64_t j = 0; j < seq; ++j) {
          srow[j] = std::exp(srow[j] - mx);
          sum += srow[j];
        }
        const float inv = 1.0f / sum;
        // out_i = sum_j softmax(scores)[i, j] * v_j
        float* oi = oh + i * dim;
        for (std::int64_t d = 0; d < dh; ++d) {
          oi[d] = 0.0f;
        }
        for (std::int64_t j = 0; j < seq; ++j) {
          const float w = srow[j] * inv;
          const float* vj = vh + j * dim;
          for (std::int64_t d = 0; d < dh; ++d) {
            oi[d] += w * vj[d];
          }
        }
      }
    }
  });
}

}  // namespace neocpu
