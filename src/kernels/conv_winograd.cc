#include "src/kernels/conv_winograd.h"

#include <algorithm>
#include <vector>

#include "src/base/logging.h"
#include "src/tensor/tensor_check.h"

namespace neocpu {
namespace {

// G (4x3): weight transform matrix of F(2x2, 3x3).
constexpr float kG[4][3] = {
    {1.0f, 0.0f, 0.0f}, {0.5f, 0.5f, 0.5f}, {0.5f, -0.5f, 0.5f}, {0.0f, 0.0f, 1.0f}};

// B^T (4x4): input tile transform.
constexpr float kBt[4][4] = {{1.0f, 0.0f, -1.0f, 0.0f},
                             {0.0f, 1.0f, 1.0f, 0.0f},
                             {0.0f, -1.0f, 1.0f, 0.0f},
                             {0.0f, 1.0f, 0.0f, -1.0f}};

// A^T (2x4): output tile transform.
constexpr float kAt[2][4] = {{1.0f, 1.0f, 1.0f, 0.0f}, {0.0f, 1.0f, -1.0f, -1.0f}};

}  // namespace

bool WinogradApplicable(const Conv2dParams& p) {
  return p.kernel_h == 3 && p.kernel_w == 3 && p.stride_h == 1 && p.stride_w == 1;
}

bool WinogradLegal(const Conv2dParams& p, const ConvEpilogue& epilogue) {
  return WinogradApplicable(p) && !epilogue.residual_add;
}

Tensor WinogradTransformWeights(const Tensor& w) {
  NEOCPU_CHECK_EQ(w.ndim(), 4);
  const std::int64_t oc = w.dim(0), ic = w.dim(1);
  NEOCPU_CHECK_EQ(w.dim(2), 3);
  NEOCPU_CHECK_EQ(w.dim(3), 3);
  Tensor u = Tensor::Empty({4, 4, oc, ic}, Layout::Flat());
  const float* src = w.data();
  float* dst = u.data();
  for (std::int64_t o = 0; o < oc; ++o) {
    for (std::int64_t i = 0; i < ic; ++i) {
      const float* g = src + (o * ic + i) * 9;
      // tmp = G g (4x3)
      float tmp[4][3];
      for (int r = 0; r < 4; ++r) {
        for (int c = 0; c < 3; ++c) {
          tmp[r][c] = kG[r][0] * g[0 * 3 + c] + kG[r][1] * g[1 * 3 + c] +
                      kG[r][2] * g[2 * 3 + c];
        }
      }
      // U = tmp G^T (4x4)
      for (int r = 0; r < 4; ++r) {
        for (int c = 0; c < 4; ++c) {
          const float v =
              tmp[r][0] * kG[c][0] + tmp[r][1] * kG[c][1] + tmp[r][2] * kG[c][2];
          dst[((r * 4 + c) * oc + o) * ic + i] = v;
        }
      }
    }
  }
  return u;
}

std::size_t WinogradWorkspaceBytes(const Conv2dParams& p, int num_workers) {
  const std::size_t per_worker = 16 * static_cast<std::size_t>(p.in_c + p.out_c);
  return per_worker * static_cast<std::size_t>(num_workers < 1 ? 1 : num_workers) *
         sizeof(float);
}

void ConvWinograd(const Conv2dParams& p, const Tensor& input, const Tensor& u,
                  const Tensor* bias, const ConvEpilogue& epilogue, Tensor* output,
                  ThreadEngine* engine, float* workspace, std::size_t workspace_floats) {
  NEOCPU_CHECK(WinogradApplicable(p)) << p.ToString();
  NEOCPU_CHECK(!epilogue.residual_add) << "winograd path does not fuse residuals";
  NEOCPU_CHECK_EQ(u.ndim(), 4);
  NEOCPU_CHECK_EQ(u.dim(2), p.out_c);
  NEOCPU_CHECK_EQ(u.dim(3), p.in_c);
  const std::int64_t oh = p.OutH(), ow = p.OutW();
  CheckKernelOutput(output, {p.batch, p.out_c, oh, ow}, Layout::NCHW(), "winograd");

  const std::int64_t tiles_h = (oh + 1) / 2;
  const std::int64_t tiles_w = (ow + 1) / 2;
  const float* in_base = input.data();
  const float* u_base = u.data();
  const float* bias_base = epilogue.bias && bias != nullptr ? bias->data() : nullptr;
  float* out_base = output->data();
  const std::int64_t in_plane = p.in_h * p.in_w;
  const std::int64_t out_plane = oh * ow;

  ThreadEngine& eng = EngineOrSerial(engine);

  // Parallelize over (batch, tile row) as one fork-join region with an explicit task
  // index, so each worker's V[16][IC] / M[16][OC] scratch (transform-major to match U's
  // plane layout) can be a disjoint slice of the planner-provided workspace.
  const std::int64_t total_rows = p.batch * tiles_h;
  const int workers = eng.NumWorkers() < 1 ? 1 : eng.NumWorkers();
  std::int64_t chunks = std::min<std::int64_t>(workers, total_rows < 1 ? 1 : total_rows);
  const std::size_t v_count = 16 * static_cast<std::size_t>(p.in_c);
  const std::size_t m_count = 16 * static_cast<std::size_t>(p.out_c);
  if (workspace != nullptr && workspace_floats > 0) {
    // A planner-provided workspace bounds how many disjoint per-worker slices exist;
    // never fan out wider than the slices it can back.
    const std::int64_t backed =
        static_cast<std::int64_t>(workspace_floats / (v_count + m_count));
    NEOCPU_CHECK_GE(backed, 1) << "winograd workspace smaller than one worker slice";
    chunks = std::min(chunks, backed);
  }
  eng.ParallelRun(static_cast<int>(chunks), [&](int task, int num_tasks) {
    const std::int64_t begin = total_rows * task / num_tasks;
    const std::int64_t end = total_rows * (task + 1) / num_tasks;
    if (begin >= end) {
      return;
    }
    std::vector<float> scratch;
    float* vm;
    if (workspace != nullptr) {
      vm = workspace + static_cast<std::size_t>(task) * (v_count + m_count);
    } else {
      scratch.resize(v_count + m_count);
      vm = scratch.data();
    }
    float* v = vm;
    float* m = vm + v_count;
    for (std::int64_t row = begin; row < end; ++row) {
      const std::int64_t n = row / tiles_h;
      const std::int64_t th = row % tiles_h;
      for (std::int64_t tw = 0; tw < tiles_w; ++tw) {
        // Input tile origin in image coordinates (top-left of the 4x4 gather).
        const std::int64_t ih0 = th * 2 - p.pad_h;
        const std::int64_t iw0 = tw * 2 - p.pad_w;
        // V[xi][ic] for all input channels.
        for (std::int64_t ic = 0; ic < p.in_c; ++ic) {
          const float* in_ch = in_base + (n * p.in_c + ic) * in_plane;
          float d[4][4];
          for (int r = 0; r < 4; ++r) {
            const std::int64_t ih = ih0 + r;
            for (int c = 0; c < 4; ++c) {
              const std::int64_t iw = iw0 + c;
              d[r][c] = (ih >= 0 && ih < p.in_h && iw >= 0 && iw < p.in_w)
                            ? in_ch[ih * p.in_w + iw]
                            : 0.0f;
            }
          }
          float tmp[4][4];
          for (int r = 0; r < 4; ++r) {
            for (int c = 0; c < 4; ++c) {
              tmp[r][c] = kBt[r][0] * d[0][c] + kBt[r][1] * d[1][c] + kBt[r][2] * d[2][c] +
                          kBt[r][3] * d[3][c];
            }
          }
          for (int r = 0; r < 4; ++r) {
            for (int c = 0; c < 4; ++c) {
              // V = B^T d B; right-multiplying by B = dotting rows of tmp with rows of Bt.
              v[static_cast<std::size_t>((r * 4 + c) * p.in_c + ic)] =
                  tmp[r][0] * kBt[c][0] + tmp[r][1] * kBt[c][1] + tmp[r][2] * kBt[c][2] +
                  tmp[r][3] * kBt[c][3];
            }
          }
        }
        // M[xi][oc] = sum_ic U[xi][oc][ic] * V[xi][ic]: 16 independent (OC x IC) GEMVs.
        for (int xi = 0; xi < 16; ++xi) {
          const float* u_plane = u_base + static_cast<std::int64_t>(xi) * p.out_c * p.in_c;
          const float* v_vec = v + static_cast<std::size_t>(xi) * p.in_c;
          float* m_vec = m + static_cast<std::size_t>(xi) * p.out_c;
          for (std::int64_t o = 0; o < p.out_c; ++o) {
            const float* __restrict u_row = u_plane + o * p.in_c;
            float partial[8] = {};
            std::int64_t i = 0;
            for (; i + 8 <= p.in_c; i += 8) {
#pragma omp simd
              for (int j = 0; j < 8; ++j) {  // SIMD dimension
                partial[j] += u_row[i + j] * v_vec[i + j];
              }
            }
            float sum = 0.0f;
            for (; i < p.in_c; ++i) {
              sum += u_row[i] * v_vec[i];
            }
            for (int j = 0; j < 8; ++j) {
              sum += partial[j];
            }
            m_vec[o] = sum;
          }
        }
        // Y = A^T M A per output channel, guarded stores at the odd edges.
        const std::int64_t oh0 = th * 2;
        const std::int64_t ow0 = tw * 2;
        for (std::int64_t o = 0; o < p.out_c; ++o) {
          float mm[4][4];
          for (int r = 0; r < 4; ++r) {
            for (int c = 0; c < 4; ++c) {
              mm[r][c] = m[static_cast<std::size_t>((r * 4 + c) * p.out_c + o)];
            }
          }
          float tmp[2][4];
          for (int r = 0; r < 2; ++r) {
            for (int c = 0; c < 4; ++c) {
              tmp[r][c] = kAt[r][0] * mm[0][c] + kAt[r][1] * mm[1][c] +
                          kAt[r][2] * mm[2][c] + kAt[r][3] * mm[3][c];
            }
          }
          const float b = bias_base != nullptr ? bias_base[o] : 0.0f;
          float* out_ch = out_base + (n * p.out_c + o) * out_plane;
          for (int r = 0; r < 2; ++r) {
            const std::int64_t y = oh0 + r;
            if (y >= oh) {
              continue;
            }
            for (int c = 0; c < 2; ++c) {
              const std::int64_t x = ow0 + c;
              if (x >= ow) {
                continue;
              }
              float val = tmp[r][0] * kAt[c][0] + tmp[r][1] * kAt[c][1] +
                          tmp[r][2] * kAt[c][2] + tmp[r][3] * kAt[c][3] + b;
              if (epilogue.relu) {
                val = val > 0.0f ? val : 0.0f;
              }
              out_ch[y * ow + x] = val;
            }
          }
        }
      }
    }
  });
}

}  // namespace neocpu
