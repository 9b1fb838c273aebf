#include "src/tensor/layout_transform.h"

#include <algorithm>
#include <numeric>

#include "src/base/logging.h"
#include "src/tensor/tensor_check.h"

namespace neocpu {
namespace {

// The one feature-map transform: every layout is NCHW[x]c for some x (NCHW x = 1, NHWC
// x = C), so a transform re-blocks channels from the source block to the destination
// block. Dtype-generic (a pure index permutation): the fp32 pipeline moves floats, the
// quantized path moves u8 activations between differently blocked convolutions.
//
// Channels go in groups of lcm(sx, dx), whole blocks on both sides; the grid is
// (n, group, row), so a batch-1 map with a single group still splits across workers, and
// a task's consecutive rows of one group run as one span. The span goes in tiles of
// kPositions positions, and a tile moves in runs of gcd(sx, dx) channels, contiguous on
// both sides: each run walks the tile's positions with a constant stride on both sides,
// and the tile stays in cache across its runs, like a blocked transpose. kUnitRun
// instantiates the same body with a run of 1 (NCHW against any other layout) so the
// innermost copy folds away.
template <typename T, bool kUnitRun>
void ReblockT(const Tensor& src, const BlockedDims& s, const BlockedDims& d, Tensor* dst,
              ThreadEngine* engine) {
  constexpr std::int64_t kPositions = 64;
  const std::int64_t h = s.h, w = s.w, sx = s.x, dx = d.x;
  const std::int64_t run = kUnitRun ? 1 : std::gcd(sx, dx);
  const std::int64_t group = sx / run * dx;
  const std::int64_t groups = s.channels() / group;
  const std::int64_t s_block = h * w * sx, d_block = h * w * dx;  // one block's elements
  const T* src_base = src.data_as<T>();
  T* dst_base = dst->data_as<T>();
  ParallelFor(EngineOrSerial(engine), s.n * groups * h, [&](std::int64_t begin,
                                                            std::int64_t end) {
    for (std::int64_t t = begin; t < end;) {
      const std::int64_t ng = t / h;  // n * groups + group
      const std::int64_t stop = std::min(end, (ng + 1) * h);
      const std::int64_t ni = ng / groups, c0 = (ng % groups) * group;
      const T* sp = src_base + (ni * s.cb + c0 / sx) * s_block;
      T* dp = dst_base + (ni * d.cb + c0 / dx) * d_block;
      const std::int64_t p_end = (stop - ng * h) * w;
      for (std::int64_t p = (t - ng * h) * w; p < p_end; p += kPositions) {
        const std::int64_t np = std::min(kPositions, p_end - p);
        const T* sr = sp + p * sx;
        T* dr = dp + p * dx;
        std::int64_t s_lane = 0, d_lane = 0;  // the run's lane in its source / dest block
        for (std::int64_t c = 0; c < group; c += run) {
          for (std::int64_t q = 0; q < np; ++q) {
            for (std::int64_t l = 0; l < run; ++l) {
              dr[d_lane + q * dx + l] = sr[s_lane + q * sx + l];
            }
          }
          s_lane += run;
          d_lane += run;
          if (s_lane == sx) {
            s_lane = 0;
            sr += s_block;
          }
          if (d_lane == dx) {
            d_lane = 0;
            dr += d_block;
          }
        }
      }
      t = stop;
    }
  });
}

template <typename T>
void Reblock(const Tensor& src, const BlockedDims& s, const BlockedDims& d, Tensor* dst,
             ThreadEngine* engine) {
  if (std::gcd(s.x, d.x) == 1) {
    ReblockT<T, /*kUnitRun=*/true>(src, s, d, dst, engine);
  } else {
    ReblockT<T, /*kUnitRun=*/false>(src, s, d, dst, engine);
  }
}

template <typename T>
void OIHWToOIHWioT(const Tensor& src, std::int64_t x, std::int64_t y, Tensor* dst) {
  const std::int64_t o = src.dim(0), i = src.dim(1), kh = src.dim(2), kw = src.dim(3);
  const std::int64_t ob = o / y;
  const std::int64_t ib = i / x;
  const T* s = src.data_as<T>();
  T* d = dst->data_as<T>();
  const std::int64_t khw = kh * kw;
  for (std::int64_t oo = 0; oo < ob; ++oo) {
    for (std::int64_t ii = 0; ii < ib; ++ii) {
      for (std::int64_t k = 0; k < khw; ++k) {
        for (std::int64_t xi = 0; xi < x; ++xi) {
          for (std::int64_t yi = 0; yi < y; ++yi) {
            const std::int64_t src_idx = ((oo * y + yi) * i + (ii * x + xi)) * khw + k;
            T* dp = d + ((((oo * ib + ii) * khw + k) * x + xi) * y + yi);
            *dp = s[src_idx];
          }
        }
      }
    }
  }
}

}  // namespace

Tensor OIHWToOIHWio(const Tensor& src, std::int64_t x, std::int64_t y) {
  NEOCPU_CHECK_EQ(src.ndim(), 4);
  const std::int64_t o = src.dim(0), i = src.dim(1), kh = src.dim(2), kw = src.dim(3);
  NEOCPU_CHECK_EQ(i % x, 0);
  NEOCPU_CHECK_EQ(o % y, 0);
  Tensor dst = Tensor::Empty({o / y, i / x, kh, kw, x, y}, Layout::OIHWio(x, y),
                             src.dtype());
  if (src.dtype() == DType::kS8) {
    OIHWToOIHWioT<std::int8_t>(src, x, y, &dst);
  } else {
    NEOCPU_CHECK(src.dtype() == DType::kF32) << src.DebugString();
    OIHWToOIHWioT<float>(src, x, y, &dst);
  }
  return dst;
}

void TransformLayout(const Tensor& src, const Layout& dst_layout, Tensor* dst,
                     ThreadEngine* engine) {
  NEOCPU_CHECK(!(src.layout() == dst_layout))
      << "identity transform reached the into-path; the planner aliases these";
  const BlockedDims s = BlockedDimsOf(src);
  const std::int64_t c = s.channels();
  BlockedDims d = s;
  d.layout = dst_layout;
  switch (dst_layout.kind) {
    case LayoutKind::kNCHW:
      d.x = 1;
      break;
    case LayoutKind::kNHWC:
      d.x = c;
      break;
    case LayoutKind::kNCHWc:
      d.x = dst_layout.c_block;
      break;
    default:
      d.x = 0;
      break;
  }
  NEOCPU_CHECK(src.layout() == s.layout && d.x > 0)
      << "unsupported layout transform " << src.layout().ToString() << " -> "
      << dst_layout.ToString();
  NEOCPU_CHECK_EQ(c % d.x, 0) << "channels " << c << " not divisible by block " << d.x;
  d.cb = c / d.x;
  CheckKernelOutput(dst, d.Dims(), dst_layout, "layout_transform");
  NEOCPU_CHECK(dst->dtype() == src.dtype())
      << "layout transform cannot change dtype: " << src.DebugString() << " -> "
      << dst->DebugString();
  if (src.dtype() == DType::kU8) {
    Reblock<std::uint8_t>(src, s, d, dst, engine);
  } else {
    NEOCPU_CHECK(src.dtype() == DType::kF32)
        << "layout transforms support f32/u8 feature maps, got " << src.DebugString();
    Reblock<float>(src, s, d, dst, engine);
  }
}

std::int64_t TransformBytes(const Tensor& src) {
  return 2 * static_cast<std::int64_t>(src.SizeBytes());
}

}  // namespace neocpu
