#include "src/tensor/layout_transform.h"

#include <algorithm>
#include <numeric>
#include <vector>

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

// A conv weight's logical extents and its (x, y) blocks.
struct WeightBlocks {
  std::int64_t o, i, khw, x, y;
};

WeightBlocks WeightBlocksOf(const Tensor& w) {
  if (w.ndim() == 4) {
    NEOCPU_CHECK(w.layout().kind == LayoutKind::kOIHW) << w.DebugString();
    return {w.dim(0), w.dim(1), w.dim(2) * w.dim(3), 1, 1};
  }
  NEOCPU_CHECK(w.ndim() == 6 && w.layout().kind == LayoutKind::kOIHWio) << w.DebugString();
  return {w.dim(0) * w.dim(5), w.dim(1) * w.dim(4), w.dim(2) * w.dim(3), w.dim(4),
          w.dim(5)};
}

// Reblocks `src` (blocks b) into `dst` (blocks x, y) one slab of g = lcm(b.y, y)
// output channels at a time: a slab is contiguous in both layouts, so `dst` may be
// `src`'s own buffer. Each slab is first copied to a scratch slab, then written back in
// the destination order. Within a slab, element (o, i, k) of blocks (x, y) sits at
//   (((o / y * (I / x) + i / x) * khw + k) * x + i % x) * y + o % y,
// which splits into an o term and an (i, k) term; the source's are tabulated once, so
// the write-back walks the destination in order with one add per element. The scratch
// pads each source o-block by a cache line: the write-back reads y rows at once, and
// unpadded OIHW rows of I * KH * KW floats often share L1 sets.
template <typename T>
void ReblockWeightT(const T* src, T* dst, const WeightBlocks& b, std::int64_t x,
                    std::int64_t y) {
  const std::int64_t g = std::lcm(b.y, y);
  const std::int64_t block = b.i * b.khw * b.y;  // one source o-block
  const std::int64_t stride = block + 64 / static_cast<std::int64_t>(sizeof(T));
  std::vector<std::int64_t> o_term(static_cast<std::size_t>(g));
  for (std::int64_t o = 0; o < g; ++o) {
    o_term[static_cast<std::size_t>(o)] = (o / b.y) * stride + o % b.y;
  }
  // In destination order of (i / x, k, i % x).
  std::vector<std::int64_t> ik_term;
  ik_term.reserve(static_cast<std::size_t>(b.i * b.khw));
  for (std::int64_t ib = 0; ib < b.i / x; ++ib) {
    for (std::int64_t k = 0; k < b.khw; ++k) {
      for (std::int64_t xi = 0; xi < x; ++xi) {
        const std::int64_t i = ib * x + xi;
        ik_term.push_back((((i / b.x) * b.khw + k) * b.x + i % b.x) * b.y);
      }
    }
  }
  std::vector<T> scratch(static_cast<std::size_t>(g / b.y * stride));
  for (std::int64_t o0 = 0; o0 < b.o; o0 += g) {
    const T* from = src + o0 * b.i * b.khw;
    for (std::int64_t sb = 0; sb < g / b.y; ++sb) {
      std::copy(from + sb * block, from + (sb + 1) * block, scratch.data() + sb * stride);
    }
    T* to = dst + o0 * b.i * b.khw;
    for (std::int64_t ob = 0; ob < g / y; ++ob) {
      const std::int64_t* o_at = o_term.data() + ob * y;
      for (const std::int64_t ik : ik_term) {
        for (std::int64_t yi = 0; yi < y; ++yi) {
          *to++ = scratch[static_cast<std::size_t>(o_at[yi] + ik)];
        }
      }
    }
  }
}

// `w` with blocks (x, y) (OIHW when both are 1): `w` itself when it has them, else a
// reblocked copy, or `w`'s own buffer reblocked when `in_place`.
Tensor Reblocked(const Tensor& w, std::int64_t x, std::int64_t y, bool in_place) {
  const WeightBlocks b = WeightBlocksOf(w);
  if (b.x == x && b.y == y) {
    return w;
  }
  NEOCPU_CHECK_EQ(b.i % x, 0) << "input channels " << b.i << " not divisible by " << x;
  NEOCPU_CHECK_EQ(b.o % y, 0) << "output channels " << b.o << " not divisible by " << y;
  const std::int64_t kh = w.dim(2), kw = w.dim(3);  // the same in both ranks
  const bool oihw = x == 1 && y == 1;
  std::vector<std::int64_t> dims = oihw ? std::vector<std::int64_t>{b.o, b.i, kh, kw}
                                        : std::vector<std::int64_t>{b.o / y, b.i / x, kh,
                                                                    kw, x, y};
  const Layout layout = oihw ? Layout::OIHW() : Layout::OIHWio(x, y);
  Tensor out = in_place ? w.Reshaped(std::move(dims), layout)
                        : Tensor::Empty(std::move(dims), layout, w.dtype());
  if (w.dtype() == DType::kS8) {
    ReblockWeightT(w.data_as<std::int8_t>(), out.data_as<std::int8_t>(), b, x, y);
  } else {
    NEOCPU_CHECK(w.dtype() == DType::kF32) << w.DebugString();
    ReblockWeightT(w.data_as<float>(), out.data_as<float>(), b, x, y);
  }
  return out;
}

}  // namespace

Tensor ReblockWeight(const Tensor& w, std::int64_t x, std::int64_t y) {
  return Reblocked(w, x, y, /*in_place=*/false);
}

void ReblockWeightInPlace(Tensor* w, std::int64_t x, std::int64_t y) {
  *w = Reblocked(*w, x, y, /*in_place=*/true);
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
