#include "src/tuning/schedule_space.h"

#include <algorithm>
#include <initializer_list>

#include "src/base/logging.h"
#include "src/kernels/conv_winograd.h"

namespace neocpu {

std::vector<std::int64_t> Factors(std::int64_t n, std::int64_t cap) {
  NEOCPU_CHECK_GT(n, 0);
  std::vector<std::int64_t> out;
  for (std::int64_t f = 1; f <= n && f <= cap; ++f) {
    if (n % f == 0) {
      out.push_back(f);
    }
  }
  return out;
}

namespace {

// Channel factors up to `cap`, pruned under quick_space to the block sizes in `keep`
// (plus the largest factor, so the list is never empty).
std::vector<std::int64_t> BlockCandidates(std::int64_t channels, std::int64_t cap,
                                          bool quick_space,
                                          std::initializer_list<std::int64_t> keep) {
  std::vector<std::int64_t> v = Factors(channels, std::min(cap, kMaxChannelBlock));
  if (!quick_space) {
    return v;
  }
  std::vector<std::int64_t> kept;
  for (std::int64_t f : v) {
    if (std::find(keep.begin(), keep.end(), f) != keep.end() || f == v.back()) {
      kept.push_back(f);
    }
  }
  return kept;
}

// The §3.3.1 tuples over the given channel blocks, for the block shapes the templates
// are instantiated for (IsTemplated): a conv with no such oc block among its factors
// (a 126-channel SSD class head) gets an empty direct space.
std::vector<ConvSchedule> TemplatedSchedules(const std::vector<std::int64_t>& ic,
                                             const std::vector<std::int64_t>& oc,
                                             DType dtype) {
  std::vector<ConvSchedule> out;
  out.reserve(ic.size() * oc.size() * RegNCandidates().size() * 2);
  for (std::int64_t i : ic) {
    for (std::int64_t o : oc) {
      for (std::int64_t r : RegNCandidates()) {
        for (bool u : {true, false}) {
          ConvSchedule s{i, o, r, u};
          s.dtype = dtype;
          if (IsTemplated(s)) {
            out.push_back(s);
          }
        }
      }
    }
  }
  return out;
}

}  // namespace

std::vector<ConvSchedule> EnumerateSchedules(const Conv2dParams& p, const Target& t,
                                             bool quick_space) {
  const std::int64_t lanes = t.PreferredBlock();
  const auto keep = {lanes, lanes / 2, 2 * lanes};
  return TemplatedSchedules(BlockCandidates(p.in_c, t.MaxBlock(), quick_space, keep),
                            BlockCandidates(p.out_c, t.MaxBlock(), quick_space, keep),
                            DType::kF32);
}

std::vector<ConvSchedule> EnumerateAlgoCandidates(const Conv2dParams& p) {
  std::vector<ConvSchedule> out;
  out.push_back(AlgoSchedule(ConvAlgo::kIm2col));
  if (WinogradApplicable(p)) {
    out.push_back(AlgoSchedule(ConvAlgo::kWinograd));
  }
  return out;
}

std::vector<ConvSchedule> EnumerateS8Schedules(const Conv2dParams& p, const Target& t,
                                               bool quick_space) {
  // int8 blocks run up to a full 8-bit vector (4x the fp32 lanes): the quantized
  // kernel's MAC density scales with the filled fraction of the vector, so the space
  // leans on the widest admissible factors.
  const std::int64_t full = t.PreferredBlockS8();
  const auto keep = {full, full / 2, full / 4};
  // u8 activations pair 4 input channels per vpdpbusd lane (and the portable tier
  // mirrors that grouping), so the blocks split the quad-padded channels, and only
  // quad-divisible ic blocks are admissible.
  std::vector<std::int64_t> ic =
      BlockCandidates(p.QuadPadded().in_c, t.MaxBlockS8(), quick_space, keep);
  std::erase_if(ic, [](std::int64_t f) { return f % 4 != 0; });
  return TemplatedSchedules(
      ic, BlockCandidates(p.out_c, t.MaxBlockS8(), quick_space, keep), DType::kU8);
}

std::vector<GemmSchedule> EnumerateDenseSchedules(const DenseParams& p, bool quick_space,
                                                  DType dtype) {
  NEOCPU_CHECK(dtype == DType::kF32 || dtype == DType::kU8);
  const std::vector<std::int64_t> mrs =
      quick_space ? std::vector<std::int64_t>{4, 6, 8} : std::vector<std::int64_t>{2, 4, 6, 8};
  const std::vector<std::int64_t> nrs =
      quick_space ? std::vector<std::int64_t>{16, 32, 64}
                  : std::vector<std::int64_t>{8, 16, 32, 64};
  const std::vector<std::int64_t> mcs =
      quick_space ? std::vector<std::int64_t>{64} : std::vector<std::int64_t>{32, 64, 128};
  const std::vector<std::int64_t> ncs =
      quick_space ? std::vector<std::int64_t>{256}
                  : std::vector<std::int64_t>{128, 256, 512};
  const std::vector<std::int64_t> kcs =
      dtype == DType::kU8 ? std::vector<std::int64_t>{p.k}
      : quick_space       ? std::vector<std::int64_t>{256}
                          : std::vector<std::int64_t>{128, 256};
  std::vector<GemmSchedule> out;
  out.reserve(mrs.size() * nrs.size() * mcs.size() * ncs.size() * kcs.size());
  for (std::int64_t mr : mrs) {
    for (std::int64_t nr : nrs) {
      // Register kernels wider than the (padded) problem just redo the narrowest
      // candidate's work with more tail masking — skip all but the narrowest such.
      if (nr / 2 >= p.n && nr != nrs.front()) continue;
      if (mr / 2 >= p.m && mr != mrs.front()) continue;
      for (std::int64_t mc : mcs) {
        for (std::int64_t nc : ncs) {
          for (std::int64_t kc : kcs) {
            GemmSchedule s;
            s.mc = mc;
            s.nc = nc;
            s.kc = kc;
            s.mr = mr;
            s.nr = nr;
            s.dtype = dtype;
            out.push_back(s);
          }
        }
      }
    }
  }
  return out;
}

}  // namespace neocpu
