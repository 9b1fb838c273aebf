#include "src/tuning/schedule_space.h"

#include <algorithm>

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

std::vector<ConvSchedule> EnumerateSchedules(const Conv2dParams& p, const Target& t,
                                             bool quick_space) {
  const std::int64_t cap = std::min<std::int64_t>(t.MaxBlock(), kMaxChannelBlock);
  std::vector<std::int64_t> ic = Factors(p.in_c, cap);
  std::vector<std::int64_t> oc = Factors(p.out_c, cap);
  if (quick_space) {
    auto prune = [&](std::vector<std::int64_t>& v) {
      const std::int64_t lanes = t.PreferredBlock();
      std::vector<std::int64_t> keep;
      for (std::int64_t f : v) {
        if (f == lanes || f == lanes / 2 || f == 2 * lanes || f == v.back()) {
          keep.push_back(f);
        }
      }
      if (keep.empty()) {
        keep.push_back(v.back());
      }
      v = std::move(keep);
    };
    prune(ic);
    prune(oc);
  }
  std::vector<ConvSchedule> out;
  out.reserve(ic.size() * oc.size() * RegNCandidates().size() * 2);
  for (std::int64_t i : ic) {
    for (std::int64_t o : oc) {
      for (std::int64_t r : RegNCandidates()) {
        for (bool u : {true, false}) {
          out.push_back(ConvSchedule{i, o, r, u});
        }
      }
    }
  }
  return out;
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
  const std::int64_t cap = std::min<std::int64_t>(t.MaxBlockS8(), kMaxChannelBlock);
  std::vector<std::int64_t> ic = Factors(p.in_c, cap);
  std::vector<std::int64_t> oc = Factors(p.out_c, cap);
  if (quick_space) {
    auto prune = [&](std::vector<std::int64_t>& v) {
      const std::int64_t full = t.PreferredBlockS8();
      std::vector<std::int64_t> keep;
      for (std::int64_t f : v) {
        if (f == full || f == full / 2 || f == full / 4 || f == v.back()) {
          keep.push_back(f);
        }
      }
      if (keep.empty()) {
        keep.push_back(v.back());
      }
      v = std::move(keep);
    };
    prune(ic);
    prune(oc);
  }
  // u8 activations pair 4 input channels per vpdpbusd lane (and the portable tier
  // mirrors that grouping), so only quad-divisible ic blocks are admissible.
  ic.erase(std::remove_if(ic.begin(), ic.end(), [](std::int64_t f) { return f % 4 != 0; }),
           ic.end());
  // Only block shapes the kernel is instantiated for: a conv with no such oc block
  // among its factors (e.g. a 126-channel SSD class head) gets an empty space and
  // stays f32.
  std::vector<ConvSchedule> out;
  out.reserve(ic.size() * oc.size() * RegNCandidates().size() * 2);
  for (std::int64_t i : ic) {
    for (std::int64_t o : oc) {
      for (std::int64_t r : RegNCandidates()) {
        for (bool u : {true, false}) {
          ConvSchedule s{i, o, r, u};
          s.dtype = DType::kU8;
          if (IsInt8Templated(s)) {
            out.push_back(s);
          }
        }
      }
    }
  }
  return out;
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
