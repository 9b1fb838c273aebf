// Runtime ISA tier table shared by the kernels whose hot body is compiled once per ISA
// (the f32 and int8 NCHWc convolutions and both packed GEMMs). Each baseline-compiled
// dispatcher lists the variants it links, widest first; the table keeps the ones the
// running CPU can execute (cpuid), routes calls to the widest by default, and lets
// tests and bench ablations pin any kept tier by name.
//
// Include this only from baseline-compiled translation units: its inline and template
// code must never be emitted under wider vector flags (see the *_impl.h headers).
#ifndef NEOCPU_SRC_KERNELS_ISA_TIERS_H_
#define NEOCPU_SRC_KERNELS_ISA_TIERS_H_

#include <atomic>
#include <initializer_list>
#include <string_view>

#include "src/base/cpu_info.h"

namespace neocpu {

template <typename Fn>
class IsaTierTable {
 public:
  struct Entry {
    IsaTier tier;
    Fn fn;
  };

  // `variants` are the linked variants, widest first, ending with the baseline.
  IsaTierTable(std::initializer_list<Entry> variants) {
    for (const Entry& e : variants) {
      if (count_ < kMaxTiers && CpuSupportsTier(e.tier)) {
        entries_[count_++] = e;
      }
    }
  }

  // The tier calls go to: the pinned one if any, else the widest.
  const Entry& Active() const {
    const int at = pinned_.load();
    return entries_[at >= 0 ? at : 0];
  }
  const char* ActiveName() const { return IsaTierName(Active().tier); }
  // The tier picked when nothing is pinned.
  IsaTier Widest() const { return entries_[0].tier; }

  // Pins calls to the tier named `name`; nullptr or "" restores the widest. Returns
  // false (and leaves the pin alone) when that tier is not in the table.
  bool Pin(const char* name) {
    if (name == nullptr || name[0] == '\0') {
      pinned_.store(-1);
      return true;
    }
    for (int i = 0; i < count_; ++i) {
      if (std::string_view(IsaTierName(entries_[i].tier)) == name) {
        pinned_.store(i);
        return true;
      }
    }
    return false;
  }

 private:
  static constexpr int kMaxTiers = 3;
  Entry entries_[kMaxTiers] = {};
  int count_ = 0;
  std::atomic<int> pinned_{-1};
};

}  // namespace neocpu

#endif  // NEOCPU_SRC_KERNELS_ISA_TIERS_H_
