#include "src/kernels/multibox.h"

#include <algorithm>
#include <cmath>

#include "src/base/logging.h"
#include "src/tensor/tensor_check.h"

namespace neocpu {
namespace {

struct Box {
  float x1, y1, x2, y2;
  float Area() const { return std::max(0.0f, x2 - x1) * std::max(0.0f, y2 - y1); }
};

float Iou(const Box& a, const Box& b) {
  Box inter{std::max(a.x1, b.x1), std::max(a.y1, b.y1), std::min(a.x2, b.x2),
            std::min(a.y2, b.y2)};
  const float ia = inter.Area();
  const float ua = a.Area() + b.Area() - ia;
  return ua > 0.0f ? ia / ua : 0.0f;
}

}  // namespace

std::int64_t PriorsPerLocation(const MultiboxPriorParams& p) {
  return static_cast<std::int64_t>(p.sizes.size() + p.ratios.size()) - 1;
}

Tensor MultiboxPrior(const MultiboxPriorParams& p) {
  NEOCPU_CHECK(!p.sizes.empty());
  NEOCPU_CHECK(!p.ratios.empty());
  const std::int64_t per_loc = PriorsPerLocation(p);
  const std::int64_t total = p.feature_h * p.feature_w * per_loc;
  Tensor out = Tensor::Empty({total, 4}, Layout::Flat());
  float* dst = out.data();
  std::int64_t idx = 0;
  for (std::int64_t y = 0; y < p.feature_h; ++y) {
    const float cy = (static_cast<float>(y) + 0.5f) / static_cast<float>(p.feature_h);
    for (std::int64_t x = 0; x < p.feature_w; ++x) {
      const float cx = (static_cast<float>(x) + 0.5f) / static_cast<float>(p.feature_w);
      // size[0] with every ratio, then the remaining sizes with ratio[0].
      for (std::size_t r = 0; r < p.ratios.size(); ++r) {
        const float size = p.sizes[0];
        const float sq = std::sqrt(p.ratios[r]);
        dst[idx * 4 + 0] = cx;
        dst[idx * 4 + 1] = cy;
        dst[idx * 4 + 2] = size * sq;
        dst[idx * 4 + 3] = size / sq;
        ++idx;
      }
      for (std::size_t s = 1; s < p.sizes.size(); ++s) {
        const float sq = std::sqrt(p.ratios[0]);
        dst[idx * 4 + 0] = cx;
        dst[idx * 4 + 1] = cy;
        dst[idx * 4 + 2] = p.sizes[s] * sq;
        dst[idx * 4 + 3] = p.sizes[s] / sq;
        ++idx;
      }
    }
  }
  NEOCPU_CHECK_EQ(idx, total);
  return out;
}

void MultiboxDetection(const MultiboxDetectionParams& p, const Tensor& cls_prob,
                       const Tensor& loc_pred, const Tensor& anchors, Tensor* out,
                       ThreadEngine* engine) {
  NEOCPU_CHECK_EQ(cls_prob.ndim(), 2);
  const std::int64_t num_anchors = cls_prob.dim(0);
  const std::int64_t num_classes = cls_prob.dim(1);
  NEOCPU_CHECK_EQ(num_classes, p.num_classes);
  NEOCPU_CHECK_EQ(loc_pred.NumElements(), num_anchors * 4);
  NEOCPU_CHECK_EQ(anchors.NumElements(), num_anchors * 4);
  CheckKernelOutput(out, {p.keep_top_k, 6}, Layout::Flat(), "multibox_detection");

  // Decode all anchor boxes once.
  std::vector<Box> boxes(static_cast<std::size_t>(num_anchors));
  const float* loc = loc_pred.data();
  const float* anc = anchors.data();
  SerialEngine serial;
  ThreadEngine& eng = engine != nullptr ? *engine : static_cast<ThreadEngine&>(serial);
  ParallelFor(eng, num_anchors, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) {
      const float acx = anc[i * 4 + 0], acy = anc[i * 4 + 1];
      const float aw = anc[i * 4 + 2], ah = anc[i * 4 + 3];
      const float dx = loc[i * 4 + 0] * p.variance_center;
      const float dy = loc[i * 4 + 1] * p.variance_center;
      const float dw = loc[i * 4 + 2] * p.variance_size;
      const float dh = loc[i * 4 + 3] * p.variance_size;
      const float cx = acx + dx * aw;
      const float cy = acy + dy * ah;
      const float w = aw * std::exp(dw);
      const float h = ah * std::exp(dh);
      boxes[static_cast<std::size_t>(i)] =
          Box{cx - w * 0.5f, cy - h * 0.5f, cx + w * 0.5f, cy + h * 0.5f};
    }
  });

  struct Det {
    std::int64_t cls;
    float score;
    Box box;
  };
  std::vector<Det> kept;
  const float* prob = cls_prob.data();
  // Per-class threshold + NMS (class 0 is background).
  for (std::int64_t c = 1; c < num_classes; ++c) {
    std::vector<Det> cand;
    for (std::int64_t i = 0; i < num_anchors; ++i) {
      const float s = prob[i * num_classes + c];
      if (s >= p.score_threshold) {
        cand.push_back(Det{c, s, boxes[static_cast<std::size_t>(i)]});
      }
    }
    std::sort(cand.begin(), cand.end(),
              [](const Det& a, const Det& b) { return a.score > b.score; });
    if (static_cast<std::int64_t>(cand.size()) > p.nms_top_k) {
      cand.resize(static_cast<std::size_t>(p.nms_top_k));
    }
    std::vector<Det> survivors;
    for (const Det& d : cand) {
      bool suppressed = false;
      for (const Det& s : survivors) {
        if (Iou(d.box, s.box) > p.nms_threshold) {
          suppressed = true;
          break;
        }
      }
      if (!suppressed) {
        survivors.push_back(d);
      }
    }
    kept.insert(kept.end(), survivors.begin(), survivors.end());
  }
  std::sort(kept.begin(), kept.end(),
            [](const Det& a, const Det& b) { return a.score > b.score; });
  if (static_cast<std::int64_t>(kept.size()) > p.keep_top_k) {
    kept.resize(static_cast<std::size_t>(p.keep_top_k));
  }

  out->Fill(-1.0f);
  float* dst = out->data();
  for (std::size_t i = 0; i < kept.size(); ++i) {
    dst[i * 6 + 0] = static_cast<float>(kept[i].cls);
    dst[i * 6 + 1] = kept[i].score;
    dst[i * 6 + 2] = kept[i].box.x1;
    dst[i * 6 + 3] = kept[i].box.y1;
    dst[i * 6 + 4] = kept[i].box.x2;
    dst[i * 6 + 5] = kept[i].box.y2;
  }
}

}  // namespace neocpu
