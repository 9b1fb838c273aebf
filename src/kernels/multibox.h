// SSD multibox operations (prior/anchor generation, box decoding, non-max suppression).
//
// These are the post-backbone operations of SSD that OpenVINO's benchmark skips ("does
// not measure the entire SSD execution time" — Table 2 footnote); NeoCPU times them, so
// this repository implements and times them as well. MultiboxPrior is input-independent
// and is pre-computed at compile time; MultiboxDetection is layout-dependent (operates
// on flattened predictions).
#ifndef NEOCPU_SRC_KERNELS_MULTIBOX_H_
#define NEOCPU_SRC_KERNELS_MULTIBOX_H_

#include <cstdint>
#include <vector>

#include "src/runtime/thread_engine.h"
#include "src/tensor/tensor.h"

namespace neocpu {

struct MultiboxPriorParams {
  std::int64_t feature_h = 0;
  std::int64_t feature_w = 0;
  std::vector<float> sizes;   // box scales relative to the image
  std::vector<float> ratios;  // aspect ratios
};

// Number of anchors per spatial location: |sizes| + |ratios| - 1 (SSD convention).
std::int64_t PriorsPerLocation(const MultiboxPriorParams& params);

// Returns {num_anchors, 4} tensor of (cx, cy, w, h) in [0,1] image coordinates.
Tensor MultiboxPrior(const MultiboxPriorParams& params);

struct MultiboxDetectionParams {
  std::int64_t num_classes = 21;    // including background at index 0
  float score_threshold = 0.01f;
  float nms_threshold = 0.45f;
  std::int64_t nms_top_k = 400;
  std::int64_t keep_top_k = 100;
  // Box-decoding variances (SSD convention).
  float variance_center = 0.1f;
  float variance_size = 0.2f;
};

// cls_prob: {num_anchors, num_classes} (post-softmax);
// loc_pred: flat {num_anchors * 4}; anchors: {num_anchors, 4}.
// Writes {keep_top_k, 6} rows of (class_id, score, x1, y1, x2, y2) into `out`; unused
// rows are all -1.
void MultiboxDetection(const MultiboxDetectionParams& params, const Tensor& cls_prob,
                       const Tensor& loc_pred, const Tensor& anchors, Tensor* out,
                       ThreadEngine* engine = nullptr);

}  // namespace neocpu

#endif  // NEOCPU_SRC_KERNELS_MULTIBOX_H_
