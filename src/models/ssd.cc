// SSD (Liu et al., ECCV 2016) with a ResNet-50 backbone at 512x512 — the paper's object
// detection workload.
//
// The structure follows the GluonCV ssd_512_resnet50_v1 recipe: ResNet-50 stages 1-4 as
// the backbone, four extra stride-2 feature blocks, per-feature-map class/location
// convolution heads, NHWC-flattened + concatenated predictions, softmax over classes,
// and a MultiboxDetection (decode + NMS) op. Priors are input-independent and are
// pre-computed into a constant at build time. Unlike OpenVINO's benchmark (Table 2
// footnote), the detection stage is part of the timed graph.
//
// The many concatenations make the conv-layout dependency graph rich enough that the
// exact DP's state space explodes, which is what forces the PBQP approximation — the
// behaviour §3.3.2 reports for SSD.
#include <cstring>

#include "src/base/logging.h"
#include "src/base/string_util.h"
#include "src/graph/builder.h"
#include "src/kernels/multibox.h"
#include "src/models/model_zoo.h"

namespace neocpu {
namespace {

int Bottleneck(GraphBuilder& b, int in_id, std::int64_t channels, std::int64_t stride,
               bool project, const std::string& name) {
  const std::int64_t mid = channels / 4;
  int shortcut = in_id;
  if (project) {
    shortcut = b.Conv(in_id, channels, 1, stride, 0, false, name + ".proj");
    shortcut = b.BatchNorm(shortcut);
  }
  int x = b.ConvBnRelu(in_id, mid, 1, 1, 0, name + ".conv1");
  x = b.ConvBnRelu(x, mid, 3, stride, 1, name + ".conv2");
  x = b.Conv(x, channels, 1, 1, 0, false, name + ".conv3");
  x = b.BatchNorm(x);
  x = b.Add(x, shortcut);
  return b.Relu(x);
}

int ResNetStage(GraphBuilder& b, int x, std::int64_t channels, int units, std::int64_t stride,
                const std::string& name) {
  for (int unit = 0; unit < units; ++unit) {
    x = Bottleneck(b, x, channels, unit == 0 ? stride : 1, unit == 0,
                   StrFormat("%s.unit%d", name.c_str(), unit + 1));
  }
  return x;
}

}  // namespace

Graph BuildSsdResNet50(std::int64_t image, std::int64_t num_classes) {
  GraphBuilder b("ssd-resnet50", /*seed=*/500);
  int x = b.Input({1, 3, image, image});
  x = b.ConvBnRelu(x, 64, 7, 2, 3, "stem");
  x = b.MaxPool(x, 3, 2, 1);
  x = ResNetStage(b, x, 256, 3, 1, "stage1");
  x = ResNetStage(b, x, 512, 4, 2, "stage2");
  const int stage3 = ResNetStage(b, x, 1024, 6, 2, "stage3");   // image/16
  const int stage4 = ResNetStage(b, stage3, 2048, 3, 2, "stage4");  // image/32

  // Extra stride-2 feature pyramid blocks.
  std::vector<int> features = {stage3, stage4};
  int f = stage4;
  const std::vector<std::pair<std::int64_t, std::int64_t>> extra = {
      {256, 512}, {128, 256}, {128, 256}, {128, 256}};
  for (std::size_t i = 0; i < extra.size(); ++i) {
    f = b.ConvBnRelu(f, extra[i].first, 1, 1, 0, StrFormat("extra%zu.reduce", i + 1));
    f = b.ConvBnRelu(f, extra[i].second, 3, 2, 1, StrFormat("extra%zu.conv", i + 1));
    features.push_back(f);
  }

  // Anchor configuration: SSD512-style scales, 4/6/6/6/4/4 priors per location.
  const std::vector<std::vector<float>> sizes = {{0.07f, 0.12f}, {0.15f, 0.23f},
                                                 {0.33f, 0.41f}, {0.51f, 0.59f},
                                                 {0.69f, 0.77f}, {0.87f, 0.95f}};
  const std::vector<std::vector<float>> ratios = {{1.0f, 2.0f, 0.5f},
                                                  {1.0f, 2.0f, 0.5f, 3.0f, 1.0f / 3.0f},
                                                  {1.0f, 2.0f, 0.5f, 3.0f, 1.0f / 3.0f},
                                                  {1.0f, 2.0f, 0.5f, 3.0f, 1.0f / 3.0f},
                                                  {1.0f, 2.0f, 0.5f},
                                                  {1.0f, 2.0f, 0.5f}};

  std::vector<int> cls_flat;
  std::vector<int> loc_flat;
  std::vector<Tensor> prior_parts;
  std::int64_t total_anchors = 0;
  for (std::size_t i = 0; i < features.size(); ++i) {
    const auto& dims = b.graph().node(features[i]).out_dims;
    MultiboxPriorParams prior;
    prior.feature_h = dims[2];
    prior.feature_w = dims[3];
    prior.sizes = sizes[i];
    prior.ratios = ratios[i];
    const std::int64_t per_loc = PriorsPerLocation(prior);
    prior_parts.push_back(MultiboxPrior(prior));
    total_anchors += dims[2] * dims[3] * per_loc;

    int cls = b.Conv(features[i], per_loc * num_classes, 3, 1, 1, true,
                     StrFormat("head%zu.cls", i + 1));
    int loc = b.Conv(features[i], per_loc * 4, 3, 1, 1, true,
                     StrFormat("head%zu.loc", i + 1));
    // NHWC flattening keeps (y, x, prior) anchor order aligned with the prior tensor.
    cls_flat.push_back(b.FlattenNHWC(cls));
    loc_flat.push_back(b.FlattenNHWC(loc));
  }

  // Assemble the constant anchor tensor {A, 4}.
  Tensor anchors = Tensor::Empty({total_anchors, 4}, Layout::Flat());
  std::int64_t offset = 0;
  for (const Tensor& part : prior_parts) {
    std::memcpy(anchors.data() + offset * 4, part.data(),
                static_cast<std::size_t>(part.NumElements()) * sizeof(float));
    offset += part.dim(0);
  }
  NEOCPU_CHECK_EQ(offset, total_anchors);
  const int anchors_id = b.Constant(std::move(anchors), "anchors");

  int cls_all = b.Concat(cls_flat);                              // {N, A*classes}
  cls_all = b.Reshape(cls_all, {total_anchors, num_classes});    // {A, classes}
  cls_all = b.Softmax(cls_all);
  int loc_all = b.Concat(loc_flat);  // {N, A*4}

  MultiboxDetectionParams det;
  det.num_classes = num_classes;
  const int out = b.MultiboxDetect(cls_all, loc_all, anchors_id, det);
  return b.Finish({out});
}

}  // namespace neocpu
