// Object detection with SSD-ResNet-50: the paper's detection workload, end to end —
// backbone, multibox heads, box decoding and NMS are all part of the compiled graph
// (the paper notes OpenVINO skips the post-processing; NeoCPU times all of it).
//
//   ./object_detection_ssd [image_size] [num_classes]
//
// Defaults to 256x256 / 21 classes so the demo runs in seconds; 512 reproduces the
// paper's configuration.
#include <cstdio>

#include "src/neocpu.h"

int main(int argc, char** argv) {
  using namespace neocpu;
  const std::int64_t image = argc > 1 ? std::atoll(argv[1]) : 256;
  const std::int64_t classes = argc > 2 ? std::atoll(argv[2]) : 21;

  std::printf("Building SSD-ResNet-50 at %lldx%lld with %lld classes...\n",
              static_cast<long long>(image), static_cast<long long>(image),
              static_cast<long long>(classes));
  Graph model = BuildSsdResNet50(image, classes);

  CompiledModel compiled = Compile(model, NeoCpuOptions(Target::Host()));
  std::printf("Compiled: %d convs, %d runtime layout transforms, search=%s\n",
              compiled.stats().num_convs, compiled.stats().num_layout_transforms,
              compiled.stats().used_exact_dp ? "exact DP" : "PBQP");

  Rng rng(99);
  Tensor frame = Tensor::Random({1, 3, image, image}, rng, 0.0f, 1.0f, Layout::NCHW());

  NeoThreadPool pool;
  Timer timer;
  Tensor detections = compiled.Run(frame, &pool);
  std::printf("Detection pass: %.2f ms (backbone + heads + decode + NMS)\n", timer.Millis());

  std::printf("Detections (class, score, x1, y1, x2, y2) above score 0.02:\n");
  int shown = 0;
  for (std::int64_t i = 0; i < detections.dim(0) && shown < 10; ++i) {
    const float* row = detections.data() + i * 6;
    if (row[0] < 0.0f || row[1] < 0.02f) {
      continue;
    }
    std::printf("  class %2d  score %.3f  box (%.3f, %.3f) - (%.3f, %.3f)\n",
                static_cast<int>(row[0]), row[1], row[2], row[3], row[4], row[5]);
    ++shown;
  }
  if (shown == 0) {
    std::printf("  (random weights produce few confident boxes - expected)\n");
  }
  return 0;
}
