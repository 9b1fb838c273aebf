// The paper's 15-network evaluation zoo (§4, Table 2):
//   ResNet-18/34/50/101/152, VGG-11/13/16/19, DenseNet-121/161/169/201, Inception-v3,
//   and SSD with a ResNet-50 backbone.
//
// Input conventions follow the paper: 224x224 images, except Inception-v3 (299x299) and
// SSD (512x512); batch size 1 for latency measurement. Parameters are deterministic
// pseudo-random (see GraphBuilder) — the evaluation measures compute, not accuracy, and
// correctness is established by cross-executor equivalence tests.
#ifndef NEOCPU_SRC_MODELS_MODEL_ZOO_H_
#define NEOCPU_SRC_MODELS_MODEL_ZOO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/graph.h"

namespace neocpu {

// Individual builders.
Graph BuildResNet(int depth, std::int64_t batch = 1, std::int64_t image = 224);
Graph BuildVgg(int depth, std::int64_t batch = 1, std::int64_t image = 224);
Graph BuildDenseNet(int depth, std::int64_t batch = 1, std::int64_t image = 224);
Graph BuildInceptionV3(std::int64_t batch = 1, std::int64_t image = 299);
// Batch 1 only: the detection head reshapes the class scores to {anchors, classes}.
Graph BuildSsdResNet50(std::int64_t image = 512, std::int64_t num_classes = 21);

// A small residual CNN (32x32 input, 10 classes, ~40k parameters) that compiles in
// milliseconds. Not part of the paper's Table-2 zoo: it exists so the serving tests,
// demos, and throughput benches can exercise the full compile→serve path with
// CI-friendly latencies.
Graph BuildTinyCnn(std::int64_t batch = 1, std::int64_t image = 32);

// A small transformer encoder (S=8 tokens of D=64, 4 heads, FFN 256, 2 layers, 10
// classes). Also off-zoo: the paper predates transformer serving, but the tuned GEMM
// family makes Dense a first-class workload, and this model is its end-to-end
// exercise — every projection and FFN layer is a schedule-searched, pre-packed GEMM.
Graph BuildTransformerEncoder(std::int64_t batch = 1, std::int64_t seq = 8,
                              std::int64_t dim = 64, std::int64_t heads = 4,
                              std::int64_t ffn = 256, int layers = 2,
                              std::int64_t num_classes = 10);

// By name: "resnet18".."resnet152", "vgg11".."vgg19", "densenet121".."densenet201",
// "inception-v3", "ssd-resnet50", plus the off-zoo "tiny-cnn" and
// "transformer-encoder". Dies with ModelBuildError's message when that is non-empty.
Graph BuildModel(const std::string& name, std::int64_t batch = 1);

// Why BuildModel(name, batch) would fail, or "" when it builds: an unknown name, or a
// batch other than 1 for ssd-resnet50.
std::string ModelBuildError(const std::string& name, std::int64_t batch);

// The 15 names in the paper's Table 2 order.
const std::vector<std::string>& ModelZooNames();

// Every name BuildModel accepts: ModelZooNames() followed by the off-zoo models.
const std::vector<std::string>& BuildModelNames();

// {N, 3, H, W} for a model's expected input ({N, S*D} for the transformer encoder).
std::vector<std::int64_t> ModelInputDims(const std::string& name, std::int64_t batch = 1);

}  // namespace neocpu

#endif  // NEOCPU_SRC_MODELS_MODEL_ZOO_H_
