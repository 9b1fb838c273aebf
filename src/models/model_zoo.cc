#include "src/models/model_zoo.h"

#include "src/base/logging.h"
#include "src/base/string_util.h"
#include "src/graph/builder.h"

namespace neocpu {

namespace {

struct ZooModel {
  const char* name;
  Graph (*build)(std::int64_t batch);
  bool table2;       // one of the paper's 15, listed in Table 2 order
  bool batch1_only;  // the graph hard-codes batch 1
};

const std::vector<ZooModel>& Models() {
  static const std::vector<ZooModel> kModels = {
      {"resnet18", [](std::int64_t n) { return BuildResNet(18, n); }, true, false},
      {"resnet34", [](std::int64_t n) { return BuildResNet(34, n); }, true, false},
      {"resnet50", [](std::int64_t n) { return BuildResNet(50, n); }, true, false},
      {"resnet101", [](std::int64_t n) { return BuildResNet(101, n); }, true, false},
      {"resnet152", [](std::int64_t n) { return BuildResNet(152, n); }, true, false},
      {"vgg11", [](std::int64_t n) { return BuildVgg(11, n); }, true, false},
      {"vgg13", [](std::int64_t n) { return BuildVgg(13, n); }, true, false},
      {"vgg16", [](std::int64_t n) { return BuildVgg(16, n); }, true, false},
      {"vgg19", [](std::int64_t n) { return BuildVgg(19, n); }, true, false},
      {"densenet121", [](std::int64_t n) { return BuildDenseNet(121, n); }, true, false},
      {"densenet161", [](std::int64_t n) { return BuildDenseNet(161, n); }, true, false},
      {"densenet169", [](std::int64_t n) { return BuildDenseNet(169, n); }, true, false},
      {"densenet201", [](std::int64_t n) { return BuildDenseNet(201, n); }, true, false},
      {"inception-v3", [](std::int64_t n) { return BuildInceptionV3(n); }, true, false},
      {"ssd-resnet50", [](std::int64_t) { return BuildSsdResNet50(); }, true, true},
      {"tiny-cnn", [](std::int64_t n) { return BuildTinyCnn(n); }, false, false},
      {"transformer-encoder", [](std::int64_t n) { return BuildTransformerEncoder(n); },
       false, false},
  };
  return kModels;
}

const ZooModel* FindModel(const std::string& name) {
  for (const ZooModel& m : Models()) {
    if (name == m.name) {
      return &m;
    }
  }
  return nullptr;
}

std::vector<std::string> NamesWhere(bool table2_only) {
  std::vector<std::string> names;
  for (const ZooModel& m : Models()) {
    if (m.table2 || !table2_only) {
      names.emplace_back(m.name);
    }
  }
  return names;
}

}  // namespace

std::string ModelBuildError(const std::string& name, std::int64_t batch) {
  const ZooModel* model = FindModel(name);
  if (model == nullptr) {
    return "unknown model '" + name + "'";
  }
  if (model->batch1_only && batch != 1) {
    return StrFormat("%s is built for batch 1 only (its detection head reshapes to "
                     "{anchors, classes}); got batch %lld",
                     name.c_str(), static_cast<long long>(batch));
  }
  return "";
}

Graph BuildModel(const std::string& name, std::int64_t batch) {
  const std::string error = ModelBuildError(name, batch);
  NEOCPU_CHECK(error.empty()) << error;
  return FindModel(name)->build(batch);
}

const std::vector<std::string>& ModelZooNames() {
  static const std::vector<std::string> kNames = NamesWhere(/*table2_only=*/true);
  return kNames;
}

const std::vector<std::string>& BuildModelNames() {
  static const std::vector<std::string> kNames = NamesWhere(/*table2_only=*/false);
  return kNames;
}

std::vector<std::int64_t> ModelInputDims(const std::string& name, std::int64_t batch) {
  if (name == "transformer-encoder") {
    return {batch, 8 * 64};  // {N, S*D} token embeddings, pre-flattened
  }
  std::int64_t image = 224;
  if (name == "inception-v3") {
    image = 299;
  } else if (name == "ssd-resnet50") {
    image = 512;
  } else if (name == "tiny-cnn") {
    image = 32;
  }
  return {batch, 3, image, image};
}

Graph BuildTinyCnn(std::int64_t batch, std::int64_t image) {
  GraphBuilder b("tiny-cnn");
  int x = b.Input({batch, 3, image, image});
  x = b.ConvBnRelu(x, 16, 3, 1, 1, "stem");
  x = b.MaxPool(x, 2, 2, 0);
  // One basic residual block so the serving tests cover the elementwise-add path.
  int shortcut = x;
  int y = b.ConvBnRelu(x, 16, 3, 1, 1, "block.conv1");
  y = b.Conv(y, 16, 3, 1, 1, false, "block.conv2");
  y = b.BatchNorm(y);
  y = b.Add(y, shortcut);
  y = b.Relu(y);
  y = b.ConvBnRelu(y, 32, 3, 2, 1, "head.conv");
  y = b.GlobalAvgPool(y);
  y = b.Flatten(y);
  y = b.Dense(y, 10);
  y = b.Softmax(y);
  return b.Finish({y});
}

}  // namespace neocpu
