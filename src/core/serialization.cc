#include "src/core/serialization.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "src/base/logging.h"
#include "src/graph/shape_infer.h"

namespace neocpu {
namespace {

constexpr char kMagic[4] = {'N', 'E', 'O', 'C'};
// One version: a module is the fused source graph plus its tuning state, and the
// executable graph is re-derived at load. docs/module_format.md is the spec.
constexpr std::uint32_t kVersion = 11;

// The source-graph attributes of a node, mirrored as an explicit POD so the on-disk
// format stays stable regardless of NodeAttrs layout changes. Everything else in
// NodeAttrs (schedules, quantization, GEMM tiles) is set by lowering.
struct AttrBlock {
  Conv2dParams conv;
  ConvEpilogue epilogue;
  Pool2dParams pool;
  MultiboxDetectionParams det;
  float epsilon;
  std::uint8_t relu;
  std::int64_t heads;
  std::int64_t seq;
};
static_assert(std::is_trivially_copyable_v<AttrBlock>);

template <typename T>
void WritePod(std::ostream& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void WriteString(std::ostream& out, const std::string& s) {
  WritePod(out, static_cast<std::uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

template <typename Int>
void WriteI64Vec(std::ostream& out, const std::vector<Int>& v) {
  WritePod(out, static_cast<std::uint32_t>(v.size()));
  for (Int x : v) {
    WritePod(out, static_cast<std::int64_t>(x));
  }
}

void WriteLayout(std::ostream& out, const Layout& layout) {
  WritePod(out, static_cast<std::uint32_t>(layout.kind));
  WritePod(out, layout.c_block);
  WritePod(out, layout.i_block);
  WritePod(out, layout.o_block);
}

// Bounds-checked reads over the module's bytes. Every read is checked against the
// bytes left in the file, so a length prefix or payload larger than the file fails the
// load instead of allocating or reading past the end. After the first failure ok()
// stays false and every later read yields a zero value.
class Reader {
 public:
  Reader(std::istream& in, std::uint64_t size) : in_(in), left_(size) {}

  bool ok() const { return ok_; }
  std::uint64_t left() const { return left_; }
  void Fail() { ok_ = false; }

  void Bytes(void* dst, std::uint64_t n) {
    if (!ok_ || n > left_) {
      ok_ = false;
      return;
    }
    in_.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
    left_ -= n;
    ok_ = static_cast<bool>(in_);
  }

  template <typename T>
  T Pod() {
    T v{};
    Bytes(&v, sizeof(v));
    return ok_ ? v : T{};
  }

  // A u32-coded enumerator; values above `last` fail the read.
  template <typename E>
  E Enum(E last) {
    const std::uint32_t v = Pod<std::uint32_t>();
    if (v > static_cast<std::uint32_t>(last)) {
      ok_ = false;
      return E{};
    }
    return static_cast<E>(v);
  }

  std::string String() {
    const std::uint32_t n = Pod<std::uint32_t>();
    if (n > left_) {
      ok_ = false;
      return {};
    }
    std::string s(n, '\0');
    Bytes(s.data(), n);
    return s;
  }

  std::vector<std::int64_t> I64Vec() {
    const std::uint32_t n = Pod<std::uint32_t>();
    if (n > left_ / sizeof(std::int64_t)) {
      ok_ = false;
      return {};
    }
    std::vector<std::int64_t> v(n);
    Bytes(v.data(), n * sizeof(std::int64_t));
    return v;
  }

  Layout ReadLayout() {
    Layout layout;
    layout.kind = Enum(LayoutKind::kFlat);
    layout.c_block = Pod<std::int64_t>();
    layout.i_block = Pod<std::int64_t>();
    layout.o_block = Pod<std::int64_t>();
    return layout;
  }

 private:
  std::istream& in_;
  std::uint64_t left_;
  bool ok_ = true;
};

// Node record: type, name, inputs, then the type's body — the dims of an input, the
// payload of a constant, the attributes of an operator. Output dims are re-inferred at
// load.
void WriteSourceGraph(std::ostream& out, const Graph& g) {
  WriteString(out, g.name);
  WriteI64Vec(out, g.outputs());
  WritePod(out, static_cast<std::uint32_t>(g.num_nodes()));
  for (int id = 0; id < g.num_nodes(); ++id) {
    const Node& node = g.node(id);
    WritePod(out, static_cast<std::uint32_t>(node.type));
    WriteString(out, node.name);
    WriteI64Vec(out, node.inputs);
    if (node.type == OpType::kInput) {
      WriteI64Vec(out, node.out_dims);
    } else if (node.type == OpType::kConstant) {
      WritePod(out, static_cast<std::uint32_t>(node.payload.dtype()));
      WriteI64Vec(out, node.payload.dims());
      WriteLayout(out, node.payload.layout());
      out.write(reinterpret_cast<const char*>(node.payload.data()),
                static_cast<std::streamsize>(node.payload.SizeBytes()));
    } else {
      AttrBlock block{};
      block.conv = node.attrs.conv;
      block.epilogue = node.attrs.epilogue;
      block.pool = node.attrs.pool;
      block.det = node.attrs.det;
      block.epsilon = node.attrs.epsilon;
      block.relu = node.attrs.relu ? 1 : 0;
      block.heads = node.attrs.heads;
      block.seq = node.attrs.seq;
      WritePod(out, block);
      WriteLayout(out, node.attrs.dst_layout);
      WriteI64Vec(out, node.attrs.reshape_dims);
    }
  }
}

// True when every dim is non-negative and their product is at most `limit`.
bool CountFits(const std::vector<std::int64_t>& dims, std::uint64_t limit) {
  std::uint64_t count = 1;
  for (std::int64_t d : dims) {
    if (d < 0) {
      return false;
    }
    const auto ud = static_cast<std::uint64_t>(d);
    if (ud != 0 && count > limit / ud) {
      return false;
    }
    count *= ud;
  }
  return count <= limit;
}

// Reads a WriteSourceGraph record. Structural damage (truncation, oversized lengths,
// out-of-range enumerators or node ids) fails the read; shape inference then
// re-derives every operator's output dims.
bool ReadSourceGraph(Reader& in, Graph* out) {
  Graph g;
  g.name = in.String();
  const std::vector<std::int64_t> outputs = in.I64Vec();
  const std::uint32_t num_nodes = in.Pod<std::uint32_t>();
  for (std::uint32_t i = 0; i < num_nodes && in.ok(); ++i) {
    const OpType type = in.Enum(OpType::kMultiHeadAttention);
    std::string name = in.String();
    std::vector<int> inputs;
    for (std::int64_t x : in.I64Vec()) {
      if (x < 0 || x >= static_cast<std::int64_t>(i)) {
        in.Fail();
      }
      inputs.push_back(static_cast<int>(x));
    }
    if (!in.ok()) {
      break;
    }
    if (type == OpType::kInput) {
      g.AddInput(in.I64Vec(), std::move(name));
    } else if (type == OpType::kConstant) {
      const DType dtype = in.Enum(DType::kS32);
      std::vector<std::int64_t> dims = in.I64Vec();
      const Layout layout = in.ReadLayout();
      if (!in.ok() || !CountFits(dims, in.left() / ElemSizeBytes(dtype))) {
        in.Fail();
        break;
      }
      Tensor payload = Tensor::Empty(std::move(dims), layout, dtype);
      in.Bytes(payload.data(), payload.SizeBytes());
      g.AddConstant(std::move(payload), std::move(name));
    } else {
      const AttrBlock block = in.Pod<AttrBlock>();
      NodeAttrs attrs;
      attrs.conv = block.conv;
      attrs.epilogue = block.epilogue;
      attrs.pool = block.pool;
      attrs.det = block.det;
      attrs.epsilon = block.epsilon;
      attrs.relu = block.relu != 0;
      attrs.heads = block.heads;
      attrs.seq = block.seq;
      attrs.dst_layout = in.ReadLayout();
      attrs.reshape_dims = in.I64Vec();
      g.AddNode(type, std::move(inputs), std::move(attrs), std::move(name));
    }
  }
  std::vector<int> output_ids;
  for (std::int64_t o : outputs) {
    if (o < 0 || o >= g.num_nodes()) {
      in.Fail();
    }
    output_ids.push_back(static_cast<int>(o));
  }
  if (!in.ok()) {
    return false;
  }
  g.SetOutputs(std::move(output_ids));
  InferShapes(&g);
  *out = std::move(g);
  return true;
}

void WriteConfig(std::ostream& out, const CompileConfig& config) {
  WritePod(out, static_cast<std::uint32_t>(config.layout_mode));
  const Target& t = config.target;
  WriteString(out, t.name);
  WritePod(out, static_cast<std::uint32_t>(t.vector_lanes));
  WritePod(out, static_cast<std::uint32_t>(t.num_vector_registers));
  WritePod(out, static_cast<std::uint32_t>(t.num_cores));
  WritePod(out, t.freq_ghz);
  WritePod(out, static_cast<std::uint32_t>(t.fma_per_cycle));
  WritePod(out, static_cast<std::uint64_t>(t.l1d_bytes));
  WritePod(out, static_cast<std::uint64_t>(t.l2_bytes));
  WritePod(out, static_cast<std::uint64_t>(t.l3_bytes));
  WritePod(out, static_cast<std::uint32_t>(t.vnni_dot ? 1 : 0));
  WritePod(out, static_cast<std::uint32_t>(config.cost_mode));
  WritePod(out, static_cast<std::uint32_t>(config.quick_space ? 1 : 0));
  WritePod(out, static_cast<std::uint64_t>(config.max_dp_table_entries));
  WritePod(out, static_cast<std::uint32_t>(config.force_algo ? 1 : 0));
  WritePod(out, static_cast<std::uint32_t>(config.forced_algo));
  WritePod(out, static_cast<std::uint32_t>(config.quantize ? 1 : 0));
  WritePod(out, static_cast<std::uint32_t>(config.force_quantize ? 1 : 0));
  WritePod(out, static_cast<std::uint32_t>(config.calibration_policy));
  WritePod(out, static_cast<std::uint32_t>(config.quantize_dense ? 1 : 0));
}

CompileConfig ReadConfig(Reader& in) {
  CompileConfig config;
  config.layout_mode = in.Enum(LayoutMode::kNCHWcGlobal);
  Target& t = config.target;
  t.name = in.String();
  t.vector_lanes = static_cast<int>(in.Pod<std::uint32_t>());
  t.num_vector_registers = static_cast<int>(in.Pod<std::uint32_t>());
  t.num_cores = static_cast<int>(in.Pod<std::uint32_t>());
  t.freq_ghz = in.Pod<double>();
  t.fma_per_cycle = static_cast<int>(in.Pod<std::uint32_t>());
  t.l1d_bytes = in.Pod<std::uint64_t>();
  t.l2_bytes = in.Pod<std::uint64_t>();
  t.l3_bytes = in.Pod<std::uint64_t>();
  t.vnni_dot = in.Pod<std::uint32_t>() != 0;
  config.cost_mode = in.Enum(CostMode::kMeasured);
  config.quick_space = in.Pod<std::uint32_t>() != 0;
  config.max_dp_table_entries = static_cast<std::size_t>(in.Pod<std::uint64_t>());
  config.force_algo = in.Pod<std::uint32_t>() != 0;
  config.forced_algo = in.Enum(ConvAlgo::kReference);
  config.quantize = in.Pod<std::uint32_t>() != 0;
  config.force_quantize = in.Pod<std::uint32_t>() != 0;
  config.calibration_policy = in.Enum(CalibrationPolicy::kEntropy);
  config.quantize_dense = in.Pod<std::uint32_t>() != 0;
  return config;
}

}  // namespace

bool SaveModule(const CompiledModel& model, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return false;
  }
  out.write(kMagic, sizeof(kMagic));
  WritePod(out, kVersion);
  WriteSourceGraph(out, model.source_graph());
  WriteConfig(out, model.config());
  WritePod(out, static_cast<std::int64_t>(model.stats().tuned_batch));
  std::ostringstream cache_text;
  model.tuning()->Serialize(cache_text);
  WriteString(out, cache_text.str());
  // Calibration table (source-graph node id -> observed activation range): lowering
  // re-runs the fp32-vs-int8 selection from it at load and at every re-tune.
  const CalibrationTable& calibration = model.calibration();
  WritePod(out, static_cast<std::uint32_t>(calibration.size()));
  for (const auto& [id, range] : calibration) {
    WritePod(out, static_cast<std::int64_t>(id));
    WritePod(out, range.min);
    WritePod(out, range.max);
  }
  return static_cast<bool>(out);
}

bool LoadModule(const std::string& path, CompiledModel* model) {
  NEOCPU_CHECK(model != nullptr);
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = file ? static_cast<std::streamoff>(file.tellg()) : -1;
  file.seekg(0);
  if (size < 0 || !file) {
    LOG(ERROR) << "cannot read module file " << path;
    return false;
  }
  Reader in(file, static_cast<std::uint64_t>(size));

  char magic[sizeof(kMagic)] = {};
  in.Bytes(magic, sizeof(magic));
  if (!in.ok() || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    LOG(ERROR) << path << " is not a NeoCPU module";
    return false;
  }
  const std::uint32_t version = in.Pod<std::uint32_t>();
  if (version != kVersion) {
    LOG(ERROR) << path << ": module format v" << version << " is not supported (this "
               << "build reads v" << kVersion << "); re-export with the current build";
    return false;
  }

  Graph source;
  if (!ReadSourceGraph(in, &source)) {
    LOG(ERROR) << path << ": truncated or malformed source graph";
    return false;
  }
  const CompileConfig config = ReadConfig(in);
  const std::int64_t tuned_batch = in.Pod<std::int64_t>();
  auto cache = std::make_shared<TuningCache>();
  std::istringstream cache_text(in.String());
  if (in.ok() && !cache->Deserialize(cache_text)) {
    LOG(ERROR) << path << ": corrupt embedded tuning cache";
    return false;
  }
  CalibrationTable calibration;
  const std::uint32_t entries = in.Pod<std::uint32_t>();
  for (std::uint32_t i = 0; i < entries && in.ok(); ++i) {
    const auto id = static_cast<int>(in.Pod<std::int64_t>());
    TensorRange range;
    range.min = in.Pod<float>();
    range.max = in.Pod<float>();
    calibration.emplace(id, range);
  }
  if (!in.ok()) {
    LOG(ERROR) << path << ": truncated module file";
    return false;
  }

  // The executable graph (and its memory plan) are derived artifacts: re-lowered here
  // from the source and the restored tuning state rather than trusted from the file.
  if (!LowerModel(std::move(source), config, std::move(cache), std::move(calibration),
                  tuned_batch, model)) {
    LOG(ERROR) << path << ": source graph cannot be rebound to tuned batch "
               << tuned_batch;
    return false;
  }
  return true;
}

}  // namespace neocpu
