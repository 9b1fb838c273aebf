#include "src/core/serialization.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/base/logging.h"
#include "src/graph/shape_infer.h"
#include "src/kernels/conv_schedule.h"

namespace neocpu {
namespace {

constexpr char kMagic[4] = {'N', 'E', 'O', 'C'};
// v1: executable graph only. v2: + source graph, CompileConfig, tuned_batch, TuningCache.
// v3: + memory-planning config flag (now a reserved slot: written as 1, ignored on
//     load) and memory-plan summary metadata.
// v4: + per-conv algorithm tag in the schedule block and forced-algo config fields;
//     embedded tuning caches carry algorithm-tagged entries (cache format v3).
// v5: quantized path — per-node quant block (ConvQuant + Q/DQ attrs + schedule dtype)
//     and output dtype, dtyped constant payloads (s8 weights, s32 biases), quantize
//     config flags + Target::int8_dot, and the calibration table; embedded tuning
//     caches carry dtype-tagged entries (cache format v4).
// v6: u8 activations — per-node quant extension block (activation/output dtype with
//     zero points, integer concat per-input rescale params), calibration-policy /
//     quantize-dense / forced-dtype config fields, and Target::vnni_dot.
// v7: tuned dense / transformer ops — per-node GEMM extension block (GemmSchedule
//     tiles + dtype, DenseParams, attention heads/seq); embedded tuning caches carry
//     dense records (cache format v5).
// docs/module_format.md is the authoritative spec.
constexpr std::uint32_t kVersion = 7;
constexpr std::uint32_t kMinVersion = 1;

void WriteU32(std::ostream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void WriteU64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void WriteI64(std::ostream& out, std::int64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void WriteF64(std::ostream& out, double v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void WriteF32(std::ostream& out, float v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void WriteString(std::ostream& out, const std::string& s) {
  WriteU32(out, static_cast<std::uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

void WriteI64Vec(std::ostream& out, const std::vector<std::int64_t>& v) {
  WriteU32(out, static_cast<std::uint32_t>(v.size()));
  for (std::int64_t x : v) {
    WriteI64(out, x);
  }
}

void WriteLayout(std::ostream& out, const Layout& layout) {
  WriteU32(out, static_cast<std::uint32_t>(layout.kind));
  WriteI64(out, layout.c_block);
  WriteI64(out, layout.i_block);
  WriteI64(out, layout.o_block);
}

std::uint32_t ReadU32(std::istream& in) {
  std::uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}

std::uint64_t ReadU64(std::istream& in) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}

std::int64_t ReadI64(std::istream& in) {
  std::int64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}

double ReadF64(std::istream& in) {
  double v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}

float ReadF32(std::istream& in) {
  float v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}

std::string ReadString(std::istream& in) {
  std::string s(ReadU32(in), '\0');
  in.read(s.data(), static_cast<std::streamsize>(s.size()));
  return s;
}

std::vector<std::int64_t> ReadI64Vec(std::istream& in) {
  std::vector<std::int64_t> v(ReadU32(in));
  for (std::int64_t& x : v) {
    x = ReadI64(in);
  }
  return v;
}

Layout ReadLayout(std::istream& in) {
  Layout layout;
  layout.kind = static_cast<LayoutKind>(ReadU32(in));
  layout.c_block = ReadI64(in);
  layout.i_block = ReadI64(in);
  layout.o_block = ReadI64(in);
  return layout;
}

// Explicit POD mirror of ConvSchedule. Byte-compatible with the pre-v4 layout (three
// int64 blocks + a bool padded to 32 bytes): `algo` occupies what used to be struct
// padding, so one AttrBlock shape reads every version — pre-v4 files just carry
// meaningless bytes there, which the loader overwrites with kDirectNCHWc.
struct ScheduleBlock {
  std::int64_t ic_bn;
  std::int64_t oc_bn;
  std::int64_t reg_n;
  std::uint8_t unroll_ker;
  std::uint8_t pad[3];
  std::uint32_t algo;  // v4+
};
static_assert(sizeof(ScheduleBlock) == 32, "on-disk schedule block layout drifted");

// The fixed-size portion of NodeAttrs, mirrored as an explicit POD so the on-disk
// format stays stable regardless of struct layout changes.
struct AttrBlock {
  Conv2dParams conv;
  ConvEpilogue epilogue;
  ScheduleBlock schedule;
  std::uint32_t kernel;
  Pool2dParams pool;
  float epsilon;
  std::uint8_t relu;
  MultiboxDetectionParams det;
};

// v5 extension, written as a second POD after every AttrBlock: the quantization
// attributes plus the schedule's execution dtype (which predates no padding slot in
// ScheduleBlock that v1-v4 readers would tolerate).
struct QuantBlock {
  std::uint8_t q_enabled;
  std::uint8_t q_requant;
  std::uint8_t qdtype;
  std::uint8_t schedule_dtype;
  float in_scale;
  float out_scale;
  float qscale;
  std::int32_t qzero;
};
static_assert(sizeof(QuantBlock) == 20, "on-disk quant block layout drifted");

// v6 extension, written after every QuantBlock: the u8-activation state — which dtype
// the conv reads/writes and the zero points that go with it. The integer-concat
// per-input rescale vectors follow as explicit length-prefixed arrays (variable size,
// so not part of the POD).
struct QuantExtBlock {
  std::uint8_t adtype;
  std::uint8_t out_dtype;
  std::uint8_t pad[2];
  std::int32_t in_zero;
  std::int32_t out_zero;
};
static_assert(sizeof(QuantExtBlock) == 12, "on-disk quant ext block layout drifted");

// v7 extension, written after the QuantExtBlock arrays: the tuned-GEMM state for
// dense nodes (schedule tiles + execution dtype + the frozen M/N/K the schedule was
// searched for) and the attention geometry for multi_head_attention nodes.
struct GemmExtBlock {
  std::uint8_t has_gemm;
  std::uint8_t gemm_dtype;
  std::uint8_t pad[6];
  std::int64_t mc;
  std::int64_t nc;
  std::int64_t kc;
  std::int64_t mr;
  std::int64_t nr;
  std::int64_t dense_m;
  std::int64_t dense_n;
  std::int64_t dense_k;
  std::int64_t heads;
  std::int64_t seq;
};
static_assert(sizeof(GemmExtBlock) == 88, "on-disk gemm ext block layout drifted");

void WriteGraph(std::ostream& out, const Graph& g) {
  WriteString(out, g.name);
  {
    std::vector<std::int64_t> outputs(g.outputs().begin(), g.outputs().end());
    WriteI64Vec(out, outputs);
  }
  WriteU32(out, static_cast<std::uint32_t>(g.num_nodes()));
  for (int id = 0; id < g.num_nodes(); ++id) {
    const Node& node = g.node(id);
    WriteU32(out, static_cast<std::uint32_t>(node.type));
    WriteString(out, node.name);
    {
      std::vector<std::int64_t> inputs(node.inputs.begin(), node.inputs.end());
      WriteI64Vec(out, inputs);
    }
    AttrBlock block{};
    block.conv = node.attrs.conv;
    block.epilogue = node.attrs.epilogue;
    block.schedule.ic_bn = node.attrs.schedule.ic_bn;
    block.schedule.oc_bn = node.attrs.schedule.oc_bn;
    block.schedule.reg_n = node.attrs.schedule.reg_n;
    block.schedule.unroll_ker = node.attrs.schedule.unroll_ker ? 1 : 0;
    block.schedule.algo = static_cast<std::uint32_t>(node.attrs.schedule.algo);
    block.kernel = static_cast<std::uint32_t>(node.attrs.kernel);
    block.pool = node.attrs.pool;
    block.epsilon = node.attrs.epsilon;
    block.relu = node.attrs.relu ? 1 : 0;
    block.det = node.attrs.det;
    out.write(reinterpret_cast<const char*>(&block), sizeof(block));
    QuantBlock quant{};
    quant.q_enabled = node.attrs.qconv.enabled ? 1 : 0;
    quant.q_requant = node.attrs.qconv.requant ? 1 : 0;
    quant.qdtype = static_cast<std::uint8_t>(node.attrs.qdtype);
    quant.schedule_dtype = static_cast<std::uint8_t>(node.attrs.schedule.dtype);
    quant.in_scale = node.attrs.qconv.in_scale;
    quant.out_scale = node.attrs.qconv.out_scale;
    quant.qscale = node.attrs.qscale;
    quant.qzero = node.attrs.qzero;
    out.write(reinterpret_cast<const char*>(&quant), sizeof(quant));
    QuantExtBlock ext{};
    ext.adtype = static_cast<std::uint8_t>(node.attrs.qconv.adtype);
    ext.out_dtype = static_cast<std::uint8_t>(node.attrs.qconv.out_dtype);
    ext.in_zero = node.attrs.qconv.in_zero;
    ext.out_zero = node.attrs.qconv.out_zero;
    out.write(reinterpret_cast<const char*>(&ext), sizeof(ext));
    WriteU32(out, static_cast<std::uint32_t>(node.attrs.qin_scales.size()));
    for (float s : node.attrs.qin_scales) {
      WriteF32(out, s);
    }
    WriteU32(out, static_cast<std::uint32_t>(node.attrs.qin_zeros.size()));
    for (std::int32_t z : node.attrs.qin_zeros) {
      WriteU32(out, static_cast<std::uint32_t>(z));
    }
    GemmExtBlock gemm{};
    gemm.has_gemm = node.attrs.has_gemm ? 1 : 0;
    gemm.gemm_dtype = static_cast<std::uint8_t>(node.attrs.gemm.dtype);
    gemm.mc = node.attrs.gemm.mc;
    gemm.nc = node.attrs.gemm.nc;
    gemm.kc = node.attrs.gemm.kc;
    gemm.mr = node.attrs.gemm.mr;
    gemm.nr = node.attrs.gemm.nr;
    gemm.dense_m = node.attrs.dense.m;
    gemm.dense_n = node.attrs.dense.n;
    gemm.dense_k = node.attrs.dense.k;
    gemm.heads = node.attrs.heads;
    gemm.seq = node.attrs.seq;
    out.write(reinterpret_cast<const char*>(&gemm), sizeof(gemm));
    WriteLayout(out, node.attrs.dst_layout);
    WriteI64Vec(out, node.attrs.reshape_dims);
    WriteI64Vec(out, node.out_dims);
    WriteLayout(out, node.out_layout);
    WriteU32(out, static_cast<std::uint32_t>(node.out_dtype));
    const bool has_payload = node.payload.defined();
    WriteU32(out, has_payload ? 1 : 0);
    if (has_payload) {
      WriteU32(out, static_cast<std::uint32_t>(node.payload.dtype()));
      WriteI64Vec(out, node.payload.dims());
      WriteLayout(out, node.payload.layout());
      out.write(reinterpret_cast<const char*>(node.payload.data()),
                static_cast<std::streamsize>(node.payload.SizeBytes()));
    }
  }
}

Graph ReadGraph(std::istream& in, const std::string& path, std::uint32_t version) {
  Graph g;
  g.name = ReadString(in);
  std::vector<int> outputs;
  for (std::int64_t o : ReadI64Vec(in)) {
    outputs.push_back(static_cast<int>(o));
  }
  const std::uint32_t num_nodes = ReadU32(in);
  for (std::uint32_t i = 0; i < num_nodes; ++i) {
    const OpType type = static_cast<OpType>(ReadU32(in));
    const std::string name = ReadString(in);
    std::vector<int> inputs;
    for (std::int64_t x : ReadI64Vec(in)) {
      inputs.push_back(static_cast<int>(x));
    }
    AttrBlock block{};
    in.read(reinterpret_cast<char*>(&block), sizeof(block));
    NodeAttrs attrs;
    attrs.conv = block.conv;
    attrs.epilogue = block.epilogue;
    attrs.schedule.ic_bn = block.schedule.ic_bn;
    attrs.schedule.oc_bn = block.schedule.oc_bn;
    attrs.schedule.reg_n = block.schedule.reg_n;
    attrs.schedule.unroll_ker = block.schedule.unroll_ker != 0;
    // Pre-v4 modules predate the algorithm tag; those bytes were struct padding.
    attrs.schedule.algo =
        version >= 4 ? static_cast<ConvAlgo>(block.schedule.algo) : ConvAlgo::kDirectNCHWc;
    attrs.kernel = static_cast<ConvKernelKind>(block.kernel);
    attrs.pool = block.pool;
    attrs.epsilon = block.epsilon;
    attrs.relu = block.relu != 0;
    attrs.det = block.det;
    if (version >= 5) {
      QuantBlock quant{};
      in.read(reinterpret_cast<char*>(&quant), sizeof(quant));
      attrs.qconv.enabled = quant.q_enabled != 0;
      attrs.qconv.requant = quant.q_requant != 0;
      attrs.qconv.in_scale = quant.in_scale;
      attrs.qconv.out_scale = quant.out_scale;
      attrs.qdtype = static_cast<DType>(quant.qdtype);
      attrs.qscale = quant.qscale;
      attrs.qzero = quant.qzero;
      attrs.schedule.dtype = static_cast<DType>(quant.schedule_dtype);
    }
    if (version >= 6) {
      QuantExtBlock ext{};
      in.read(reinterpret_cast<char*>(&ext), sizeof(ext));
      attrs.qconv.adtype = static_cast<DType>(ext.adtype);
      attrs.qconv.out_dtype = static_cast<DType>(ext.out_dtype);
      attrs.qconv.in_zero = ext.in_zero;
      attrs.qconv.out_zero = ext.out_zero;
      attrs.qin_scales.resize(ReadU32(in));
      for (float& s : attrs.qin_scales) {
        s = ReadF32(in);
      }
      attrs.qin_zeros.resize(ReadU32(in));
      for (std::int32_t& z : attrs.qin_zeros) {
        z = static_cast<std::int32_t>(ReadU32(in));
      }
    }
    // v5 modules predate u8 activations: every quantized conv there is s8-in/s8-out
    // with zero zero-points, which is exactly ConvQuant's default state.
    if (version >= 7) {
      GemmExtBlock gemm{};
      in.read(reinterpret_cast<char*>(&gemm), sizeof(gemm));
      attrs.has_gemm = gemm.has_gemm != 0;
      attrs.gemm.dtype = static_cast<DType>(gemm.gemm_dtype);
      attrs.gemm.mc = gemm.mc;
      attrs.gemm.nc = gemm.nc;
      attrs.gemm.kc = gemm.kc;
      attrs.gemm.mr = gemm.mr;
      attrs.gemm.nr = gemm.nr;
      attrs.dense.m = gemm.dense_m;
      attrs.dense.n = gemm.dense_n;
      attrs.dense.k = gemm.dense_k;
      attrs.heads = gemm.heads;
      attrs.seq = gemm.seq;
    }
    // Pre-v7 modules predate tuned dense: every dense there carries a 2-D weight that
    // the legacy executor reads directly, which is exactly NodeAttrs' default state.
    attrs.dst_layout = ReadLayout(in);
    attrs.reshape_dims = ReadI64Vec(in);
    const std::vector<std::int64_t> out_dims = ReadI64Vec(in);
    const Layout out_layout = ReadLayout(in);
    const DType out_dtype =
        version >= 5 ? static_cast<DType>(ReadU32(in)) : DType::kF32;
    const bool has_payload = ReadU32(in) != 0;

    int id;
    if (type == OpType::kInput) {
      id = g.AddInput(out_dims, name);
    } else if (type == OpType::kConstant) {
      NEOCPU_CHECK(has_payload) << "constant node without payload";
      const DType payload_dtype =
          version >= 5 ? static_cast<DType>(ReadU32(in)) : DType::kF32;
      std::vector<std::int64_t> dims = ReadI64Vec(in);
      Layout layout = ReadLayout(in);
      Tensor payload = Tensor::Empty(std::move(dims), layout, payload_dtype);
      in.read(reinterpret_cast<char*>(payload.data()),
              static_cast<std::streamsize>(payload.SizeBytes()));
      id = g.AddConstant(std::move(payload), name);
    } else {
      NEOCPU_CHECK(!has_payload);
      id = g.AddNode(type, std::move(inputs), std::move(attrs), name);
    }
    g.node(id).out_dims = out_dims;
    g.node(id).out_layout = out_layout;
    g.node(id).out_dtype = out_dtype;
    NEOCPU_CHECK_EQ(id, static_cast<int>(i)) << "node ids must be dense in " << path;
  }
  g.SetOutputs(std::move(outputs));
  return g;
}

void WriteConfig(std::ostream& out, const CompileConfig& config) {
  WriteU32(out, static_cast<std::uint32_t>(config.layout_mode));
  WriteU32(out, static_cast<std::uint32_t>(config.nchw_kernel));
  const Target& t = config.target;
  WriteString(out, t.name);
  WriteU32(out, static_cast<std::uint32_t>(t.vector_lanes));
  WriteU32(out, static_cast<std::uint32_t>(t.num_vector_registers));
  WriteU32(out, static_cast<std::uint32_t>(t.num_cores));
  WriteF64(out, t.freq_ghz);
  WriteU32(out, static_cast<std::uint32_t>(t.fma_per_cycle));
  WriteU64(out, t.l1d_bytes);
  WriteU64(out, t.l2_bytes);
  WriteU64(out, t.l3_bytes);
  WriteU32(out, static_cast<std::uint32_t>(config.cost_mode));
  WriteU32(out, config.quick_space ? 1 : 0);
  WriteU64(out, config.max_dp_table_entries);
  WriteU32(out, 1);                                 // v3+: reserved
  WriteU32(out, config.force_algo ? 1 : 0);         // v4+
  WriteU32(out, static_cast<std::uint32_t>(config.forced_algo));
  WriteU32(out, config.quantize ? 1 : 0);           // v5+
  WriteU32(out, config.force_quantize ? 1 : 0);
  WriteU32(out, config.target.int8_dot ? 1 : 0);
  WriteU32(out, static_cast<std::uint32_t>(config.calibration_policy));  // v6+
  WriteU32(out, config.quantize_dense ? 1 : 0);
  WriteU32(out, static_cast<std::uint32_t>(config.force_quant_dtype));
  WriteU32(out, config.target.vnni_dot ? 1 : 0);
}

CompileConfig ReadConfig(std::istream& in, std::uint32_t version) {
  CompileConfig config;
  config.layout_mode = static_cast<LayoutMode>(ReadU32(in));
  config.nchw_kernel = static_cast<ConvKernelKind>(ReadU32(in));
  Target t;
  t.name = ReadString(in);
  t.vector_lanes = static_cast<int>(ReadU32(in));
  t.num_vector_registers = static_cast<int>(ReadU32(in));
  t.num_cores = static_cast<int>(ReadU32(in));
  t.freq_ghz = ReadF64(in);
  t.fma_per_cycle = static_cast<int>(ReadU32(in));
  t.l1d_bytes = ReadU64(in);
  t.l2_bytes = ReadU64(in);
  t.l3_bytes = ReadU64(in);
  config.target = std::move(t);
  config.cost_mode = static_cast<CostMode>(ReadU32(in));
  config.quick_space = ReadU32(in) != 0;
  config.max_dp_table_entries = static_cast<std::size_t>(ReadU64(in));
  if (version >= 3) {
    ReadU32(in);  // reserved: every loaded model is memory-planned
  }
  if (version >= 4) {
    config.force_algo = ReadU32(in) != 0;
    config.forced_algo = static_cast<ConvAlgo>(ReadU32(in));
  }
  if (version >= 5) {
    config.quantize = ReadU32(in) != 0;
    config.force_quantize = ReadU32(in) != 0;
    config.target.int8_dot = ReadU32(in) != 0;
  }
  if (version >= 6) {
    config.calibration_policy = static_cast<CalibrationPolicy>(ReadU32(in));
    config.quantize_dense = ReadU32(in) != 0;
    config.force_quant_dtype = static_cast<DType>(ReadU32(in));
    config.target.vnni_dot = ReadU32(in) != 0;
  }
  return config;
}

}  // namespace

bool SaveModule(const CompiledModel& model, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return false;
  }
  out.write(kMagic, sizeof(kMagic));
  WriteU32(out, kVersion);
  WriteGraph(out, model.graph());

  WriteU32(out, model.has_source() ? 1 : 0);
  if (model.has_source()) {
    WriteGraph(out, model.source_graph());
  }
  WriteConfig(out, model.config());
  WriteI64(out, model.stats().tuned_batch);
  const bool has_cache = model.tuning() != nullptr;
  WriteU32(out, has_cache ? 1 : 0);
  if (has_cache) {
    std::ostringstream cache_text;
    model.tuning()->Serialize(cache_text);
    WriteString(out, cache_text.str());
  }
  // v3: memory-plan summary metadata (the per-node plan is recomputed at load).
  WriteU32(out, 1);
  WriteU64(out, model.plan()->arena_bytes);
  WriteU64(out, model.plan()->naive_bytes);
  // v5: calibration table (source-graph node id -> observed activation range), so a
  // warm-started server can re-run fp32-vs-int8 selection for new batch sizes.
  const CalibrationTable& calibration = model.calibration();
  WriteU32(out, static_cast<std::uint32_t>(calibration.size()));
  for (const auto& [id, range] : calibration) {
    WriteI64(out, id);
    WriteF32(out, range.min);
    WriteF32(out, range.max);
  }
  return static_cast<bool>(out);
}

bool LoadModule(const std::string& path, CompiledModel* model) {
  NEOCPU_CHECK(model != nullptr);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  char magic[4] = {};
  in.read(magic, sizeof(magic));
  NEOCPU_CHECK_EQ(std::memcmp(magic, kMagic, sizeof(kMagic)), 0)
      << path << " is not a NeoCPU module";
  const std::uint32_t version = ReadU32(in);
  NEOCPU_CHECK(version >= kMinVersion && version <= kVersion)
      << "unsupported module version " << version;

  Graph g = ReadGraph(in, path, version);
  CompileStats stats;
  stats.num_convs = g.CountNodes(OpType::kConv2d);
  stats.num_layout_transforms = g.CountNodes(OpType::kLayoutTransform);
  for (int id = 0; id < g.num_nodes(); ++id) {
    const Node& node = g.node(id);
    if (node.type == OpType::kDense && node.attrs.qconv.enabled && !node.attrs.has_gemm) {
      // v5/v6 quantize_dense modules lowered dense to an s8 kernel that no longer
      // exists; its s8 weights must not reach the f32 Dense kernel.
      LOG(ERROR) << path << ": dense node '" << node.name
                 << "' uses the removed s8 dense kernel; re-export with the current "
                    "build";
      return false;
    }
    if (node.IsConv() && node.attrs.schedule.IsQuantized()) {
      if (!IsInt8Templated(node.attrs.schedule)) {
        // Earlier builds ran such blocks on a scalar edge kernel that no longer exists.
        LOG(ERROR) << path << ": int8 conv '" << node.name << "' uses block "
                   << node.attrs.schedule.ToString()
                   << " that the int8 kernel is not instantiated for; re-export with "
                      "the current build";
        return false;
      }
      ++stats.num_quantized_convs;
    }
    if (node.type == OpType::kDense && node.attrs.has_gemm) {
      ++stats.num_dense;
      if (node.attrs.gemm.IsQuantized()) {
        ++stats.num_quantized_dense;
      }
    }
  }

  if (version < 2) {
    NEOCPU_CHECK(static_cast<bool>(in)) << "truncated module file " << path;
    *model = CompiledModel(std::move(g), stats);
    return true;
  }

  const bool has_source = ReadU32(in) != 0;
  Graph source;
  if (has_source) {
    source = ReadGraph(in, path, version);
  }
  CompileConfig config = ReadConfig(in, version);
  stats.tuned_batch = ReadI64(in);
  const bool has_cache = ReadU32(in) != 0;
  auto cache = std::make_shared<TuningCache>();
  if (has_cache) {
    std::istringstream cache_text(ReadString(in));
    NEOCPU_CHECK(cache->Deserialize(cache_text))
        << "corrupt tuning cache in module file " << path;
  }
  // v3+: memory-plan summary metadata; modules saved without a plan carry none.
  std::uint64_t stored_arena_bytes = 0;
  bool check_stored_plan = false;
  if (version >= 3 && ReadU32(in) != 0) {
    stored_arena_bytes = ReadU64(in);
    ReadU64(in);  // naive_arena_bytes: informational, recomputed by the planner
    check_stored_plan = true;
  }
  CalibrationTable calibration;
  if (version >= 5) {
    const std::uint32_t entries = ReadU32(in);
    for (std::uint32_t i = 0; i < entries; ++i) {
      const int id = static_cast<int>(ReadI64(in));
      TensorRange range;
      range.min = ReadF32(in);
      range.max = ReadF32(in);
      calibration.emplace(id, range);
    }
  }
  NEOCPU_CHECK(static_cast<bool>(in)) << "truncated module file " << path;

  if (has_source) {
    *model = CompiledModel(std::move(g), stats, std::move(source), std::move(config),
                           std::move(cache));
    model->SetCalibration(std::move(calibration));
  } else {
    *model = CompiledModel(std::move(g), stats);
  }
  // Plans are derived artifacts: the constructor recomputed one from the loaded graph
  // rather than trusting file offsets (defense against artifact corruption AND
  // planner-version drift); the stored footprint is only a cross-check.
  if (check_stored_plan && model->plan()->arena_bytes != stored_arena_bytes) {
    LOG(WARNING) << path << ": stored arena footprint " << stored_arena_bytes
                 << "B differs from recomputed " << model->plan()->arena_bytes
                 << "B (planner changed since the module was saved)";
  }
  return true;
}

}  // namespace neocpu
