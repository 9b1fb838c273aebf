// Table 2 reproduction: end-to-end inference latency of the 15-model zoo under NeoCPU
// and the two framework-baseline configurations, on the three architecture profiles
// (2a: Skylake/AVX-512, 2b: EPYC/AVX2, 2c: Cortex-A72/NEON).
//
// Columns map to the paper as follows (see DESIGN.md §1 for the substitution argument):
//   mxnet-like   = per-op blocked library kernels + OpenMP-style pool
//                  (MXNet + MKL-DNN on x86; on the NEON profile the vendor library does
//                   not exist, so the column runs im2col + GEMM like MXNet + OpenBLAS)
//   tf-like      = default-layout im2col + GEMM + OpenMP-style pool (TensorFlow + Eigen)
//   neocpu       = global-search NCHW[x]c + transform elimination + custom thread pool
// The OpenVINO column is not reproducible (closed source) and is omitted.
//
// Cells print "mean ms, stderr" exactly like the paper. Absolute values are host
// specific; the claims under reproduction are the per-row winners and speedup ratios.
#include "bench/bench_util.h"

namespace neocpu {
namespace bench {
namespace {

struct Column {
  const char* name;
  CompileOptions (*options)(const Target&);
  bool custom_pool;  // NeoThreadPool vs OmpStylePool at run time
};

CompileOptions MxnetLike(const Target& target) {
  if (target.name == "neon") {
    CompileOptions opts = FrameworkDefaultOptions(target);  // OpenBLAS-style im2col
    return opts;
  }
  return FrameworkLibOptions(target);
}

CompileOptions TfLike(const Target& target) {
  CompileOptions opts = FrameworkDefaultOptions(target);
  if (target.name == "neon") {
    opts.force_algo = false;  // Eigen-style default path: the direct NCHW loop
  }
  return opts;
}

CompileOptions NeoCpu(const Target& target) { return NeoCpuOptions(target); }

int Main() {
  PrintHeader(
      "Table 2: overall performance (ms; mean, stderr) - 15 CNN models, 3 CPU profiles");
  const Column columns[] = {
      {"mxnet-like", &MxnetLike, false},
      {"tf-like", &TfLike, false},
      {"neocpu", &NeoCpu, true},
  };
  const std::vector<std::string> archs = {"avx512", "avx2", "neon"};
  const std::vector<std::string> models = BenchModels();
  auto tuning_cache = std::make_shared<TuningCache>();

  // The OMP-style pool first: the bound pool pins this thread while it lives, and
  // threads started meanwhile would inherit that one-cpu mask.
  OmpStylePool omp_pool;
  NeoThreadPool neo_pool;

  for (const std::string& arch : archs) {
    const Target target = Target::ByName(arch);
    std::printf("\n--- Table 2%c: profile %s (%d lanes fp32; paper platform: %s) ---\n",
                static_cast<char>('a' + (&arch - archs.data())), arch.c_str(),
                target.vector_lanes,
                arch == "avx512" ? "18-core Intel Skylake"
                                 : (arch == "avx2" ? "24-core AMD EPYC"
                                                   : "16-core ARM Cortex A72"));
    std::printf("%-14s", "model");
    for (const Column& col : columns) {
      std::printf(" | %16s", col.name);
    }
    std::printf(" | best\n");

    for (const std::string& name : models) {
      Graph model = BuildModel(name);
      Tensor input = ModelInput(name);
      std::printf("%-14s", name.c_str());
      double best_ms = 1e30;
      std::size_t best_col = 0;
      std::vector<RunStats> stats(std::size(columns));
      for (std::size_t c = 0; c < std::size(columns); ++c) {
        CompileOptions opts = columns[c].options(target);
        opts.cost_mode = BenchCostMode();
        opts.tuning_cache = tuning_cache;
        CompiledModel compiled = Compile(model, opts);
        ThreadEngine* engine = columns[c].custom_pool
                                   ? static_cast<ThreadEngine*>(&neo_pool)
                                   : static_cast<ThreadEngine*>(&omp_pool);
        stats[c] = MeasureModel(compiled, input, engine);
        std::printf(" | %16s", Cell(stats[c]).c_str());
        std::fflush(stdout);
        if (stats[c].mean < best_ms) {
          best_ms = stats[c].mean;
          best_col = c;
        }
      }
      std::printf(" | %s (%.2fx vs next)\n", columns[best_col].name,
                  [&] {
                    double next = 1e30;
                    for (std::size_t c = 0; c < std::size(columns); ++c) {
                      if (c != best_col) {
                        next = std::min(next, stats[c].mean);
                      }
                    }
                    return next / best_ms;
                  }());
    }
  }
  std::printf(
      "\nPaper-shape checks: neocpu should win most rows on every profile, with the\n"
      "largest margins on the neon profile (the paper's 2.05-3.45x ARM speedups).\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace neocpu

int main() { return neocpu::bench::Main(); }
