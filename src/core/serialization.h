// Standalone module serialization.
//
// The paper emphasizes that NeoCPU "produces a standalone module with minimal size that
// does not depend on either the frameworks or the high-performance kernel libraries,
// which enables easy deployment to multiple platforms" (this is how it ships in
// SageMaker Neo). This module implements that artifact: a compiled model — optimized
// graph, chosen schedules, pre-transformed weights — serializes to a single binary file
// that the executor can run without re-compiling or re-tuning.
//
// Since format version 2 the artifact also round-trips the model's tuning state: the
// fused pre-layout source graph, the CompileConfig it was compiled under, and its
// TuningCache (every batch variant's search results). A warm-started server can
// therefore not only run the model immediately but also re-tune it for new batch sizes
// — and when the cache already holds a batch's tuning, that re-tune is a pure table
// lookup, no search.
//
// Format (little-endian, versioned):
//   magic "NEOC", u32 version,
//   executable graph (name, outputs, node records: type, name, inputs, POD attribute
//   block, dims, layout, optional payload),
//   v2+: u32 has_source [+ source graph], config block (layout mode, NCHW kernel,
//   target profile, cost mode, space mode, DP budget; v3 adds a reserved u32, formerly
//   the memory-planning switch, written as 1 and ignored on load),
//   i64 tuned_batch, u32 has_cache [+ length-prefixed TuningCache text serialization],
//   v3+: u32 has_plan [+ u64 arena_bytes, u64 naive_arena_bytes] — the memory plan's
//   summary metadata. The plan itself (per-node offsets) is a pure function of the
//   executable graph, so LoadModule recomputes it instead of trusting file offsets;
//   the stored summary is a cross-check that warns on planner drift.
// Version-1 files (executable graph only) and version-2 files (no plan metadata; plans
// are computed at load) still load; v1 yields a model without source/config/cache,
// which serves but cannot re-tune.
#ifndef NEOCPU_SRC_CORE_SERIALIZATION_H_
#define NEOCPU_SRC_CORE_SERIALIZATION_H_

#include <string>

#include "src/core/compiler.h"

namespace neocpu {

// Writes the compiled model's executable graph (including constant payloads) plus its
// tuning state (source graph, config, tuning cache) to `path`. Returns false on I/O
// failure.
bool SaveModule(const CompiledModel& model, const std::string& path);

// Reads a module previously written by SaveModule. Dies on malformed input with a
// descriptive message; returns false for I/O-level failure and for a module this
// build cannot execute (a v5/v6 quantized dense lowered to the removed s8 kernel, or
// an int8 conv whose oc_bn/reg_n the int8 kernel is not instantiated for — logged
// with a "re-export with the current build" message).
bool LoadModule(const std::string& path, CompiledModel* model);

}  // namespace neocpu

#endif  // NEOCPU_SRC_CORE_SERIALIZATION_H_
