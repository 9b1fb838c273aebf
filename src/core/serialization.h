// Standalone module serialization.
//
// The paper emphasizes that NeoCPU "produces a standalone module with minimal size that
// does not depend on either the frameworks or the high-performance kernel libraries,
// which enables easy deployment to multiple platforms" (this is how it ships in
// SageMaker Neo). This module implements that artifact: a compiled model serializes to
// a single binary file that loads into a runnable model without re-tuning.
//
// The artifact holds what the model is made of, not what it is derived into: the fused
// pre-layout source graph (original weights, stored once), the CompileConfig it was
// compiled under, the batch size its schedules were tuned at, its TuningCache (every
// batch variant's search results) and its calibration table. LoadModule re-derives
// the executable graph — schedules, pre-transformed weights, memory plan — with the
// same lowering Compile runs; with the embedded cache that lowering is pure table
// lookups, so loading never searches. The module therefore stays valid across
// changes to the lowering and the kernels, and a warm-started server can re-tune new
// batch sizes from it.
//
// Format v12 (little-endian; docs/module_format.md is the spec):
//   magic "NEOC", u32 version, source graph (name, outputs, node records: type, name,
//   inputs, then input dims | constant payload | POD attribute block), config block,
//   i64 tuned_batch, length-prefixed TuningCache text, calibration table.
// Other versions are rejected with a "re-export with the current build" error.
#ifndef NEOCPU_SRC_CORE_SERIALIZATION_H_
#define NEOCPU_SRC_CORE_SERIALIZATION_H_

#include <string>

#include "src/core/compiler.h"

namespace neocpu {

// Writes the compiled model's source graph and tuning state to `path`. Returns false on
// I/O failure.
bool SaveModule(const CompiledModel& model, const std::string& path);

// Reads a module written by SaveModule and re-lowers it into `*model`. Returns false,
// logging why, when the file cannot be read or is not a well-formed v12 module: bad
// magic, another version, truncation, a length or payload larger than the file, a node
// id or enumerator out of range, a config forcing the retired Winograd algorithm, or a
// corrupt embedded cache. Semantic checks on
// well-formed bytes (shape inference, lowering) still abort the process.
bool LoadModule(const std::string& path, CompiledModel* model);

}  // namespace neocpu

#endif  // NEOCPU_SRC_CORE_SERIALIZATION_H_
