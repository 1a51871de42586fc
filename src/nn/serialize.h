// Binary (de)serialization of matrices and named parameter collections —
// model checkpoints and pre-trained embedding tables.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "nn/parameter.h"

namespace pathrank::nn {

/// Writes one matrix (shape header + row-major floats).
void WriteMatrix(std::ostream& out, const Matrix& m);

/// Reads one matrix; throws std::runtime_error on malformed input,
/// including a shape header larger than the rest of the stream.
Matrix ReadMatrix(std::istream& in);

/// Throws std::runtime_error unless `count` items of `item_bytes` each
/// (overflow-safe) fit in what is left of `in`. Loaders call it before
/// allocating, so a corrupt header fails cleanly instead of allocating
/// first. `what` names the field in the message.
void CheckFitsInStream(std::istream& in, uint64_t count, uint64_t item_bytes,
                       const std::string& what);

/// Saves named parameter values (not gradients) to `path`.
void SaveParameters(const ParameterList& params, const std::string& path);

/// Loads parameter values by name from `path` into `params`. Every
/// parameter in `params` must be present in the file with matching shape;
/// extra entries in the file are ignored.
void LoadParameters(const ParameterList& params, const std::string& path);

/// Saves a bare matrix to `path` (embedding tables).
void SaveMatrix(const Matrix& m, const std::string& path);

/// Loads a bare matrix from `path`.
Matrix LoadMatrix(const std::string& path);

}  // namespace pathrank::nn
