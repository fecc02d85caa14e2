// serialize.h — binary (de)serialization of tensors.
//
// Format (little-endian, the only platform we target):
//   magic "FSAT"  u32 version  u32 rank  i64 dims[rank]  f32 data[numel]
// Used by the model zoo to cache trained networks, image sets and feature
// caches so that every bench/example after the first run starts instantly.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace fsa::io {

/// Write one tensor to a binary stream. Throws std::runtime_error on failure.
void write_tensor(std::ostream& os, const Tensor& t);

/// Read one tensor written by write_tensor. Throws std::runtime_error on
/// malformed input.
Tensor read_tensor(std::istream& is);

/// Write the file at `path` atomically: `write` fills a staging file that
/// is unique to this writer (`<path>.tmp.<pid>.<n>`), which is then renamed
/// over `path`. A concurrent reader opens the previous file or the complete
/// new one, never a partial write; concurrent writers are last-one-wins.
/// The parent directory is created; on failure no staging file is left.
void write_file_atomic(const std::string& path, const std::function<void(std::ostream&)>& write);

/// Write a whole list of tensors (count-prefixed) to `path`, atomically.
void save_tensors(const std::string& path, const std::vector<Tensor>& tensors);

/// Read a list written by save_tensors.
std::vector<Tensor> load_tensors(const std::string& path);

/// True if `path` exists and is a regular file.
bool file_exists(const std::string& path);

}  // namespace fsa::io
