#include "tensor/serialize.h"

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace fsa::io {

namespace {

constexpr char kMagic[4] = {'F', 'S', 'A', 'T'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!is) throw std::runtime_error("fsa::io: truncated tensor stream");
  return v;
}

}  // namespace

void write_tensor(std::ostream& os, const Tensor& t) {
  os.write(kMagic, 4);
  write_pod(os, kVersion);
  write_pod(os, static_cast<std::uint32_t>(t.shape().rank()));
  for (auto d : t.shape().dims()) write_pod(os, static_cast<std::int64_t>(d));
  os.write(reinterpret_cast<const char*>(t.data()),
           static_cast<std::streamsize>(t.size() * sizeof(float)));
  if (!os) throw std::runtime_error("fsa::io: tensor write failed");
}

Tensor read_tensor(std::istream& is) {
  char magic[4];
  is.read(magic, 4);
  if (!is || std::string(magic, 4) != std::string(kMagic, 4))
    throw std::runtime_error("fsa::io: bad tensor magic");
  const auto version = read_pod<std::uint32_t>(is);
  if (version != kVersion)
    throw std::runtime_error("fsa::io: unsupported tensor version " + std::to_string(version));
  const auto rank = read_pod<std::uint32_t>(is);
  if (rank > 8) throw std::runtime_error("fsa::io: implausible tensor rank");
  std::vector<std::int64_t> dims(rank);
  for (auto& d : dims) {
    d = read_pod<std::int64_t>(is);
    if (d < 0 || d > (1LL << 32)) throw std::runtime_error("fsa::io: implausible tensor dim");
  }
  Tensor t{Shape(dims)};
  is.read(reinterpret_cast<char*>(t.data()), static_cast<std::streamsize>(t.size() * sizeof(float)));
  if (!is) throw std::runtime_error("fsa::io: truncated tensor data");
  return t;
}

void write_file_atomic(const std::string& path, const std::function<void(std::ostream&)>& write) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  // Threads share the pid, so a per-process sequence number joins it.
  static std::atomic<std::uint64_t> sequence{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(::getpid()) + "." + std::to_string(sequence++);
  try {
    std::ofstream os(tmp, std::ios::binary);
    if (!os) throw std::runtime_error("fsa::io: cannot open for write: " + tmp);
    write(os);
    os.close();
    if (!os) throw std::runtime_error("fsa::io: write failed: " + tmp);
    std::filesystem::rename(tmp, p);  // atomic on POSIX
  } catch (...) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    throw;
  }
}

void save_tensors(const std::string& path, const std::vector<Tensor>& tensors) {
  write_file_atomic(path, [&](std::ostream& os) {
    write_pod(os, static_cast<std::uint64_t>(tensors.size()));
    for (const auto& t : tensors) write_tensor(os, t);
  });
}

std::vector<Tensor> load_tensors(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("fsa::io: cannot open for read: " + path);
  const auto count = read_pod<std::uint64_t>(is);
  if (count > (1ULL << 20)) throw std::runtime_error("fsa::io: implausible tensor count");
  std::vector<Tensor> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) out.push_back(read_tensor(is));
  return out;
}

bool file_exists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::is_regular_file(path, ec);
}

}  // namespace fsa::io
