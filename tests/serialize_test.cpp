// serialize_test.cpp — round trips and corruption handling of tensor I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <thread>

#include "tensor/serialize.h"

namespace fsa {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Serialize, StreamRoundTrip) {
  Rng rng(1);
  const Tensor t = Tensor::randn(Shape({3, 4, 5}), rng);
  std::stringstream ss;
  io::write_tensor(ss, t);
  const Tensor back = io::read_tensor(ss);
  EXPECT_EQ(back, t);
}

TEST(Serialize, EmptyTensorRoundTrip) {
  const Tensor t(Shape({0}));
  std::stringstream ss;
  io::write_tensor(ss, t);
  const Tensor back = io::read_tensor(ss);
  EXPECT_EQ(back.shape(), Shape({0}));
}

TEST(Serialize, BadMagicThrows) {
  std::stringstream ss;
  ss << "NOPExxxxxxxxxxxxxxxx";
  EXPECT_THROW(io::read_tensor(ss), std::runtime_error);
}

TEST(Serialize, TruncatedDataThrows) {
  Rng rng(2);
  const Tensor t = Tensor::randn(Shape({64}), rng);
  std::stringstream ss;
  io::write_tensor(ss, t);
  std::string bytes = ss.str();
  bytes.resize(bytes.size() / 2);
  std::stringstream cut(bytes);
  EXPECT_THROW(io::read_tensor(cut), std::runtime_error);
}

TEST(Serialize, FileListRoundTrip) {
  Rng rng(3);
  const std::vector<Tensor> tensors = {Tensor::randn(Shape({7}), rng),
                                       Tensor::randn(Shape({2, 2}), rng), Tensor(Shape({1}))};
  const std::string path = temp_path("fsa_serialize_test.bin");
  io::save_tensors(path, tensors);
  const auto back = io::load_tensors(path);
  ASSERT_EQ(back.size(), tensors.size());
  for (std::size_t i = 0; i < back.size(); ++i) EXPECT_EQ(back[i], tensors[i]);
  std::remove(path.c_str());
}

TEST(Serialize, SaveCreatesParentDirectories) {
  const std::string dir = temp_path("fsa_nested_dir_test");
  const std::string path = dir + "/deep/file.bin";
  std::filesystem::remove_all(dir);
  io::save_tensors(path, {Tensor(Shape({2}))});
  EXPECT_TRUE(io::file_exists(path));
  std::filesystem::remove_all(dir);
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(io::load_tensors(temp_path("definitely_missing_fsa.bin")), std::runtime_error);
}

TEST(Serialize, FileExists) {
  EXPECT_FALSE(io::file_exists(temp_path("not_there_fsa.bin")));
  const std::string path = temp_path("fsa_exists_test.bin");
  io::save_tensors(path, {});
  EXPECT_TRUE(io::file_exists(path));
  std::remove(path.c_str());
}

TEST(Serialize, ConcurrentReaderNeverSeesAPartialFile) {
  // One thread rewrites a 4 MB file in a loop, each version filled with its
  // own value; the reader must only ever load one complete version.
  const std::filesystem::path dir = temp_path("fsa_serialize_atomic_test");
  std::filesystem::remove_all(dir);
  const std::string path = (dir / "big.bin").string();
  const Shape shape({1 << 20});
  io::save_tensors(path, {Tensor(shape, 0.0f)});
  std::atomic<bool> stop{false};
  std::atomic<int> write_errors{0};
  std::thread writer([&] {
    for (int version = 1; !stop; ++version) {
      try {
        io::save_tensors(path, {Tensor(shape, static_cast<float>(version))});
      } catch (const std::exception&) {
        ++write_errors;
      }
    }
  });
  int torn = 0;
  for (int read = 0; read < 200; ++read) {
    try {
      const auto back = io::load_tensors(path);
      const bool whole =
          back.size() == 1 && back[0].shape() == shape &&
          std::all_of(back[0].data(), back[0].data() + back[0].size(),
                      [first = back[0].data()[0]](float v) { return v == first; });
      if (!whole) ++torn;
    } catch (const std::exception&) {
      ++torn;
    }
  }
  stop = true;
  writer.join();
  EXPECT_EQ(torn, 0) << "of 200 reads";
  EXPECT_EQ(write_errors, 0);
  std::vector<std::string> left;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    left.push_back(entry.path().filename().string());
  EXPECT_EQ(left, std::vector<std::string>({"big.bin"}));  // no staging file survives
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace fsa
