// model_zoo.h — train-once, cache-forever models for the experiments.
//
// Every bench/example needs the same two trained networks (the paper's
// MNIST and CIFAR stand-ins). Training them takes minutes on one core, so
// the zoo persists trained parameters under a cache directory (default
// ".fsa_cache" next to the current working directory, overridable with the
// FSA_CACHE_DIR environment variable) and later runs load instantly.
//
// Three disjoint image sets exist per dataset, all deterministic:
//   train       — used only to fit the model, so it is synthesized only in
//                 the process that trains; a cached load leaves it empty
//                 (ModelZoo::synthesize rebuilds it on demand)
//   test        — the paper's "overall test accuracy" set (Table 4)
//   attack_pool — the adversary's own images (the paper's X = {x₁..x_R});
//                 the paper explicitly assumes the adversary does NOT know
//                 the train/test sets, so these come from a third seed.
//
// The test and pool sets are cached too, images plus labels, one split
// file each (models::split_cache_path); a missing or mismatched file is
// synthesized and rewritten. Clean test accuracy comes from the test
// features at the net's last cut (models::cached_features, the same file
// the fc3 AttackBench keeps). So a cached load reads the weights, the two
// split files and the last-cut test features; it renders no image and
// runs no convolution.
#pragma once

#include <memory>
#include <string>

#include "data/dataset.h"
#include "nn/sequential.h"

namespace fsa::models {

struct ZooModel {
  std::string name;
  nn::Sequential net;
  data::Dataset train;  ///< empty unless this process trained the model
  data::Dataset test;
  data::Dataset attack_pool;
  double test_accuracy = 0.0;

  ZooModel() = default;
  ZooModel(const ZooModel&) = delete;
  ZooModel& operator=(const ZooModel&) = delete;
  ZooModel(ZooModel&&) = default;
  ZooModel& operator=(ZooModel&&) = default;
};

struct ZooConfig {
  std::string cache_dir;          ///< empty → $FSA_CACHE_DIR or ".fsa_cache"
  std::int64_t train_count = 6000;
  std::int64_t test_count = 2000;
  std::int64_t pool_count = 1800;
  std::int64_t digits_epochs = 4;
  std::int64_t objects_epochs = 7;
  bool verbose = true;  ///< print one line per training epoch
};

/// The role of one of a dataset's three image sets.
enum class Split { kTrain, kTest, kPool };

class ModelZoo {
 public:
  explicit ModelZoo(ZooConfig cfg = {});

  /// Synthesize one image set of dataset `name` ("digits" or "objects") at
  /// this zoo's configured size. The per-role seeds live here only.
  [[nodiscard]] data::Dataset synthesize(const std::string& name, Split split) const;

  /// The paper's MNIST model stand-in (28×28×1, ≈99% test accuracy).
  ZooModel& digits();

  /// The paper's CIFAR model stand-in (32×32×3, ≈80% test accuracy).
  ZooModel& objects();

  [[nodiscard]] const std::string& cache_dir() const { return cfg_.cache_dir; }

 private:
  ZooModel build(const std::string& name);

  ZooConfig cfg_;
  std::unique_ptr<ZooModel> digits_;
  std::unique_ptr<ZooModel> objects_;
};

/// Resolve the effective cache directory (helper shared with benches).
std::string default_cache_dir();

}  // namespace fsa::models
