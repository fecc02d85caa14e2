// feature_cache.h — cached activations at a network cut point.
//
// Every experiment in the paper modifies FC-layer parameters only, so the
// convolutional prefix of the network is a *fixed* feature extractor for
// the whole attack. Computing those features once per image set — and
// optionally persisting them to disk — turns each ADMM iteration into a
// forward/backward pass over a tiny dense head, which is the difference
// between seconds and hours for the R=1000 sweeps on one CPU core.
#pragma once

#include <string>

#include "data/dataset.h"
#include "nn/sequential.h"

namespace fsa::models {

/// Run layers [0, cut) over `images` in mini-batches; returns [N, F]
/// features (the input expected by layer `cut`).
Tensor compute_features(nn::Sequential& net, std::size_t cut, const Tensor& images,
                        std::int64_t batch_size = 64);

/// The file that memoizes `model`'s features at `cut` for one image set
/// ("pool" or "test"): <cache_dir>/<model>_cut<cut>_<set>.bin.
std::string feature_cache_path(const std::string& cache_dir, const std::string& model,
                               std::size_t cut, const std::string& set);

/// The file that caches dataset `model`'s image set ("pool" or "test"),
/// images plus labels: <cache_dir>/<model>_<set>_split.bin.
std::string split_cache_path(const std::string& cache_dir, const std::string& model,
                             const std::string& set);

/// compute_features memoized on disk: if `cache_path` exists it is loaded
/// instead of recomputed (callers key the path by model/dataset/cut identity).
Tensor cached_features(nn::Sequential& net, std::size_t cut, const Tensor& images,
                       const std::string& cache_path, std::int64_t batch_size = 64);

/// Evaluate classification accuracy of the head [cut, end) on cached
/// features vs labels — equivalent to full-network accuracy but much
/// cheaper when only head parameters change.
double head_accuracy(nn::Sequential& net, std::size_t cut, const Tensor& features,
                     const std::vector<std::int64_t>& labels, std::int64_t batch_size = 256);

/// Head predictions (argmax logits) on cached features.
std::vector<std::int64_t> head_predictions(nn::Sequential& net, std::size_t cut,
                                           const Tensor& features, std::int64_t batch_size = 256);

}  // namespace fsa::models
