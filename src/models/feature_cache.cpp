#include "models/feature_cache.h"

#include "obs/trace.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"

namespace fsa::models {

Tensor compute_features(nn::Sequential& net, std::size_t cut, const Tensor& images,
                        std::int64_t batch_size) {
  const std::int64_t n = images.dim(0);
  if (cut == 0) return images;  // degenerate cut: the images themselves
  Tensor out;
  std::int64_t written = 0;
  std::int64_t row_elems = 0;
  for (std::int64_t begin = 0; begin < n; begin += batch_size) {
    const std::int64_t end = std::min(n, begin + batch_size);
    // Run the prefix [0, cut) layer by layer; preserve the natural shape of
    // the activation so conv-layer cuts work too (dense cuts yield [N, F],
    // conv cuts yield [N, C, H, W]).
    Tensor x = images.slice0(begin, end);
    for (std::size_t i = 0; i < cut; ++i) x = net.layer(i).forward(x, /*train=*/false);
    if (written == 0) {
      std::vector<std::int64_t> dims = x.shape().dims();
      dims[0] = n;
      out = Tensor(Shape(dims));
      row_elems = x.numel() / std::max<std::int64_t>(x.dim(0), 1);
    }
    std::copy(x.data(), x.data() + x.numel(), out.data() + written * row_elems);
    written += x.dim(0);
  }
  return out;
}

std::string feature_cache_path(const std::string& cache_dir, const std::string& model,
                               std::size_t cut, const std::string& set) {
  return cache_dir + "/" + model + "_cut" + std::to_string(cut) + "_" + set + ".bin";
}

std::string split_cache_path(const std::string& cache_dir, const std::string& model,
                             const std::string& set) {
  return cache_dir + "/" + model + "_" + set + "_split.bin";
}

Tensor cached_features(nn::Sequential& net, std::size_t cut, const Tensor& images,
                       const std::string& cache_path, std::int64_t batch_size) {
  OBS_SPAN("features.cached", obs::trace_enabled() ? cache_path : std::string());
  if (io::file_exists(cache_path)) {
    auto tensors = io::load_tensors(cache_path);
    if (tensors.size() == 1 && tensors[0].dim(0) == images.dim(0)) return tensors[0];
  }
  Tensor feats = compute_features(net, cut, images, batch_size);
  io::save_tensors(cache_path, {feats});
  return feats;
}

std::vector<std::int64_t> head_predictions(nn::Sequential& net, std::size_t cut,
                                           const Tensor& features, std::int64_t batch_size) {
  const std::int64_t n = features.dim(0);
  std::vector<std::int64_t> pred;
  pred.reserve(static_cast<std::size_t>(n));
  for (std::int64_t begin = 0; begin < n; begin += batch_size) {
    const std::int64_t end = std::min(n, begin + batch_size);
    const Tensor logits = net.forward_from(cut, features.slice0(begin, end), /*train=*/false);
    for (auto p : ops::argmax_rows(logits)) pred.push_back(p);
  }
  return pred;
}

double head_accuracy(nn::Sequential& net, std::size_t cut, const Tensor& features,
                     const std::vector<std::int64_t>& labels, std::int64_t batch_size) {
  const auto pred = head_predictions(net, cut, features, batch_size);
  if (pred.size() != labels.size())
    throw std::invalid_argument("head_accuracy: label count mismatch");
  std::int64_t correct = 0;
  for (std::size_t i = 0; i < pred.size(); ++i)
    if (pred[i] == labels[i]) ++correct;
  return pred.empty() ? 0.0 : static_cast<double>(correct) / static_cast<double>(pred.size());
}

}  // namespace fsa::models
