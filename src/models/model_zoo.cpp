#include "models/model_zoo.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "data/synth_digits.h"
#include "data/synth_objects.h"
#include "models/cw_net.h"
#include "models/feature_cache.h"
#include "obs/trace.h"
#include "optim/adam.h"
#include "optim/trainer.h"
#include "tensor/serialize.h"

namespace fsa::models {

std::string default_cache_dir() {
  if (const char* env = std::getenv("FSA_CACHE_DIR"); env != nullptr && *env != '\0') return env;
  return ".fsa_cache";
}

namespace {

/// The image set cached at `path` if the file holds exactly two tensors:
/// images shaped `shape` and one label per image in [0, classes). Anything
/// else, a missing or unreadable file included, is a miss.
std::optional<data::Dataset> read_split(const std::string& path, const Shape& shape,
                                        std::int64_t classes) {
  std::vector<Tensor> tensors;
  try {
    tensors = io::load_tensors(path);
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
  if (tensors.size() != 2 || tensors[0].shape() != shape ||
      tensors[1].shape() != Shape({shape.dim(0)}))
    return std::nullopt;
  std::vector<std::int64_t> labels;
  labels.reserve(static_cast<std::size_t>(shape.dim(0)));
  for (const float l : tensors[1].span()) {
    if (!(l >= 0.0f && l < static_cast<float>(classes)) || l != std::floor(l)) return std::nullopt;
    labels.push_back(static_cast<std::int64_t>(l));
  }
  return data::Dataset(std::move(tensors[0]), std::move(labels), classes);
}

/// Image set `split` ("test" or "pool") of dataset `name`, read back from
/// its split file; on a miss it is synthesized and the file (re)written.
data::Dataset cached_split(const ModelZoo& zoo, const std::string& name, Split split,
                           const Shape& shape, std::int64_t classes) {
  const std::string path =
      split_cache_path(zoo.cache_dir(), name, split == Split::kTest ? "test" : "pool");
  OBS_SPAN("split.cached", obs::trace_enabled() ? path : std::string());
  if (auto cached = read_split(path, shape, classes)) return std::move(*cached);
  data::Dataset fresh = zoo.synthesize(name, split);
  std::vector<float> labels(fresh.labels().begin(), fresh.labels().end());
  io::save_tensors(path, {fresh.images(), Tensor::from_vector(std::move(labels))});
  return fresh;
}

}  // namespace

ModelZoo::ModelZoo(ZooConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.cache_dir.empty()) cfg_.cache_dir = default_cache_dir();
}

ZooModel& ModelZoo::digits() {
  if (!digits_) digits_ = std::make_unique<ZooModel>(build("digits"));
  return *digits_;
}

ZooModel& ModelZoo::objects() {
  if (!objects_) objects_ = std::make_unique<ZooModel>(build("objects"));
  return *objects_;
}

data::Dataset ModelZoo::synthesize(const std::string& name, Split split) const {
  OBS_SPAN("zoo.synth");
  // Three disjoint deterministic seeds per dataset, in Split order.
  const auto role = static_cast<std::size_t>(split);
  const std::int64_t counts[] = {cfg_.train_count, cfg_.test_count, cfg_.pool_count};
  if (name == "digits") {
    data::SynthDigitsConfig dc;
    dc.count = counts[role];
    dc.seed = 101 + role;
    return data::make_synth_digits(dc);
  }
  data::SynthObjectsConfig oc;
  oc.count = counts[role];
  oc.seed = 201 + role;
  return data::make_synth_objects(oc);
}

ZooModel ModelZoo::build(const std::string& name) {
  OBS_SPAN("zoo.build");
  const bool is_digits = name == "digits";
  CwNetConfig nc;
  nc.in_channels = is_digits ? 1 : 3;
  nc.side = is_digits ? 28 : 32;
  nc.init_seed = is_digits ? 42 : 43;

  ZooModel m;
  m.name = name;
  m.test = cached_split(*this, name, Split::kTest,
                        Shape({cfg_.test_count, nc.in_channels, nc.side, nc.side}), nc.classes);
  m.attack_pool = cached_split(*this, name, Split::kPool,
                               Shape({cfg_.pool_count, nc.in_channels, nc.side, nc.side}),
                               nc.classes);

  // --- model ----------------------------------------------------------------
  m.net = make_cw_net(nc);

  const std::string param_path = cfg_.cache_dir + "/" + name + "_cwnet.bin";
  if (io::file_exists(param_path)) {
    OBS_SPAN("zoo.load");
    m.net.load_params(param_path);
  } else {
    OBS_SPAN("zoo.train");
    if (cfg_.verbose) std::printf("[zoo] training %s model (cached at %s)...\n", name.c_str(), param_path.c_str());
    m.train = synthesize(name, Split::kTrain);
    optim::Adam opt(m.net.params(), 1e-3);
    optim::Trainer trainer(m.net, opt);
    optim::TrainConfig tc;
    tc.epochs = is_digits ? cfg_.digits_epochs : cfg_.objects_epochs;
    tc.batch_size = 32;
    tc.shuffle_seed = is_digits ? 7 : 8;
    tc.lr_schedule = [](std::int64_t epoch) { return 1e-3 * std::pow(0.7, static_cast<double>(epoch)); };
    if (cfg_.verbose)
      tc.on_epoch = [&](const optim::EpochStats& s) {
        std::printf("[zoo]   epoch %lld: loss %.4f, train acc %.4f\n",
                    static_cast<long long>(s.epoch), s.train_loss, s.train_accuracy);
      };
    trainer.fit(m.train, tc);
    m.net.save_params(param_path);
  }
  {
    // Clean accuracy from the cached test features at the last cut, so a
    // warm load forwards only fc3. compute_features and Trainer::accuracy
    // run the same batches of 64 through the same layers, so the value is
    // Trainer::accuracy(m.net, m.test) bitwise.
    OBS_SPAN("zoo.accuracy");
    const std::size_t cut = m.net.size() - 1;
    const Tensor features = cached_features(
        m.net, cut, m.test.images(), feature_cache_path(cfg_.cache_dir, name, cut, "test"));
    m.test_accuracy = head_accuracy(m.net, cut, features, m.test.labels(), /*batch_size=*/64);
  }
  if (cfg_.verbose)
    std::printf("[zoo] %s model ready: test accuracy %.4f\n", name.c_str(), m.test_accuracy);
  return m;
}

}  // namespace fsa::models
