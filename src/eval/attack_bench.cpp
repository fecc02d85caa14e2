#include "eval/attack_bench.h"

namespace fsa::eval {

AttackBench::AttackBench(models::ZooModel& model, const std::string& cache_dir,
                         const std::vector<std::string>& layers, bool weights, bool biases)
    : model_(&model) {
  attack_ = std::make_unique<core::FaultSneakingAttack>(model.net, layers, weights, biases);
  const std::size_t cut = attack_->cut();
  pool_features_ =
      models::cached_features(model.net, cut, model.attack_pool.images(),
                              models::feature_cache_path(cache_dir, model.name, cut, "pool"));
  test_features_ =
      models::cached_features(model.net, cut, model.test.images(),
                              models::feature_cache_path(cache_dir, model.name, cut, "test"));
  pool_preds_ = models::head_predictions(model.net, cut, pool_features_);
  clean_test_accuracy_ =
      models::head_accuracy(model.net, cut, test_features_, model.test.labels());
}

core::AttackSpec AttackBench::spec(std::int64_t S, std::int64_t R, std::uint64_t seed,
                                   core::TargetPolicy policy) const {
  return core::make_spec(pool_features_, model_->attack_pool.labels(), pool_preds_, S, R,
                         model_->attack_pool.num_classes(), seed, policy);
}

double AttackBench::test_accuracy_with(const Tensor& delta) {
  return core::with_delta(*attack_, delta, [&] {
    return models::head_accuracy(model_->net, attack_->cut(), test_features_,
                                 model_->test.labels());
  });
}

}  // namespace fsa::eval
