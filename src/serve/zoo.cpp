#include "serve/zoo.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "compile/model_compiler.h"
#include "eval/args.h"

namespace fsa::serve {

namespace {

[[noreturn]] void unknown_model(const std::string& model, const std::vector<std::string>& names) {
  std::string known;
  for (const auto& n : names) known += (known.empty() ? "" : ", ") + n;
  throw std::invalid_argument("unknown model \"" + model + "\" (known: " + known + ")");
}

}  // namespace

bool ModelHost::has(const std::string& model) const {
  const std::vector<std::string> all = names();
  return std::find(all.begin(), all.end(), model) != all.end();
}

// ---- ServeZoo ----------------------------------------------------------------

ServeZoo::ServeZoo(ServeZooOptions options)
    : zoo_(models::ZooConfig{.cache_dir = {}, .verbose = options.verbose}) {
  if (options.datasets.empty())
    throw std::invalid_argument("serve zoo: at least one dataset is required");
  for (const std::string& name : options.datasets) {
    if (runners_.count(name)) continue;
    if (name != "digits" && name != "objects")
      throw std::invalid_argument("serve zoo: unknown dataset \"" + name +
                                  "\" (expected digits or objects)");
    if (options.verbose) std::fprintf(stderr, "[serve] loading model %s...\n", name.c_str());
    models::ZooModel& model = name == "objects" ? zoo_.objects() : zoo_.digits();
    auto runner =
        std::make_unique<engine::SweepRunner>(model, zoo_.cache_dir(), /*verbose=*/false);
    // Pre-warm the configured surfaces: features and clean accuracy are
    // derived (and disk-cached) now, so no request pays for them.
    for (const std::string& layers_csv : options.warm_layers)
      (void)runner->bench(eval::split_csv(layers_csv));
    // Compile before the socket opens: fusion, plan caches, and pack-once
    // weight panels are built here, so the first request already runs at
    // steady-state cost and two executors never race the plan's lazy build.
    const compile::CompiledModel& plan = runner->warm_compile();
    if (options.verbose)
      std::fprintf(stderr, "[serve] model %s compiled: %zu fused node(s)\n", name.c_str(),
                   plan.fused_nodes());
    runners_.emplace(name, std::move(runner));
    if (options.verbose)
      std::fprintf(stderr, "[serve] model %s ready (%.1f%% test accuracy)\n", name.c_str(),
                   model.test_accuracy * 100.0);
  }
}

std::vector<std::string> ServeZoo::names() const {
  std::vector<std::string> out;
  out.reserve(runners_.size());
  for (const auto& [name, runner] : runners_) out.push_back(name);
  return out;  // std::map iteration is already sorted
}

engine::SweepRunner& ServeZoo::runner(const std::string& model) {
  const auto it = runners_.find(model);
  if (it == runners_.end()) unknown_model(model, names());
  return *it->second;
}

// ---- StaticModelHost ---------------------------------------------------------

void StaticModelHost::add(const std::string& name, engine::SweepRunner& runner) {
  runner.warm_compile();  // like ServeZoo: executors never race the lazy build
  runners_[name] = &runner;
}

std::vector<std::string> StaticModelHost::names() const {
  std::vector<std::string> out;
  out.reserve(runners_.size());
  for (const auto& [name, runner] : runners_) out.push_back(name);
  return out;
}

engine::SweepRunner& StaticModelHost::runner(const std::string& model) {
  const auto it = runners_.find(model);
  if (it == runners_.end()) unknown_model(model, names());
  return *it->second;
}

}  // namespace fsa::serve
