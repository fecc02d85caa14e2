// model_zoo_test.cpp — the train-once/cache-forever contract, exercised
// with a deliberately tiny configuration so it runs in seconds.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>

#include "models/feature_cache.h"
#include "models/model_zoo.h"
#include "obs/trace.h"
#include "optim/trainer.h"
#include "tensor/serialize.h"

namespace fsa::models {
namespace {

ZooConfig tiny_config(const std::string& dir) {
  ZooConfig cfg;
  cfg.cache_dir = dir;
  cfg.train_count = 120;
  cfg.test_count = 60;
  cfg.pool_count = 60;
  cfg.digits_epochs = 1;
  cfg.objects_epochs = 1;
  cfg.verbose = false;
  return cfg;
}

std::string temp_dir() {
  const auto dir = std::filesystem::temp_directory_path() / "fsa_zoo_test";
  std::filesystem::remove_all(dir);
  return dir.string();
}

TEST(ModelZoo, TrainsCachesAndReloadsIdentically) {
  const std::string dir = temp_dir();
  double first_acc = 0.0;
  std::vector<Tensor> first_params;
  {
    ModelZoo zoo(tiny_config(dir));
    ZooModel& m = zoo.digits();
    EXPECT_EQ(m.name, "digits");
    EXPECT_EQ(m.train.size(), 120);
    EXPECT_EQ(m.test.size(), 60);
    EXPECT_EQ(m.attack_pool.size(), 60);
    first_acc = m.test_accuracy;
    for (auto* p : m.net.params()) first_params.push_back(p->value());
    EXPECT_TRUE(std::filesystem::exists(dir + "/digits_cwnet.bin"));
  }
  {
    // Second zoo must LOAD (bit-identical parameters, same accuracy).
    ModelZoo zoo(tiny_config(dir));
    ZooModel& m = zoo.digits();
    EXPECT_DOUBLE_EQ(m.test_accuracy, first_acc);
    const auto params = m.net.params();
    ASSERT_EQ(params.size(), first_params.size());
    for (std::size_t i = 0; i < params.size(); ++i)
      EXPECT_EQ(params[i]->value(), first_params[i]);
  }
  std::filesystem::remove_all(dir);
}

TEST(ModelZoo, DatasetsAreDisjointAcrossRoles) {
  const std::string dir = temp_dir();
  ModelZoo zoo(tiny_config(dir));
  ZooModel& m = zoo.digits();
  // Different seeds → the three image sets must differ.
  EXPECT_NE(m.train.images(), m.test.images().slice0(0, m.test.size()).reshape(
                                   m.test.images().shape()));
  EXPECT_NE(m.test.images(), m.attack_pool.images());
  std::filesystem::remove_all(dir);
}

TEST(ModelZoo, CleanAccuracyEqualsTheFullNetworkPassColdAndWarm) {
  // test_accuracy comes from the cached last-cut test features; it must be
  // the full-network Trainer::accuracy value bitwise, whether the zoo just
  // trained (features extracted) or loaded (features read back).
  const std::string dir = temp_dir();
  for (const char* load : {"cold", "warm"}) {
    ModelZoo zoo(tiny_config(dir));
    for (ZooModel* m : {&zoo.digits(), &zoo.objects()}) {
      SCOPED_TRACE(m->name + " " + load);
      EXPECT_LT(m->test_accuracy, 1.0);  // some images wrong: equality is not trivial
      EXPECT_EQ(m->test_accuracy, optim::Trainer::accuracy(m->net, m->test));
    }
  }
  std::filesystem::remove_all(dir);
}

std::map<std::string, std::filesystem::file_time_type> listing(const std::string& dir) {
  std::map<std::string, std::filesystem::file_time_type> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    out[entry.path().filename().string()] = entry.last_write_time();
  return out;
}

TEST(ModelZoo, WarmLoadSkipsTheTrainSplitAndWritesNothing) {
  const std::string dir = temp_dir();
  Tensor trained_on;
  {
    ModelZoo zoo(tiny_config(dir));
    trained_on = zoo.digits().train.images();
  }
  const auto before = listing(dir);
  ModelZoo zoo(tiny_config(dir));
  EXPECT_EQ(zoo.digits().train.size(), 0);
  EXPECT_EQ(listing(dir), before);
  // The split is still one call away, identical to the one training used.
  EXPECT_EQ(zoo.synthesize("digits", Split::kTrain).images(), trained_on);
  std::filesystem::remove_all(dir);
}

TEST(ModelZoo, ColdBuildWritesSplitFilesThatWarmBuildsReadBackBitwise) {
  const std::string dir = temp_dir();
  {
    ModelZoo zoo(tiny_config(dir));
    for (const ZooModel* m : {&zoo.digits(), &zoo.objects()})
      for (const char* set : {"test", "pool"})
        EXPECT_TRUE(std::filesystem::exists(split_cache_path(dir, m->name, set)))
            << m->name << " " << set;
  }
  const auto before = listing(dir);
  ModelZoo zoo(tiny_config(dir));
  for (const ZooModel* m : {&zoo.digits(), &zoo.objects()}) {
    SCOPED_TRACE(m->name);
    const data::Dataset test = zoo.synthesize(m->name, Split::kTest);
    const data::Dataset pool = zoo.synthesize(m->name, Split::kPool);
    EXPECT_EQ(m->test.images(), test.images());
    EXPECT_EQ(m->test.labels(), test.labels());
    EXPECT_EQ(m->test.num_classes(), test.num_classes());
    EXPECT_EQ(m->attack_pool.images(), pool.images());
    EXPECT_EQ(m->attack_pool.labels(), pool.labels());
    EXPECT_EQ(m->attack_pool.num_classes(), pool.num_classes());
  }
  EXPECT_EQ(listing(dir), before);  // read back, not re-synthesized and rewritten
  std::filesystem::remove_all(dir);
}

TEST(ModelZoo, MismatchedSplitFilesAreResynthesizedAndReplaced) {
  const std::string dir = temp_dir();
  { (void)ModelZoo(tiny_config(dir)).digits(); }  // writes 60-image splits
  const std::string path = split_cache_path(dir, "digits", "test");

  // Written under another test_count: not trusted, replaced.
  ZooConfig smaller = tiny_config(dir);
  smaller.test_count = 50;
  {
    ModelZoo zoo(smaller);
    const data::Dataset expected = zoo.synthesize("digits", Split::kTest);
    EXPECT_EQ(zoo.digits().test.images(), expected.images());
    EXPECT_EQ(zoo.digits().test.labels(), expected.labels());
  }
  std::vector<Tensor> file = io::load_tensors(path);
  ASSERT_EQ(file.size(), 2u);
  EXPECT_EQ(file[0].dim(0), 50);

  // Holding an out-of-range label: likewise.
  const float label0 = file[1].data()[0];
  file[1].data()[0] = 10.0f;
  io::save_tensors(path, file);
  {
    ModelZoo zoo(smaller);
    EXPECT_EQ(zoo.digits().test.labels(), zoo.synthesize("digits", Split::kTest).labels());
  }
  EXPECT_EQ(io::load_tensors(path)[1].data()[0], label0);
  std::filesystem::remove_all(dir);
}

/// Depth of every span named `name`, in completion order.
std::vector<std::uint32_t> depths(const std::vector<obs::SpanRecord>& spans,
                                  const std::string& name) {
  std::vector<std::uint32_t> out;
  for (const obs::SpanRecord& s : spans)
    if (s.name == name) out.push_back(s.depth);
  return out;
}

TEST(ModelZoo, BuildSpansNestStartUpStages) {
  const std::string dir = temp_dir();
  obs::set_trace_enabled(true);
  std::vector<obs::SpanRecord> spans[2];  // cold, warm
  for (auto& recorded : spans) {
    obs::clear_spans();
    ModelZoo zoo(tiny_config(dir));
    (void)zoo.digits();
    recorded = obs::snapshot_spans();
  }
  obs::clear_spans();
  obs::set_trace_enabled(false);

  using Depths = std::vector<std::uint32_t>;
  const auto& [cold, warm] = spans;
  EXPECT_EQ(depths(cold, "zoo.build"), Depths({0}));
  EXPECT_EQ(depths(cold, "split.cached"), Depths({1, 1}));  // test, pool
  EXPECT_EQ(depths(cold, "zoo.synth"), Depths({2, 2, 2}));  // test, pool, then train
  EXPECT_EQ(depths(cold, "zoo.train"), Depths({1}));
  EXPECT_EQ(depths(cold, "zoo.load"), Depths());
  EXPECT_EQ(depths(cold, "zoo.accuracy"), Depths({1}));
  EXPECT_EQ(depths(cold, "features.cached"), Depths({2}));

  EXPECT_EQ(depths(warm, "zoo.build"), Depths({0}));
  EXPECT_EQ(depths(warm, "split.cached"), Depths({1, 1}));
  EXPECT_EQ(depths(warm, "zoo.synth"), Depths());  // both splits read back
  EXPECT_EQ(depths(warm, "zoo.train"), Depths());
  EXPECT_EQ(depths(warm, "zoo.load"), Depths({1}));
  EXPECT_EQ(depths(warm, "zoo.accuracy"), Depths({1}));
  EXPECT_EQ(depths(warm, "features.cached"), Depths({2}));

  // Nesting is containment in time on one thread.
  for (const auto& recorded : spans) {
    const auto it = std::find_if(recorded.begin(), recorded.end(), [](const obs::SpanRecord& s) {
      return std::string(s.name) == "zoo.build";
    });
    ASSERT_NE(it, recorded.end());
    const obs::SpanRecord& build = *it;
    for (const obs::SpanRecord& s : recorded) {
      EXPECT_EQ(s.tid, build.tid) << s.name;
      EXPECT_LE(build.start_us, s.start_us) << s.name;
      EXPECT_LE(s.start_us + s.dur_us, build.start_us + build.dur_us) << s.name;
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(ModelZoo, SameInstanceIsMemoized) {
  const std::string dir = temp_dir();
  ModelZoo zoo(tiny_config(dir));
  ZooModel& a = zoo.digits();
  ZooModel& b = zoo.digits();
  EXPECT_EQ(&a, &b);
  std::filesystem::remove_all(dir);
}

TEST(DefaultCacheDir, HonorsEnvironment) {
  // Without the env var → the documented default.
  unsetenv("FSA_CACHE_DIR");
  EXPECT_EQ(default_cache_dir(), ".fsa_cache");
  setenv("FSA_CACHE_DIR", "/tmp/fsa_custom_cache", 1);
  EXPECT_EQ(default_cache_dir(), "/tmp/fsa_custom_cache");
  unsetenv("FSA_CACHE_DIR");
}

}  // namespace
}  // namespace fsa::models
