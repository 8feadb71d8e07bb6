#include "mapreduce/local_runner.hpp"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "mapreduce/kv.hpp"
#include "testutil/scoped_env.hpp"

namespace vhadoop::mapreduce {
namespace {

/// Tokenizing word-count mapper (the canonical example).
class WcMapper : public Mapper {
 public:
  void map(std::string_view, std::string_view value, Context& ctx) override {
    std::size_t i = 0;
    while (i < value.size()) {
      while (i < value.size() && value[i] == ' ') ++i;
      std::size_t j = i;
      while (j < value.size() && value[j] != ' ') ++j;
      if (j > i) ctx.emit(std::string(value.substr(i, j - i)), encode_i64(1));
      i = j;
    }
  }
};

class SumReducer : public Reducer {
 public:
  void reduce(std::string_view key, const std::vector<std::string_view>& values,
              Context& ctx) override {
    std::int64_t sum = 0;
    for (auto v : values) sum += decode_i64(v);
    ctx.emit(std::string(key), encode_i64(sum));
  }
};

JobSpec wordcount_spec(int reduces, bool combiner) {
  JobSpec spec;
  spec.config.name = "wordcount";
  spec.config.num_reduces = reduces;
  spec.config.use_combiner = combiner;
  spec.mapper = [] { return std::make_unique<WcMapper>(); };
  spec.reducer = [] { return std::make_unique<SumReducer>(); };
  spec.combiner = [] { return std::make_unique<SumReducer>(); };
  return spec;
}

std::vector<KV> lines(std::initializer_list<std::string> ls) {
  std::vector<KV> input;
  int i = 0;
  for (const auto& l : ls) input.push_back({std::to_string(i++), l});
  return input;
}

std::map<std::string, std::int64_t> counts_of(const JobResult& r) {
  std::map<std::string, std::int64_t> m;
  for (const KV& kv : r.output) m[kv.key] = decode_i64(kv.value);
  return m;
}

TEST(LocalRunner, WordcountBasic) {
  LocalJobRunner runner(4);
  auto input = lines({"the cat sat", "the cat", "the"});
  auto result = runner.run(wordcount_spec(1, false), input, 2);
  auto counts = counts_of(result);
  EXPECT_EQ(counts["the"], 3);
  EXPECT_EQ(counts["cat"], 2);
  EXPECT_EQ(counts["sat"], 1);
  EXPECT_EQ(counts.size(), 3u);
}

TEST(LocalRunner, OutputSortedWithinPartition) {
  LocalJobRunner runner(2);
  auto input = lines({"zebra yak ant bee cow", "ant zebra"});
  auto result = runner.run(wordcount_spec(1, false), input, 1);
  for (std::size_t i = 1; i < result.output.size(); ++i) {
    EXPECT_LE(result.output[i - 1].key, result.output[i].key);
  }
}

TEST(LocalRunner, SameAnswerRegardlessOfSplitsReducesThreads) {
  auto input = lines({"a b c d e f g", "a b c", "a a a b", "g g g g g"});
  std::map<std::string, std::int64_t> reference;
  {
    LocalJobRunner runner(1);
    reference = counts_of(runner.run(wordcount_spec(1, false), input, 1));
  }
  for (int splits : {1, 2, 3, 4}) {
    for (int reduces : {1, 2, 5}) {
      for (unsigned threads : {1u, 4u}) {
        LocalJobRunner runner(threads);
        auto result = runner.run(wordcount_spec(reduces, false), input, splits);
        EXPECT_EQ(counts_of(result), reference)
            << "splits=" << splits << " reduces=" << reduces << " threads=" << threads;
      }
    }
  }
}

TEST(LocalRunner, CombinerPreservesResultButShrinksShuffle) {
  std::vector<KV> input;
  for (int i = 0; i < 200; ++i) input.push_back({std::to_string(i), "same same same word"});
  LocalJobRunner runner(4);
  auto plain = runner.run(wordcount_spec(2, false), input, 4);
  auto combined = runner.run(wordcount_spec(2, true), input, 4);
  EXPECT_EQ(counts_of(plain), counts_of(combined));
  EXPECT_LT(combined.total_shuffle_bytes, plain.total_shuffle_bytes * 0.1);
}

TEST(LocalRunner, ShuffleMatrixAccountsAllMapOutput) {
  auto input = lines({"x y z w v u t s", "x x y"});
  LocalJobRunner runner(2);
  auto result = runner.run(wordcount_spec(3, false), input, 2);
  double matrix_sum = 0.0;
  for (const auto& row : result.shuffle_matrix) {
    for (double b : row) matrix_sum += b;
  }
  double map_out = 0.0;
  for (const auto& p : result.map_profiles) map_out += p.output_bytes;
  EXPECT_DOUBLE_EQ(matrix_sum, map_out);
  EXPECT_DOUBLE_EQ(result.total_shuffle_bytes, matrix_sum);
}

TEST(LocalRunner, ProfilesCountRecordsAndBytes) {
  auto input = lines({"a b", "c d"});
  LocalJobRunner runner(1);
  auto result = runner.run(wordcount_spec(1, false), input, 2);
  ASSERT_EQ(result.map_profiles.size(), 2u);
  EXPECT_EQ(result.map_profiles[0].input_records, 1);
  EXPECT_EQ(result.map_profiles[0].output_records, 2);
  EXPECT_GT(result.map_profiles[0].cpu_seconds, 0.0);
  ASSERT_EQ(result.reduce_profiles.size(), 1u);
  EXPECT_EQ(result.reduce_profiles[0].input_records, 4);
  EXPECT_EQ(result.reduce_profiles[0].output_records, 4);
}

TEST(LocalRunner, PartitioningIsStable) {
  // The same key must land in the same partition in every run and task.
  EXPECT_EQ(default_partition("alpha", 7), default_partition("alpha", 7));
  int p = default_partition("alpha", 7);
  EXPECT_GE(p, 0);
  EXPECT_LT(p, 7);
}

TEST(LocalRunner, EmptyInputYieldsEmptyOutput) {
  LocalJobRunner runner(2);
  std::vector<KV> empty;
  auto result = runner.run(wordcount_spec(2, false), empty, 3);
  EXPECT_TRUE(result.output.empty());
  EXPECT_EQ(result.map_profiles.size(), 1u);  // clamped to one split
}

TEST(LocalRunner, MissingFactoriesThrow) {
  LocalJobRunner runner(1);
  std::vector<KV> input = lines({"a"});
  JobSpec spec;
  EXPECT_THROW(runner.run(spec, input, 1), std::invalid_argument);
  spec = wordcount_spec(1, true);
  spec.combiner = nullptr;
  EXPECT_THROW(runner.run(spec, input, 1), std::invalid_argument);
  spec = wordcount_spec(0, false);
  EXPECT_THROW(runner.run(spec, input, 1), std::invalid_argument);
}

TEST(LocalRunner, MapperStateIsPerTask) {
  // A mapper that emits its record count in cleanup: with 3 splits we get
  // 3 cleanup records, proving instances are not shared across tasks.
  class CountingMapper : public Mapper {
   public:
    void map(std::string_view, std::string_view, Context&) override { ++n_; }
    void cleanup(Context& ctx) override { ctx.emit("count", encode_i64(n_)); }

   private:
    std::int64_t n_ = 0;
  };
  JobSpec spec;
  spec.config.num_reduces = 1;
  spec.mapper = [] { return std::make_unique<CountingMapper>(); };
  spec.reducer = [] { return std::make_unique<SumReducer>(); };
  LocalJobRunner runner(3);
  auto input = lines({"a", "b", "c", "d", "e", "f"});
  auto result = runner.run(spec, input, 3);
  ASSERT_EQ(result.output.size(), 1u);
  EXPECT_EQ(decode_i64(result.output[0].value), 6);
  EXPECT_EQ(result.map_profiles.size(), 3u);
}

TEST(Codecs, RoundTrip) {
  EXPECT_DOUBLE_EQ(decode_f64(encode_f64(3.25)), 3.25);
  EXPECT_EQ(decode_i64(encode_i64(-123456789)), -123456789);
  std::vector<double> v{1.5, -2.25, 1e300, 0.0};
  EXPECT_EQ(decode_vec(encode_vec(v)), v);
  EXPECT_TRUE(decode_vec(encode_vec({})).empty());
}

TEST(Codecs, StableHashKnownValues) {
  // FNV-1a 32-bit reference values — platform independence check.
  EXPECT_EQ(stable_hash(""), 2166136261u);
  EXPECT_EQ(stable_hash("a"), 0xe40c292cu);
}

// Property sweep: wordcount totals conserved across configurations.
class LocalRunnerSweep : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(LocalRunnerSweep, TotalWordInstancesConserved) {
  const auto [splits, reduces, threads] = GetParam();
  std::vector<KV> input;
  std::int64_t total_words = 0;
  for (int i = 0; i < 50; ++i) {
    std::ostringstream line;
    for (int w = 0; w <= i % 7; ++w) {
      line << "w" << (i * w) % 13 << ' ';
      ++total_words;
    }
    input.push_back({std::to_string(i), line.str()});
  }
  LocalJobRunner runner(static_cast<unsigned>(threads));
  auto result = runner.run(wordcount_spec(reduces, (splits + reduces) % 2 == 0), input, splits);
  std::int64_t sum = 0;
  for (const KV& kv : result.output) sum += decode_i64(kv.value);
  EXPECT_EQ(sum, total_words);
}

INSTANTIATE_TEST_SUITE_P(Configs, LocalRunnerSweep,
                         ::testing::Combine(::testing::Values(1, 2, 7, 16),
                                            ::testing::Values(1, 3, 8),
                                            ::testing::Values(1, 2, 8)));

TEST(LocalRunner, ReferenceSwitchFailsLoudlyOnAnythingButEmptyZeroOrOne) {
  for (const char* ok : {"", "0", "1"}) {
    testutil::ScopedEnv env("VHADOOP_RUNNER_REFERENCE", ok);
    EXPECT_NO_THROW(LocalJobRunner{1}) << "'" << ok << "'";
  }
  for (const char* bad : {"false", "true", "2", "on"}) {
    testutil::ScopedEnv env("VHADOOP_RUNNER_REFERENCE", bad);
    try {
      LocalJobRunner runner(1);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("VHADOOP_RUNNER_REFERENCE"), std::string::npos);
    }
  }
}

}  // namespace
}  // namespace vhadoop::mapreduce
