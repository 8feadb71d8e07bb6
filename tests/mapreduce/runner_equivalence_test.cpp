// Equivalence suite for the arena-backed data path (DESIGN.md §11): the
// optimized LocalJobRunner must produce byte-identical job results to the
// VHADOOP_RUNNER_REFERENCE oracle — outputs, task profiles, shuffle
// accounting — across seeds, split counts, combiners, and adversarial keys.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "mapreduce/kv_batch.hpp"
#include "mapreduce/local_runner.hpp"
#include "mapreduce/thread_pool.hpp"

namespace mr = vhadoop::mapreduce;

namespace {

// --- deterministic pseudo-random bytes (no std::random in tests) ------------

std::uint64_t splitmix(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Key pool exercising every compare path: empty key, short keys, embedded
/// NULs, keys equal through their 8-byte prefix, and binary bytes.
std::vector<std::string> tricky_keys() {
  return {
      "",
      "a",
      std::string("a\0", 2),
      std::string("a\0b", 3),
      "aaaaaaaa",
      "aaaaaaaab",
      "aaaaaaaac",
      "aaaaaaa",
      std::string("\xff\x00\x7f", 3),
      "zebra",
      "zebr",
      "prefix-shared-long-key-1",
      "prefix-shared-long-key-2",
  };
}

std::vector<mr::KV> random_records(std::uint64_t seed, std::size_t n) {
  const auto keys = tricky_keys();
  std::uint64_t s = seed;
  std::vector<mr::KV> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& key = keys[splitmix(s) % keys.size()];
    std::string value(splitmix(s) % 24, '\0');
    for (char& c : value) c = static_cast<char>(splitmix(s) & 0xff);
    records.push_back({key, std::move(value)});
  }
  return records;
}

// --- user code under test ----------------------------------------------------

/// Emits (key, value) back plus a per-key byte count — shuffle-heavy, and
/// the reducer output depends on merge order only through stable grouping.
class EchoCountMapper : public mr::Mapper {
 public:
  void map(std::string_view key, std::string_view value, mr::Context& ctx) override {
    ctx.emit(key, value);
  }
};

class ConcatReducer : public mr::Reducer {
 public:
  void reduce(std::string_view key, const std::vector<std::string_view>& values,
              mr::Context& ctx) override {
    std::string joined;
    for (auto v : values) {
      joined += v;
      joined += '|';
    }
    ctx.emit(key, joined);
  }
};

/// Combiner that emits groups in reverse key order — the runner must
/// re-sort combiner output (Hadoop allows arbitrary emit order).
class ReverseCombiner : public mr::Reducer {
 public:
  void reduce(std::string_view key, const std::vector<std::string_view>& values,
              mr::Context&) override {
    std::string joined;
    for (auto v : values) {
      joined += v;
      joined += '|';
    }
    buffered_.push_back({std::string(key), std::move(joined)});
  }
  void cleanup(mr::Context& ctx) override {
    for (auto it = buffered_.rbegin(); it != buffered_.rend(); ++it) {
      ctx.emit(it->key, it->value);
    }
  }

 private:
  std::vector<mr::KV> buffered_;
};

mr::JobSpec echo_spec(int reduces, bool combiner) {
  mr::JobSpec spec;
  spec.config.name = "echo";
  spec.config.num_reduces = reduces;
  spec.config.use_combiner = combiner;
  spec.mapper = [] { return std::make_unique<EchoCountMapper>(); };
  spec.reducer = [] { return std::make_unique<ConcatReducer>(); };
  if (combiner) spec.combiner = [] { return std::make_unique<ReverseCombiner>(); };
  return spec;
}

void expect_profiles_equal(const std::vector<mr::TaskProfile>& a,
                           const std::vector<mr::TaskProfile>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].input_records, b[i].input_records) << "task " << i;
    EXPECT_EQ(a[i].input_bytes, b[i].input_bytes) << "task " << i;
    EXPECT_EQ(a[i].output_records, b[i].output_records) << "task " << i;
    EXPECT_EQ(a[i].output_bytes, b[i].output_bytes) << "task " << i;
    EXPECT_EQ(a[i].cpu_seconds, b[i].cpu_seconds) << "task " << i;
  }
}

/// Byte-identical equivalence: output records, profiles, shuffle matrix and
/// the mode-independent data-path stats must match exactly.
void expect_results_equal(const mr::JobResult& opt, const mr::JobResult& ref) {
  ASSERT_EQ(opt.output.size(), ref.output.size());
  for (std::size_t i = 0; i < opt.output.size(); ++i) {
    EXPECT_EQ(opt.output[i].key, ref.output[i].key) << "record " << i;
    EXPECT_EQ(opt.output[i].value, ref.output[i].value) << "record " << i;
  }
  expect_profiles_equal(opt.map_profiles, ref.map_profiles);
  expect_profiles_equal(opt.reduce_profiles, ref.reduce_profiles);
  EXPECT_EQ(opt.shuffle_matrix, ref.shuffle_matrix);
  EXPECT_EQ(opt.total_shuffle_bytes, ref.total_shuffle_bytes);
  EXPECT_EQ(opt.stats.map_emit_records, ref.stats.map_emit_records);
  EXPECT_EQ(opt.stats.map_emit_bytes, ref.stats.map_emit_bytes);
  EXPECT_EQ(opt.stats.shuffle_records, ref.stats.shuffle_records);
}

// --- KVBatch unit tests ------------------------------------------------------

TEST(KVBatch, ValuesAreEightByteAligned) {
  mr::KVBatch batch;
  const double payload[3] = {1.0, -2.5, 1e300};
  std::string value(sizeof(payload), '\0');
  std::memcpy(value.data(), payload, sizeof(payload));
  batch.push("k", value);          // 1-byte key forces padding
  batch.push("keykey", value);     // 6-byte key too
  batch.push("12345678", value);   // already aligned
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto v = batch.value(i);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % alignof(double), 0u) << i;
    EXPECT_EQ(v, std::string_view(value));
  }
}

TEST(KVBatch, TracksLogicalBytesAndChunks) {
  mr::KVBatch batch;
  EXPECT_EQ(batch.chunks_allocated(), 0);
  EXPECT_EQ(batch.total_bytes(), 0u);
  batch.push("key", "value");
  EXPECT_EQ(batch.total_bytes(), 8u);  // logical bytes exclude padding
  EXPECT_EQ(batch.chunks_allocated(), 1);
  // An oversized record gets its own chunk; existing views stay valid.
  const std::string_view first_key = batch.key(0);
  batch.push("big", std::string(256 * 1024, 'x'));
  EXPECT_EQ(batch.chunks_allocated(), 2);
  EXPECT_EQ(first_key, "key");
  EXPECT_EQ(batch.key(0), "key");
  batch.clear();
  EXPECT_EQ(batch.chunks_allocated(), 0);
  EXPECT_TRUE(batch.empty());
}

TEST(KVBatch, KeyPrefixOrderMatchesLexicographic) {
  const auto keys = tricky_keys();
  for (const auto& a : keys) {
    for (const auto& b : keys) {
      const std::uint64_t pa = mr::KVBatch::key_prefix(a);
      const std::uint64_t pb = mr::KVBatch::key_prefix(b);
      if (pa != pb) {
        // Differing prefixes must agree with full lexicographic order.
        EXPECT_EQ(pa < pb, a < b) << '"' << a << "\" vs \"" << b << '"';
      }
    }
  }
}

TEST(KVBatch, SortEntriesIsStable) {
  mr::KVBatch batch;
  const auto keys = tricky_keys();
  std::uint64_t s = 99;
  for (int i = 0; i < 500; ++i) {
    batch.push(keys[splitmix(s) % keys.size()], std::to_string(i));
  }
  std::vector<mr::KVBatch::Entry> entries(batch.entries().begin(), batch.entries().end());
  auto expected = entries;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.key() < b.key(); });
  const std::int64_t comparisons = mr::sort_entries(entries);
  EXPECT_GT(comparisons, 0);
  ASSERT_EQ(entries.size(), expected.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].key(), expected[i].key()) << i;
    EXPECT_EQ(entries[i].value(), expected[i].value()) << i;  // ties keep input order
  }
}

TEST(KVBatch, MergeRunsMatchesStableSortOfConcatenation) {
  mr::KVBatch batch;
  const auto keys = tricky_keys();
  std::uint64_t s = 7;
  std::vector<std::vector<mr::KVBatch::Entry>> runs(4);
  std::vector<mr::KVBatch::Entry> all;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    for (int i = 0; i < 100; ++i) {
      batch.push(keys[splitmix(s) % keys.size()],
                 std::to_string(r) + ":" + std::to_string(i));
    }
  }
  for (std::size_t r = 0; r < runs.size(); ++r) {
    for (int i = 0; i < 100; ++i) {
      runs[r].push_back(batch.entry(r * 100 + static_cast<std::size_t>(i)));
    }
    mr::sort_entries(runs[r]);
    all.insert(all.end(), runs[r].begin(), runs[r].end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const auto& a, const auto& b) { return a.key() < b.key(); });

  std::vector<std::span<const mr::KVBatch::Entry>> spans(runs.begin(), runs.end());
  std::vector<mr::KVBatch::Entry> merged;
  mr::merge_runs(spans, merged);
  ASSERT_EQ(merged.size(), all.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].key(), all[i].key()) << i;
    EXPECT_EQ(merged[i].value(), all[i].value()) << i;
  }
}

TEST(KVBatch, MergeRunsHandlesEmptyAndSingleRuns) {
  std::vector<mr::KVBatch::Entry> merged;
  EXPECT_EQ(mr::merge_runs({}, merged), 0);
  EXPECT_TRUE(merged.empty());

  mr::KVBatch batch;
  batch.push("a", "1");
  batch.push("b", "2");
  std::vector<mr::KVBatch::Entry> run(batch.entries().begin(), batch.entries().end());
  std::vector<std::span<const mr::KVBatch::Entry>> spans{{}, run, {}};
  EXPECT_EQ(mr::merge_runs(spans, merged), 0);  // single non-empty run: no comparisons
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].key(), "a");
  EXPECT_EQ(merged[1].key(), "b");
}

// --- codec bounds (satellite: decode_* UB fix) -------------------------------

TEST(CodecBounds, TruncatedPayloadsThrow) {
  EXPECT_THROW(mr::decode_f64(""), std::invalid_argument);
  EXPECT_THROW(mr::decode_f64("abc"), std::invalid_argument);
  EXPECT_THROW(mr::decode_i64(""), std::invalid_argument);
  EXPECT_THROW(mr::decode_i64("1234567"), std::invalid_argument);
  EXPECT_THROW(mr::decode_vec("123"), std::invalid_argument);
  EXPECT_THROW(mr::decode_vec(std::string(15, 'x')), std::invalid_argument);
  std::vector<double> scratch;
  EXPECT_THROW(mr::decode_vec_view("1234567", scratch), std::invalid_argument);
}

TEST(CodecBounds, EmptyVecPayloadIsValid) {
  EXPECT_TRUE(mr::decode_vec("").empty());
  std::vector<double> scratch;
  EXPECT_TRUE(mr::decode_vec_view("", scratch).empty());
}

TEST(CodecBounds, RoundTripStillWorks) {
  EXPECT_EQ(mr::decode_f64(mr::encode_f64(-3.75)), -3.75);
  EXPECT_EQ(mr::decode_i64(mr::encode_i64(-42)), -42);
  const std::vector<double> v{1.0, 2.0, 3.0};
  EXPECT_EQ(mr::decode_vec(mr::encode_vec(v)), v);
}

TEST(DecodeVecView, AlignedPayloadIsZeroCopy) {
  mr::KVBatch batch;
  const std::vector<double> v{3.0, 1.5, -8.25};
  batch.push("key", mr::encode_vec(v));
  std::vector<double> scratch;
  const auto view = mr::decode_vec_view(batch.value(0), scratch);
  ASSERT_EQ(view.size(), v.size());
  EXPECT_EQ(static_cast<const void*>(view.data()),
            static_cast<const void*>(batch.value(0).data()));  // no copy
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(view[i], v[i]);
}

TEST(DecodeVecView, UnalignedPayloadFallsBackToScratch) {
  alignas(8) char buf[17];
  const double x = 12345.678;
  std::memcpy(buf + 1, &x, sizeof(double));
  std::memcpy(buf + 9, &x, sizeof(double));
  std::vector<double> scratch;
  const auto view = mr::decode_vec_view({buf + 1, 16}, scratch);
  ASSERT_EQ(view.size(), 2u);
  EXPECT_EQ(view.data(), scratch.data());  // copied into caller scratch
  EXPECT_EQ(view[0], x);
  EXPECT_EQ(view[1], x);
}

// --- optimized vs reference equivalence --------------------------------------

struct SweepCase {
  std::uint64_t seed;
  std::size_t records;
  int splits;
  int reduces;
  bool combiner;
};

class RunnerEquivalence : public ::testing::TestWithParam<SweepCase> {};

TEST_P(RunnerEquivalence, ByteIdenticalAcrossModes) {
  const SweepCase c = GetParam();
  const auto records = random_records(c.seed, c.records);
  const mr::LocalJobRunner optimized(4, /*reference=*/false);
  const mr::LocalJobRunner reference(4, /*reference=*/true);
  const auto spec = echo_spec(c.reduces, c.combiner);
  const auto opt = optimized.run(spec, records, c.splits);
  const auto ref = reference.run(spec, records, c.splits);
  expect_results_equal(opt, ref);
  // The optimized path reports its deterministic counters.
  EXPECT_GT(opt.stats.arena_chunks, 0);
  if (c.records > 1) {
    EXPECT_GT(opt.stats.sort_comparisons, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    MultiSeedSweep, RunnerEquivalence,
    ::testing::Values(SweepCase{1, 200, 4, 3, false}, SweepCase{2, 200, 4, 3, true},
                      SweepCase{3, 64, 1, 1, false}, SweepCase{4, 64, 7, 2, true},
                      SweepCase{5, 500, 8, 5, true}, SweepCase{6, 500, 3, 4, false},
                      SweepCase{7, 33, 16, 2, true}, SweepCase{8, 1, 4, 2, false}),
    [](const auto& param_info) {
      const SweepCase& c = param_info.param;
      return "seed" + std::to_string(c.seed) + "_n" + std::to_string(c.records) + "_s" +
             std::to_string(c.splits) + "_r" + std::to_string(c.reduces) +
             (c.combiner ? "_comb" : "_plain");
    });

// --- edge cases, asserted identical across modes (satellite) -----------------

TEST(RunnerEdgeCases, EmptyInputIsIdenticalAcrossModes) {
  const mr::LocalJobRunner optimized(4, false);
  const mr::LocalJobRunner reference(4, true);
  const auto spec = echo_spec(2, false);
  const std::vector<mr::KV> empty;
  const auto opt = optimized.run(spec, empty, 4);
  const auto ref = reference.run(spec, empty, 4);
  expect_results_equal(opt, ref);
  EXPECT_TRUE(opt.output.empty());
  EXPECT_EQ(opt.map_profiles.size(), 1u);  // clamped to one (empty) split
}

TEST(RunnerEdgeCases, MoreSplitsThanRecordsIsIdenticalAcrossModes) {
  const auto records = random_records(11, 3);
  const mr::LocalJobRunner optimized(4, false);
  const mr::LocalJobRunner reference(4, true);
  const auto spec = echo_spec(2, false);
  const auto opt = optimized.run(spec, records, 64);
  const auto ref = reference.run(spec, records, 64);
  expect_results_equal(opt, ref);
  EXPECT_EQ(opt.map_profiles.size(), 3u);  // clamped to one split per record
}

TEST(RunnerEdgeCases, OutOfOrderCombinerIsIdenticalAcrossModes) {
  const auto records = random_records(12, 120);
  const mr::LocalJobRunner optimized(4, false);
  const mr::LocalJobRunner reference(4, true);
  const auto spec = echo_spec(3, true);  // ReverseCombiner emits descending
  expect_results_equal(optimized.run(spec, records, 5), reference.run(spec, records, 5));
}

TEST(RunnerEdgeCases, OutOfRangePartitionerThrowsInBothModes) {
  const auto records = random_records(13, 10);
  auto spec = echo_spec(2, false);
  spec.partitioner = [](std::string_view, int) { return 7; };  // >= num_reduces
  const mr::LocalJobRunner optimized(1, false);
  const mr::LocalJobRunner reference(1, true);
  EXPECT_THROW(optimized.run(spec, records, 2), std::out_of_range);
  EXPECT_THROW(reference.run(spec, records, 2), std::out_of_range);
}

TEST(RunnerEdgeCases, ReferenceFlagComesFromConstructor) {
  const mr::LocalJobRunner by_flag(2, true);
  EXPECT_TRUE(by_flag.reference());
  const mr::LocalJobRunner opt(2, false);
  EXPECT_FALSE(opt.reference());
}

// --- thread-count sweep (DESIGN.md §15) --------------------------------------
//
// The parallel data path's determinism contract: the JobResult — outputs,
// profiles, shuffle matrix, AND the sort/merge comparison + arena-chunk
// counters — is byte-identical at every thread count, and outputs/profiles
// always match the reference oracle. Inputs are sized from the runner's
// routing thresholds so the shapes that cross them run here.

/// Sweep 1, 2, 3 and 8 threads; returns the pool batches the 8-thread run
/// paid. A job pays two (one map-side, one reduce-side), so any more means a
/// partition sort or a reduce merge crossed its threshold and ran at top
/// level on the whole pool.
std::uint64_t run_thread_sweep(const std::vector<mr::KV>& records, int splits, int reduces,
                               bool combiner) {
  const auto spec = echo_spec(reduces, combiner);
  const mr::LocalJobRunner reference(4, /*reference=*/true);
  const auto ref = reference.run(spec, records, splits);
  std::optional<mr::JobResult> first;
  std::uint64_t batches = 0;
  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    const mr::LocalJobRunner runner(threads, false);
    const auto got = runner.run(spec, records, splits);
    batches = runner.pool().batches();
    expect_results_equal(got, ref);
    if (!first) {
      first = got;
    } else {
      // Counters must not depend on the thread count.
      EXPECT_EQ(got.stats.sort_comparisons, first->stats.sort_comparisons)
          << "threads " << threads;
      EXPECT_EQ(got.stats.merge_comparisons, first->stats.merge_comparisons)
          << "threads " << threads;
      EXPECT_EQ(got.stats.arena_chunks, first->stats.arena_chunks) << "threads " << threads;
    }
  }
  return batches;
}

TEST(ThreadCountSweep, TinyJob) {
  EXPECT_EQ(run_thread_sweep(random_records(21, 32), 4, 3, /*combiner=*/true), 2u);
}

TEST(ThreadCountSweep, SkewedKeys) {
  // Three records in four share one hot key; the rest spread over ~50 keys.
  // Each of the two splits holds 1.5x kSortParallelThreshold hot entries,
  // so its hot partition is deferred to a top-level parallel sort, and at
  // most 0.5x of cold ones, so every other partition spills inside its map
  // task — with and without a combiner.
  constexpr std::size_t n = 4 * mr::kSortParallelThreshold;
  std::uint64_t s = 22;
  std::vector<mr::KV> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::string key = i % 4 != 3 ? "skew-hot" : "skew-k" + std::to_string(splitmix(s) % 50);
    records.push_back({std::move(key), std::to_string(i % 1000)});
  }
  for (const bool combiner : {false, true}) {
    EXPECT_GT(run_thread_sweep(records, 2, 4, combiner), 2u) << "combiner " << combiner;
  }
}

TEST(ThreadCountSweep, SingleHotKey) {
  // One key only: three of four reduce partitions are empty and the merge's
  // range-split boundary candidates all coincide. Without a combiner the one
  // reduce merge holds 1.5x kMergeRangeSplitMin entries, so it is range-split.
  constexpr std::size_t n = mr::kMergeRangeSplitMin + mr::kMergeRangeSplitMin / 2;
  std::vector<mr::KV> records(n, mr::KV{"only-key", "v"});
  for (const bool combiner : {false, true}) {
    EXPECT_GT(run_thread_sweep(records, 4, 4, combiner), 2u) << "combiner " << combiner;
  }
}

TEST(ThreadCountSweep, MillionRecords) {
  // Big enough (~8 MB) to trigger the real parallel spill sorts and
  // range-split reduce merges.
  std::uint64_t s = 24;
  std::vector<mr::KV> records;
  records.reserve(1000000);
  for (std::size_t i = 0; i < 1000000; ++i) {
    if (i % 16 == 0) {
      records.push_back({"hot", "h"});
    } else {
      std::string key = "k";
      key += std::to_string(splitmix(s) % 65536);
      records.push_back({std::move(key), "v"});
    }
  }
  EXPECT_GT(run_thread_sweep(records, 8, 2, /*combiner=*/false), 2u);
}

// --- pool batches per job (DESIGN.md §15) ------------------------------------

TEST(PoolBatches, BelowThresholdJobPaysOneMapAndOneReduceBatch) {
  // Four splits and three reduces keep both batches multi-iteration (a
  // single-iteration batch runs inline and publishes nothing); every
  // partition and merge sits far under the routing thresholds.
  const auto records = random_records(31, 400);
  for (const bool combiner : {false, true}) {
    const auto spec = echo_spec(3, combiner);
    for (const bool reference : {false, true}) {
      const mr::LocalJobRunner runner(4, reference);
      runner.run(spec, records, 4);
      EXPECT_EQ(runner.pool().batches(), 2u)
          << (reference ? "reference" : "optimized") << " combiner " << combiner;
    }
  }
}

}  // namespace
