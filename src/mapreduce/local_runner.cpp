#include "mapreduce/local_runner.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "mapreduce/kv_batch.hpp"
#include "mapreduce/parallel_sort.hpp"
#include "mapreduce/thread_pool.hpp"
#include "sim/env_switch.hpp"

namespace vhadoop::mapreduce {

namespace {

bool reference_mode_from_env() {
  // vlint: allow(no-os-entropy) audited PR 8: opt-in oracle switch; both modes produce byte-identical job results, verified by the runner equivalence suite
  const char* v = std::getenv("VHADOOP_RUNNER_REFERENCE");
  return sim::parse_env_switch("VHADOOP_RUNNER_REFERENCE", v);
}

}  // namespace

LocalJobRunner::LocalJobRunner(unsigned threads)
    : LocalJobRunner(threads, reference_mode_from_env()) {}

LocalJobRunner::LocalJobRunner(unsigned threads, bool reference)
    : threads_(threads == 0 ? default_threads() : threads),
      reference_(reference),
      pool_(std::make_unique<WorkerPool>(threads_)) {}

LocalJobRunner::~LocalJobRunner() = default;
LocalJobRunner::LocalJobRunner(LocalJobRunner&&) noexcept = default;
LocalJobRunner& LocalJobRunner::operator=(LocalJobRunner&&) noexcept = default;

void sort_by_key(std::vector<KV>& records) {
  std::stable_sort(records.begin(), records.end(),
                   [](const KV& a, const KV& b) { return a.key < b.key; });
}

std::vector<KV> reduce_sorted(Reducer& reducer, std::span<const KV> sorted) {
  Context ctx;
  reducer.setup(ctx);
  std::size_t i = 0;
  std::vector<std::string_view> values;
  while (i < sorted.size()) {
    std::size_t j = i;
    values.clear();
    while (j < sorted.size() && sorted[j].key == sorted[i].key) {
      values.push_back(sorted[j].value);
      ++j;
    }
    reducer.reduce(sorted[i].key, values, ctx);
    i = j;
  }
  reducer.cleanup(ctx);
  return ctx.take_output();
}

namespace {

double modeled_cpu(const CostModel& c, std::int64_t in_records, double in_bytes,
                   std::int64_t out_records, double out_bytes, bool is_map) {
  const double per_record = is_map ? c.map_cpu_per_record : c.reduce_cpu_per_record;
  const double per_byte = is_map ? c.map_cpu_per_byte : c.reduce_cpu_per_byte;
  // Input drives the dominant term; emitted data costs the same rates again
  // (serialization + sort feeding).
  return c.task_cpu_fixed + per_record * static_cast<double>(in_records) +
         per_byte * in_bytes + 0.5 * (per_record * static_cast<double>(out_records) +
                                      per_byte * out_bytes);
}

int clamp_splits(int num_splits, unsigned threads, std::size_t input_size) {
  int s = num_splits > 0 ? num_splits : static_cast<int>(threads);
  return std::max(1, std::min<int>(s, input_size == 0 ? 1 : static_cast<int>(input_size)));
}

Partitioner effective_partitioner(const JobSpec& spec) {
  return spec.partitioner
             ? spec.partitioner
             : Partitioner([](std::string_view k, int r) { return default_partition(k, r); });
}

/// Group a key-sorted entry run (equal keys are adjacent) and feed each
/// group to `reducer`, collecting output in `ctx`. The equality test uses
/// the 8-byte prefix as a cheap pre-filter before the full key compare.
void reduce_entries_into(Reducer& reducer, std::span<const KVBatch::Entry> sorted, Context& ctx) {
  reducer.setup(ctx);
  std::size_t i = 0;
  std::vector<std::string_view> values;
  while (i < sorted.size()) {
    const KVBatch::Entry& first = sorted[i];
    const std::string_view key = first.key();
    std::size_t j = i;
    values.clear();
    while (j < sorted.size() && sorted[j].prefix == first.prefix && sorted[j].key() == key) {
      values.push_back(sorted[j].value());
      ++j;
    }
    reducer.reduce(key, values, ctx);
    i = j;
  }
  reducer.cleanup(ctx);
}

// --- reference path (VHADOOP_RUNNER_REFERENCE=1 oracle) ---------------------

struct MapTaskOutput {
  std::vector<std::vector<KV>> partitions;  // [reduce] -> records (sorted)
  TaskProfile profile;
  std::int64_t emit_records = 0;
  std::int64_t emit_bytes = 0;
};

// --- optimized path (arena-backed, default) ---------------------------------

/// Counters one partition's spill contributes to its map task.
struct SpillCounts {
  std::int64_t comparisons = 0;
  std::int64_t combiner_chunks = 0;
};

struct OptMapOutput {
  KVBatch arena;                                    // owns all mapper-emitted bytes
  std::vector<KVBatch> combined;                    // [reduce] combiner output arenas
  std::vector<std::vector<KVBatch::Entry>> parts;   // [reduce] -> sorted entries
  std::vector<double> part_bytes;                   // [reduce] -> shuffle bytes
  std::vector<SpillCounts> spill;                   // [reduce] -> spill counters
  std::vector<std::size_t> deferred;                // partitions spilled at top level
  TaskProfile profile;
  std::int64_t emit_records = 0;
  std::int64_t emit_bytes = 0;
  std::int64_t sort_comparisons = 0;
  std::int64_t arena_chunks = 0;
};

/// Spill partition `p` of one map task, Hadoop's in-memory spill: sort it,
/// then, when the job has a combiner, combine it and re-sort the combiner's
/// output (combiners may emit in any order). `sorted` skips the first sort
/// for a partition the caller already sorted. Every sort goes through
/// parallel_sort_entries, whose split structure is a pure function of size;
/// inside a pool batch it runs inline, so the counts are the same wherever
/// the spill runs. Distinct `p` touch disjoint slots of `out`.
void spill_partition(const JobSpec& spec, OptMapOutput& out, std::size_t p, bool sorted,
                     WorkerPool& pool) {
  std::vector<KVBatch::Entry>& part = out.parts[p];
  SpillCounts& counts = out.spill[p];
  if (!sorted) {
    counts.comparisons +=
        parallel_sort_entries(part.data(), part.size(), kSortParallelThreshold, pool);
  }
  if (!spec.config.use_combiner || part.empty()) return;
  auto combiner = spec.combiner();
  Context cctx;
  reduce_entries_into(*combiner, part, cctx);
  out.combined[p] = cctx.take_batch();
  const KVBatch& cb = out.combined[p];
  counts.combiner_chunks = cb.chunks_allocated();
  part.assign(cb.entries().begin(), cb.entries().end());
  out.part_bytes[p] = static_cast<double>(cb.total_bytes());
  counts.comparisons +=
      parallel_sort_entries(part.data(), part.size(), kSortParallelThreshold, pool);
}

}  // namespace

JobResult LocalJobRunner::run(const JobSpec& spec, std::span<const KV> input,
                              int num_splits) const {
  if (!spec.mapper) throw std::invalid_argument("JobSpec: missing mapper factory");
  if (!spec.reducer) throw std::invalid_argument("JobSpec: missing reducer factory");
  if (spec.config.use_combiner && !spec.combiner) {
    throw std::invalid_argument("JobSpec: use_combiner set but no combiner factory");
  }
  if (spec.config.num_reduces < 1) throw std::invalid_argument("JobSpec: num_reduces < 1");
  if (reference_) return run_reference(spec, input, num_splits);
  return run_optimized(spec, input, num_splits);
}

JobResult LocalJobRunner::run_optimized(const JobSpec& spec, std::span<const KV> input,
                                        int num_splits) const {
  const int R = spec.config.num_reduces;
  const int S = clamp_splits(num_splits, threads_, input.size());
  const auto uR = static_cast<std::size_t>(R);
  const auto uS = static_cast<std::size_t>(S);
  // The default HashPartitioner is called once per emitted record; dispatch
  // to it directly (inlined) instead of through a std::function unless the
  // job installed a custom partitioner.
  const bool custom_partitioner = static_cast<bool>(spec.partitioner);
  const Partitioner partition = effective_partitioner(spec);
  WorkerPool& pool = *pool_;

  // --- map side: map, partition, spill --------------------------------------
  // One arena per map task; partition lists hold 24-byte entries, so the
  // partition -> sort -> combine pipeline never copies key/value payloads.
  // Each task spills its own partitions, except those over
  // kSortParallelThreshold entries: they are deferred to top level after the
  // batch so the run-split parallel sort can use the whole pool instead of
  // one task's slot (DESIGN.md §15). The choice depends on partition size
  // only.
  std::vector<OptMapOutput> map_out(uS);
  const std::size_t n = input.size();
  pool.parallel_for(uS, [&](std::size_t m) {
    const std::size_t lo = n * m / uS;
    const std::size_t hi = n * (m + 1) / uS;
    auto split = input.subspan(lo, hi - lo);

    auto mapper = spec.mapper();
    Context ctx;
    mapper->setup(ctx);
    double in_bytes = 0.0;
    for (const KV& rec : split) {
      in_bytes += static_cast<double>(rec.bytes());
      mapper->map(rec.key, rec.value, ctx);
    }
    mapper->cleanup(ctx);

    OptMapOutput& out = map_out[m];
    out.arena = ctx.take_batch();
    out.emit_records = static_cast<std::int64_t>(out.arena.size());
    out.emit_bytes = static_cast<std::int64_t>(out.arena.total_bytes());
    out.arena_chunks = out.arena.chunks_allocated();
    out.profile.input_records = static_cast<std::int64_t>(split.size());
    out.profile.input_bytes = in_bytes;

    // Partition entries (not records) and account shuffle bytes in the same
    // pass — the reference path re-walks every record for the byte totals.
    // Each entry's slot is computed once into `slot`, counted, and the
    // partition lists reserved exactly: no growth reallocations and no
    // second hash pass.
    const auto entries = out.arena.entries();
    std::vector<std::uint32_t> slot(entries.size());
    std::vector<std::size_t> counts(uR, 0);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const std::string_view key = entries[i].key();
      const int p = custom_partitioner ? partition(key, R) : default_partition(key, R);
      if (p < 0 || p >= R) throw std::out_of_range("partitioner returned out-of-range index");
      slot[i] = static_cast<std::uint32_t>(p);
      ++counts[static_cast<std::size_t>(p)];
    }
    out.parts.assign(uR, {});
    out.part_bytes.assign(uR, 0.0);
    for (std::size_t r = 0; r < uR; ++r) out.parts[r].reserve(counts[r]);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      out.parts[slot[i]].push_back(entries[i]);
      out.part_bytes[slot[i]] += static_cast<double>(entries[i].bytes());
    }
    out.spill.assign(uR, {});
    if (spec.config.use_combiner) out.combined.resize(uR);
    for (std::size_t p = 0; p < uR; ++p) {
      if (counts[p] > kSortParallelThreshold) {
        out.deferred.push_back(p);
      } else {
        spill_partition(spec, out, p, /*sorted=*/false, pool);
      }
    }
  });

  // Deferred spills: each sort runs at top level on the whole pool, then
  // their combiners (with the re-sorts) run together in one batch.
  std::vector<std::pair<std::size_t, std::size_t>> deferred;  // (m, p)
  for (std::size_t m = 0; m < uS; ++m) {
    for (const std::size_t p : map_out[m].deferred) deferred.emplace_back(m, p);
  }
  for (const auto& [m, p] : deferred) {
    auto& part = map_out[m].parts[p];
    map_out[m].spill[p].comparisons =
        parallel_sort_entries(part.data(), part.size(), kSortParallelThreshold, pool);
  }
  if (spec.config.use_combiner) {
    pool.parallel_for(deferred.size(), [&](std::size_t d) {
      const auto [m, p] = deferred[d];
      spill_partition(spec, map_out[m], p, /*sorted=*/true, pool);
    });
  }

  // --- shuffle accounting, map profiles and counters ------------------------
  // Byte totals were accumulated during partitioning (or by the combiner).
  // Every addend is an integer-valued double below 2^53, so these sums
  // equal the reference path's per-record sums exactly.
  JobResult result;
  result.shuffle_matrix.assign(uS, std::vector<double>(uR, 0.0));
  for (std::size_t m = 0; m < uS; ++m) {
    OptMapOutput& out = map_out[m];
    for (std::size_t r = 0; r < uR; ++r) {
      result.shuffle_matrix[m][r] = out.part_bytes[r];
      result.total_shuffle_bytes += out.part_bytes[r];
      out.profile.output_records += static_cast<std::int64_t>(out.parts[r].size());
      out.profile.output_bytes += out.part_bytes[r];
      out.sort_comparisons += out.spill[r].comparisons;
      out.arena_chunks += out.spill[r].combiner_chunks;
    }
    out.profile.cpu_seconds =
        modeled_cpu(spec.config.cost, out.profile.input_records, out.profile.input_bytes,
                    out.profile.output_records, out.profile.output_bytes, /*is_map=*/true);
  }

  // --- reduce side: merge, reduce ------------------------------------------
  // True k-way merge of the per-map sorted runs; ties resolve to the earlier
  // map then within-run order, which is exactly the order the reference
  // path's stable sort of the concatenation produces. A merge over more
  // than kMergeRangeSplitMin entries runs first, at top level, so the
  // prefix-range parallel merge can use the pool; then one batch runs each
  // reduce task's small merge (if it has one) followed by its reducer.
  std::vector<std::size_t> reduce_total(uR, 0);
  for (std::size_t r = 0; r < uR; ++r) {
    for (std::size_t m = 0; m < uS; ++m) reduce_total[r] += map_out[m].parts[r].size();
  }
  std::vector<std::vector<KVBatch::Entry>> merged(uR);
  std::vector<TaskProfile> reduce_profiles(uR);
  std::vector<std::int64_t> merge_comparisons(uR, 0);
  auto merge_one = [&](std::size_t r) {
    TaskProfile& prof = reduce_profiles[r];
    std::vector<std::span<const KVBatch::Entry>> runs;
    runs.reserve(uS);
    for (std::size_t m = 0; m < uS; ++m) {
      const auto& part = map_out[m].parts[r];
      prof.input_records += static_cast<std::int64_t>(part.size());
      prof.input_bytes += map_out[m].part_bytes[r];
      runs.push_back(part);
    }
    merge_comparisons[r] = parallel_merge_runs(runs, merged[r], kMergeRangeSplitMin, pool);
    // The per-map runs for this reduce are dead now; release them so the
    // peak footprint is merged + arenas, not 2x the entry arrays.
    for (std::size_t m = 0; m < uS; ++m) {
      auto& part = map_out[m].parts[r];
      part.clear();
      part.shrink_to_fit();
    }
  };
  for (std::size_t r = 0; r < uR; ++r) {
    if (reduce_total[r] > kMergeRangeSplitMin) merge_one(r);
  }
  std::vector<std::vector<KV>> reduce_out(uR);
  pool.parallel_for(uR, [&](std::size_t r) {
    if (reduce_total[r] <= kMergeRangeSplitMin) merge_one(r);
    TaskProfile& prof = reduce_profiles[r];
    auto reducer = spec.reducer();
    Context ctx;
    // Reduce output becomes JobResult::output (owning strings): materialize
    // directly rather than round-tripping every record through an arena.
    ctx.materialize_direct();
    ctx.reserve(merged[r].size());
    reduce_entries_into(*reducer, merged[r], ctx);
    reduce_out[r] = ctx.take_output();
    for (const KV& rec : reduce_out[r]) {
      ++prof.output_records;
      prof.output_bytes += static_cast<double>(rec.bytes());
    }
    prof.cpu_seconds = modeled_cpu(spec.config.cost, prof.input_records, prof.input_bytes,
                                   prof.output_records, prof.output_bytes, /*is_map=*/false);
  });

  // Aggregate stats sequentially so the totals are deterministic.
  for (const OptMapOutput& m : map_out) {
    result.map_profiles.push_back(m.profile);
    result.stats.map_emit_records += m.emit_records;
    result.stats.map_emit_bytes += m.emit_bytes;
    result.stats.sort_comparisons += m.sort_comparisons;
    result.stats.arena_chunks += m.arena_chunks;
  }
  for (std::size_t r = 0; r < uR; ++r) {
    result.stats.shuffle_records += reduce_profiles[r].input_records;
    result.stats.merge_comparisons += merge_comparisons[r];
  }
  result.reduce_profiles = std::move(reduce_profiles);
  for (auto& part : reduce_out) {
    result.output.insert(result.output.end(), std::make_move_iterator(part.begin()),
                         std::make_move_iterator(part.end()));
  }
  return result;
}

JobResult LocalJobRunner::run_reference(const JobSpec& spec, std::span<const KV> input,
                                        int num_splits) const {
  const int R = spec.config.num_reduces;
  const int S = clamp_splits(num_splits, threads_, input.size());
  const Partitioner partition = effective_partitioner(spec);

  // --- map phase -----------------------------------------------------------
  std::vector<MapTaskOutput> map_out(static_cast<std::size_t>(S));
  const std::size_t n = input.size();
  pool_->parallel_for(static_cast<std::size_t>(S), [&](std::size_t m) {
    const std::size_t lo = n * m / static_cast<std::size_t>(S);
    const std::size_t hi = n * (m + 1) / static_cast<std::size_t>(S);
    auto split = input.subspan(lo, hi - lo);

    auto mapper = spec.mapper();
    Context ctx;
    mapper->setup(ctx);
    double in_bytes = 0.0;
    for (const KV& rec : split) {
      in_bytes += static_cast<double>(rec.bytes());
      mapper->map(rec.key, rec.value, ctx);
    }
    mapper->cleanup(ctx);
    MapTaskOutput& out = map_out[m];
    out.emit_records = static_cast<std::int64_t>(ctx.emitted_records());
    out.emit_bytes = static_cast<std::int64_t>(ctx.emitted_bytes());
    std::vector<KV> emitted = ctx.take_output();

    out.profile.input_records = static_cast<std::int64_t>(split.size());
    out.profile.input_bytes = in_bytes;

    // Partition, sort, optionally combine — the in-memory spill path.
    out.partitions.assign(static_cast<std::size_t>(R), {});
    for (KV& rec : emitted) {
      const int p = partition(rec.key, R);
      if (p < 0 || p >= R) throw std::out_of_range("partitioner returned out-of-range index");
      out.partitions[static_cast<std::size_t>(p)].push_back(std::move(rec));
    }
    for (auto& part : out.partitions) {
      sort_by_key(part);
      if (spec.config.use_combiner && !part.empty()) {
        auto combiner = spec.combiner();
        part = reduce_sorted(*combiner, part);
        sort_by_key(part);  // combiner may emit in any order
      }
      for (const KV& rec : part) {
        ++out.profile.output_records;
        out.profile.output_bytes += static_cast<double>(rec.bytes());
      }
    }
    out.profile.cpu_seconds =
        modeled_cpu(spec.config.cost, out.profile.input_records, out.profile.input_bytes,
                    out.profile.output_records, out.profile.output_bytes, /*is_map=*/true);
  });

  // --- shuffle accounting --------------------------------------------------
  JobResult result;
  result.shuffle_matrix.assign(static_cast<std::size_t>(S),
                               std::vector<double>(static_cast<std::size_t>(R), 0.0));
  for (int m = 0; m < S; ++m) {
    for (int r = 0; r < R; ++r) {
      double bytes = 0.0;
      for (const KV& rec : map_out[static_cast<std::size_t>(m)].partitions[static_cast<std::size_t>(r)]) {
        bytes += static_cast<double>(rec.bytes());
      }
      result.shuffle_matrix[static_cast<std::size_t>(m)][static_cast<std::size_t>(r)] = bytes;
      result.total_shuffle_bytes += bytes;
    }
  }

  // --- reduce phase --------------------------------------------------------
  std::vector<std::vector<KV>> reduce_out(static_cast<std::size_t>(R));
  std::vector<TaskProfile> reduce_profiles(static_cast<std::size_t>(R));
  pool_->parallel_for(static_cast<std::size_t>(R), [&](std::size_t r) {
    // Merge the sorted segments from every map (Hadoop's merge phase);
    // segments are already sorted so a stable sort of the concatenation is
    // equivalent to the k-way merge.
    std::vector<KV> merged;
    TaskProfile& prof = reduce_profiles[r];
    for (int m = 0; m < S; ++m) {
      const auto& part = map_out[static_cast<std::size_t>(m)].partitions[r];
      prof.input_records += static_cast<std::int64_t>(part.size());
      for (const KV& rec : part) prof.input_bytes += static_cast<double>(rec.bytes());
      merged.insert(merged.end(), part.begin(), part.end());
    }
    sort_by_key(merged);

    auto reducer = spec.reducer();
    reduce_out[r] = reduce_sorted(*reducer, merged);
    for (const KV& rec : reduce_out[r]) {
      ++prof.output_records;
      prof.output_bytes += static_cast<double>(rec.bytes());
    }
    prof.cpu_seconds = modeled_cpu(spec.config.cost, prof.input_records, prof.input_bytes,
                                   prof.output_records, prof.output_bytes, /*is_map=*/false);
  });

  // Mode-independent stats only: the reference path has no entry sorts,
  // k-way merge, or arenas to count (DataPathStats doc in job.hpp).
  for (const MapTaskOutput& m : map_out) {
    result.map_profiles.push_back(m.profile);
    result.stats.map_emit_records += m.emit_records;
    result.stats.map_emit_bytes += m.emit_bytes;
  }
  for (const TaskProfile& prof : reduce_profiles) {
    result.stats.shuffle_records += prof.input_records;
  }
  result.reduce_profiles = std::move(reduce_profiles);
  for (auto& part : reduce_out) {
    result.output.insert(result.output.end(), std::make_move_iterator(part.begin()),
                         std::make_move_iterator(part.end()));
  }
  return result;
}

}  // namespace vhadoop::mapreduce
