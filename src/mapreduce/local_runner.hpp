#pragma once

#include <memory>
#include <span>
#include <vector>

#include "mapreduce/hadoop_config.hpp"
#include "mapreduce/job.hpp"

namespace vhadoop::mapreduce {

class WorkerPool;

/// The *logical* MapReduce engine: really executes user Mapper/Combiner/
/// Reducer code, multi-threaded, with Hadoop's dataflow — split, map,
/// hash-partition, sort, combine, shuffle, merge, group, reduce. It
/// produces (a) the job's real output and (b) per-task profiles (records,
/// bytes, modeled CPU cost) that the simulated virtual cluster replays for
/// timing. Correctness is real; only wall-clock is modeled.
///
/// Two execution paths produce byte-identical results (DESIGN.md §11):
///  - optimized (default): one pipeline for jobs of every size, one
///    map-side and one reduce-side batch on the runner's persistent
///    WorkerPool — arena-backed KVBatch records, index sorts that compare an
///    8-byte key prefix first, a true k-way merge feeding reducers, shuffle
///    bytes accounted during partitioning (DESIGN.md §15);
///  - reference oracle (`VHADOOP_RUNNER_REFERENCE=1`, or the two-argument
///    constructor): the original std::vector<KV> path — partition moves,
///    stable_sort, concatenate-and-re-sort merge — on the same pool, one
///    batch per side.
/// The equivalence suite (tests/mapreduce/runner_equivalence_test.cpp) and
/// bench/ml_scaling assert outputs, profiles and shuffle accounting match
/// exactly.
class LocalJobRunner {
 public:
  /// Reference-oracle mode defaults to the VHADOOP_RUNNER_REFERENCE
  /// environment switch (mirroring VHADOOP_FLUID_REFERENCE): unset, empty
  /// or 0 is off, 1 is on, anything else throws std::invalid_argument.
  explicit LocalJobRunner(unsigned threads = 0);
  LocalJobRunner(unsigned threads, bool reference);
  LocalJobRunner(unsigned threads, const RunnerTuning& tuning);
  LocalJobRunner(unsigned threads, bool reference, const RunnerTuning& tuning);
  ~LocalJobRunner();
  LocalJobRunner(LocalJobRunner&&) noexcept;
  LocalJobRunner& operator=(LocalJobRunner&&) noexcept;

  /// Run `spec` over `input`, cut into `num_splits` contiguous splits
  /// (one map task per split — Hadoop's FileInputFormat over block-aligned
  /// splits). num_splits <= 0 derives one split per thread.
  ///
  /// `run` is const but not safe for *concurrent* calls on one runner: all
  /// calls share the runner's persistent worker pool. Use one runner per
  /// thread (they are cheap until the first parallel batch).
  JobResult run(const JobSpec& spec, std::span<const KV> input, int num_splits) const;

  unsigned threads() const { return threads_; }
  bool reference() const { return reference_; }
  const RunnerTuning& tuning() const { return tuning_; }

  /// The runner's persistent worker pool (threads start lazily on the first
  /// batch that can use them). Callers run their own parallel passes on it
  /// (ml::assign_nearest) instead of spawning threads.
  WorkerPool& pool() const { return *pool_; }

 private:
  JobResult run_optimized(const JobSpec& spec, std::span<const KV> input, int num_splits) const;
  JobResult run_reference(const JobSpec& spec, std::span<const KV> input, int num_splits) const;

  unsigned threads_;
  bool reference_;
  RunnerTuning tuning_;
  std::unique_ptr<WorkerPool> pool_;
};

/// Group a key-sorted run of records and feed them to `reducer`. Exposed
/// for reuse by the reference-path combiner stage and by tests.
std::vector<KV> reduce_sorted(Reducer& reducer, std::span<const KV> sorted);

/// Stable sort by key (ties keep input order, like Hadoop's stable merge).
void sort_by_key(std::vector<KV>& records);

}  // namespace vhadoop::mapreduce
