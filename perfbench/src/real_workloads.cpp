// The two real data-path workloads: local_wordcount (the paper's Wordcount
// over a 64 MiB corpus, where partition, spill sort, merge and reduce do the
// work) and ml_clustering (the six clustering drivers in a closed loop of
// small iterative jobs, where per-job fixed cost and worker wake-up do).
//
// Neither calls the simulator. The reference oracle is the runner's own
// std::vector<KV> path (VHADOOP_RUNNER_REFERENCE=1), which must produce the
// same outputs, profiles and mode-independent counters.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "mapreduce/local_runner.hpp"
#include "mapreduce/thread_pool.hpp"
#include "ml/canopy.hpp"
#include "ml/dirichlet.hpp"
#include "ml/fuzzy_kmeans.hpp"
#include "ml/kmeans.hpp"
#include "ml/meanshift.hpp"
#include "ml/minhash.hpp"
#include "workloads.hpp"
#include "workloads/text_corpus.hpp"
#include "workloads/wordcount.hpp"

namespace perfbench {
namespace {

using namespace vhadoop;
using mapreduce::JobResult;

/// Set-up repetitions per run: a cold Wordcount set-up takes seconds, a
/// clustering round milliseconds, so the latter affords a steadier median.
/// The Wordcount set-ups spread over the run (the speed of a shared host
/// changes over seconds), each followed by its share of the timed jobs.
constexpr int kWordcountSetups = 4;
constexpr int kClusteringSetups = 21;

/// Checks of a set of jobs. `mode_independent` holds the job's results,
/// which stored expectations and the reference oracle pin. The comparison
/// and arena counters measure how the optimized path did the work; an
/// optimisation may change them, so they only have to repeat within a run.
struct JobChecks {
  Checks mode_independent;
  Checks optimized;
};

/// Fold a job's output records, task profiles and shuffle matrix into the
/// digests.
void digest_job(const JobResult& r, Digest& output, Digest& profiles) {
  for (const mapreduce::KV& kv : r.output) {
    output.add(kv.key);
    output.add(kv.value);
  }
  for (const auto* list : {&r.map_profiles, &r.reduce_profiles}) {
    for (const mapreduce::TaskProfile& p : *list) {
      profiles.add(p.input_bytes);
      profiles.add(p.input_records);
      profiles.add(p.output_bytes);
      profiles.add(p.output_records);
      profiles.add(p.cpu_seconds);
    }
  }
  for (const auto& row : r.shuffle_matrix) {
    for (const double bytes : row) profiles.add(bytes);
  }
}

/// Sums of the data-path counters over a set of jobs.
struct PathCounts {
  double emit_records = 0.0;
  double emit_bytes = 0.0;
  double shuffle_records = 0.0;
  double shuffle_bytes = 0.0;
  double sort_comparisons = 0.0;
  double merge_comparisons = 0.0;
  double arena_chunks = 0.0;

  void add(const JobResult& r) {
    emit_records += static_cast<double>(r.stats.map_emit_records);
    emit_bytes += static_cast<double>(r.stats.map_emit_bytes);
    shuffle_records += static_cast<double>(r.stats.shuffle_records);
    shuffle_bytes += r.total_shuffle_bytes;
    sort_comparisons += static_cast<double>(r.stats.sort_comparisons);
    merge_comparisons += static_cast<double>(r.stats.merge_comparisons);
    arena_chunks += static_cast<double>(r.stats.arena_chunks);
  }
};

/// Exact checks of a set of jobs under `prefix`.
JobChecks check_jobs(const std::string& prefix, const std::vector<const JobResult*>& jobs) {
  Digest output, profiles;
  PathCounts counts;
  double records = 0.0;
  for (const JobResult* r : jobs) {
    digest_job(*r, output, profiles);
    counts.add(*r);
    records += static_cast<double>(r->output.size());
  }
  JobChecks c;
  c.mode_independent.put(prefix + "output_digest", output.hex());
  c.mode_independent.put(prefix + "output_records", records);
  c.mode_independent.put(prefix + "profile_digest", profiles.hex());
  c.mode_independent.put(prefix + "map_emit_records", counts.emit_records);
  c.mode_independent.put(prefix + "map_emit_bytes", counts.emit_bytes);
  c.mode_independent.put(prefix + "shuffle_records", counts.shuffle_records);
  c.mode_independent.put(prefix + "shuffle_bytes", counts.shuffle_bytes);
  c.optimized.put(prefix + "sort_comparisons", counts.sort_comparisons);
  c.optimized.put(prefix + "merge_comparisons", counts.merge_comparisons);
  c.optimized.put(prefix + "arena_chunks", counts.arena_chunks);
  return c;
}

bool matches(Expectation& expect, const JobChecks& c) {
  const bool a = expect.matches(c.mode_independent);
  const bool b = expect.repeats(c.optimized);
  return a && b;
}

/// Round trip of WorkerPool batches that need every thread: one index per
/// thread, each waiting until all have joined, so a batch ends only when
/// every worker has woken up and claimed its index. (An empty batch would
/// mostly be finished by the caller alone before any worker wakes.)
void pool_roundtrips(unsigned threads, Outcome& out) {
  mapreduce::WorkerPool pool(threads);
  const std::size_t n = pool.threads();
  constexpr int kWarm = 100;  // starts the workers
  std::vector<double> us;
  us.reserve(5000);
  for (int i = 0; i < kWarm + 5000; ++i) {
    std::atomic<std::size_t> joined{0};
    const auto t0 = Clock::now();
    pool.parallel_for(n, [&](std::size_t) {
      joined.fetch_add(1);
      // Bounded, so a pool that never wakes a worker cannot hang the run.
      const auto give_up = Clock::now() + std::chrono::milliseconds(100);
      while (joined.load() < n && Clock::now() < give_up) {
      }
    });
    if (i >= kWarm) us.push_back(1e6 * seconds_since(t0));
  }
  out.layers["mr.local.pool_roundtrip_us_p50"] = {quantile(us, 0.50), "us"};
  out.layers["mr.local.pool_roundtrip_us_p99"] = {quantile(us, 0.99), "us"};
}

// --- local_wordcount ---------------------------------------------------------

struct CorpusShape {
  double mib;
  int splits;
};

CorpusShape corpus_shape(Size size) {
  return size == Size::Full ? CorpusShape{64.0, 64} : CorpusShape{4.0, 16};
}

constexpr int kWordcountReduces = 8;

std::vector<mapreduce::KV> make_corpus(const Options& opt) {
  const workloads::TextCorpus corpus(20000, 1.0, opt.seed);
  return corpus.generate(corpus_shape(opt.size).mib * sim::kMiB);
}

/// Host-time spans of a job's user code, recorded by the decorators below
/// at the setup()/cleanup() boundaries of each task.
class PhaseLog {
 public:
  struct Span {
    Clock::time_point start;
    Clock::time_point end;
  };
  void add(bool map, Span span) {
    const std::scoped_lock lock(m_);
    (map ? maps_ : reduces_).push_back(span);
  }
  std::vector<Span> maps() const {
    const std::scoped_lock lock(m_);
    return maps_;
  }
  std::vector<Span> reduces() const {
    const std::scoped_lock lock(m_);
    return reduces_;
  }

 private:
  mutable std::mutex m_;
  std::vector<Span> maps_;
  std::vector<Span> reduces_;
};

class TimedMapper : public mapreduce::Mapper {
 public:
  TimedMapper(std::unique_ptr<mapreduce::Mapper> inner, PhaseLog& log)
      : inner_(std::move(inner)), log_(log) {}
  void setup(mapreduce::Context& ctx) override {
    start_ = Clock::now();
    inner_->setup(ctx);
  }
  void map(std::string_view key, std::string_view value, mapreduce::Context& ctx) override {
    inner_->map(key, value, ctx);
  }
  void cleanup(mapreduce::Context& ctx) override {
    inner_->cleanup(ctx);
    log_.add(true, {start_, Clock::now()});
  }

 private:
  std::unique_ptr<mapreduce::Mapper> inner_;
  PhaseLog& log_;
  Clock::time_point start_{};
};

class TimedReducer : public mapreduce::Reducer {
 public:
  TimedReducer(std::unique_ptr<mapreduce::Reducer> inner, PhaseLog& log)
      : inner_(std::move(inner)), log_(log) {}
  void setup(mapreduce::Context& ctx) override {
    start_ = Clock::now();
    inner_->setup(ctx);
  }
  void reduce(std::string_view key, const std::vector<std::string_view>& values,
              mapreduce::Context& ctx) override {
    inner_->reduce(key, values, ctx);
  }
  void cleanup(mapreduce::Context& ctx) override {
    inner_->cleanup(ctx);
    log_.add(false, {start_, Clock::now()});
  }

 private:
  std::unique_ptr<mapreduce::Reducer> inner_;
  PhaseLog& log_;
  Clock::time_point start_{};
};

mapreduce::JobSpec timed_spec(const mapreduce::JobSpec& base, PhaseLog& log) {
  mapreduce::JobSpec spec = base;
  spec.mapper = [inner = base.mapper, &log] {
    return std::make_unique<TimedMapper>(inner(), log);
  };
  spec.reducer = [inner = base.reducer, &log] {
    return std::make_unique<TimedReducer>(inner(), log);
  };
  return spec;
}

/// Phase spans of one traced job (seconds).
struct Phases {
  double map_phase = 0.0;
  double between = 0.0;
  double reduce_phase = 0.0;
  double map_task_max = 0.0;
  double reduce_task_max = 0.0;
};

Phases phases_of(const PhaseLog& log) {
  auto secs = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  const auto maps = log.maps();
  const auto reduces = log.reduces();
  Phases p;
  if (maps.empty() || reduces.empty()) return p;
  auto first_start = [](const std::vector<PhaseLog::Span>& v) {
    return std::min_element(v.begin(), v.end(), [](const auto& a, const auto& b) {
             return a.start < b.start;
           })->start;
  };
  auto last_end = [](const std::vector<PhaseLog::Span>& v) {
    return std::max_element(v.begin(), v.end(), [](const auto& a, const auto& b) {
             return a.end < b.end;
           })->end;
  };
  p.map_phase = secs(first_start(maps), last_end(maps));
  p.between = secs(last_end(maps), first_start(reduces));
  p.reduce_phase = secs(first_start(reduces), last_end(reduces));
  for (const auto& s : maps) p.map_task_max = std::max(p.map_task_max, secs(s.start, s.end));
  for (const auto& s : reduces) {
    p.reduce_task_max = std::max(p.reduce_task_max, secs(s.start, s.end));
  }
  return p;
}

// --- ml_clustering -----------------------------------------------------------

/// One clustering driver at the ml_scaling --quick shape (MinHash cut to
/// 10 000 points so that no driver dominates a round).
struct Driver {
  const char* name;  ///< metric stem: ml.<name>_ms
  int points;        ///< dataset size at Size::Full
  std::function<ml::Dataset(int points, std::uint64_t seed)> data;
  std::function<ml::ClusteringRun(const ml::Dataset&, unsigned threads)> run;
};

std::vector<Driver> drivers() {
  const auto control = [](int points, std::uint64_t seed) {
    return ml::synthetic_control(points / 6, 60, seed);
  };
  const auto display = [](int points, std::uint64_t seed) {
    return ml::display_clustering_samples(points, seed);
  };
  return {
      {"kmeans", 600, control,
       [](const ml::Dataset& d, unsigned threads) {
         ml::KMeansConfig c;
         c.k = 6;
         c.base.num_splits = 8;
         c.base.num_reduces = 2;
         c.base.threads = threads;
         return ml::kmeans_cluster(d, c);
       }},
      {"fuzzy_kmeans", 600, control,
       [](const ml::Dataset& d, unsigned threads) {
         ml::FuzzyKMeansConfig c;
         c.k = 6;
         c.base.num_splits = 8;
         c.base.num_reduces = 2;
         c.base.max_iterations = 5;
         c.base.threads = threads;
         return ml::fuzzy_kmeans_cluster(d, c);
       }},
      {"canopy", 4000, display,
       [](const ml::Dataset& d, unsigned threads) {
         ml::CanopyConfig c;
         c.base.num_splits = 8;
         c.base.threads = threads;
         return ml::canopy_cluster(d, c);
       }},
      {"dirichlet", 300, control,
       [](const ml::Dataset& d, unsigned threads) {
         ml::DirichletConfig c;
         c.k = 10;
         c.base.num_splits = 8;
         c.base.max_iterations = 5;
         c.base.threads = threads;
         return ml::ClusteringRun(ml::dirichlet_cluster(d, c));  // moves the base part
       }},
      {"meanshift", 1500, display,
       [](const ml::Dataset& d, unsigned threads) {
         ml::MeanShiftConfig c;
         c.base.num_splits = 8;
         c.base.max_iterations = 5;
         c.base.threads = threads;
         return ml::meanshift_cluster(d, c);
       }},
      {"minhash", 10000, display,
       [](const ml::Dataset& d, unsigned threads) {
         ml::MinHashConfig c;
         c.num_hash_functions = 2;
         c.keygroups = 1;
         c.base.num_splits = 8;
         c.base.num_reduces = 4;
         c.base.threads = threads;
         return ml::ClusteringRun(ml::minhash_cluster(d, c));  // moves the base part
       }},
  };
}

/// Exact checks of one driver call: the model and every job it ran.
JobChecks check_call(const std::string& name, const ml::ClusteringRun& run) {
  std::vector<const JobResult*> jobs;
  for (const JobResult& j : run.jobs) jobs.push_back(&j);
  JobChecks c = check_jobs(name + ".", jobs);
  Digest model;
  for (const ml::Vec& center : run.centers) {
    for (const double x : center) model.add(x);
  }
  for (const int a : run.assignments) model.add(static_cast<std::int64_t>(a));
  c.mode_independent.put(name + ".model_digest", model.hex());
  c.mode_independent.put(name + ".iterations", run.iterations);
  c.mode_independent.put(name + ".jobs", static_cast<double>(run.jobs.size()));
  return c;
}

}  // namespace

Outcome run_local_wordcount(const Options& opt, Expectation& expect) {
  Outcome out;
  const int splits = corpus_shape(opt.size).splits;
  const mapreduce::JobSpec spec = workloads::wordcount_job(kWordcountReduces);

  if (opt.oracle) {
    const auto corpus = make_corpus(opt);
    const mapreduce::LocalJobRunner reference(opt.threads, /*reference=*/true);
    const JobResult r = reference.run(spec, corpus, splits);
    out.oracle = check_jobs("", {&r}).mode_independent;
    return out;
  }

  std::vector<mapreduce::KV> corpus;
  std::unique_ptr<mapreduce::LocalJobRunner> runner;
  std::vector<double> setup;
  std::vector<double> run_s, traced_s;
  std::vector<Phases> phases;
  PathCounts counts;
  double measured = 0.0;
  while (run_s.size() < 3 || measured < opt.seconds || setup.size() < kWordcountSetups) {
    if (setup.size() < kWordcountSetups &&
        measured >= opt.seconds * static_cast<double>(setup.size()) / kWordcountSetups) {
      // Set-up: input generation, a fresh runner and its first (cold) job;
      // the timed jobs that follow run back to back on that runner.
      corpus.clear();
      corpus.shrink_to_fit();
      runner.reset();
      const auto t0 = Clock::now();
      corpus = make_corpus(opt);
      runner = std::make_unique<mapreduce::LocalJobRunner>(opt.threads, /*reference=*/false);
      const JobResult cold = runner->run(spec, corpus, splits);
      setup.push_back(seconds_since(t0));
      if (!matches(expect, check_jobs("", {&cold}))) ++out.setup_failed;
    }
    for (const bool traced : {false, true}) {
      if (traced && !opt.trace) continue;
      PhaseLog log;
      const mapreduce::JobSpec job = traced ? timed_spec(spec, log) : spec;
      const auto t0 = Clock::now();
      const JobResult r = runner->run(job, corpus, splits);
      const double s = seconds_since(t0);
      ++out.attempted;
      if (!matches(expect, check_jobs("", {&r}))) ++out.failed;
      measured += s;
      if (traced) {
        traced_s.push_back(s);
        phases.push_back(phases_of(log));
      } else {
        run_s.push_back(s);
        if (run_s.size() == 1) counts.add(r);
      }
    }
  }
  out.setup_s = median(setup);
  out.wall_s = median(run_s);

  out.layers["mr.local.run_s"] = {out.wall_s, "s"};
  out.layers["mr.local.records_per_s"] = {counts.emit_records / out.wall_s, "1/s"};
  out.layers["mr.local.map_emit_records"] = {counts.emit_records, "count"};
  out.layers["mr.local.shuffle_records"] = {counts.shuffle_records, "count"};
  out.layers["mr.local.shuffle_bytes"] = {counts.shuffle_bytes, "B"};
  out.layers["mr.local.sort_comparisons"] = {counts.sort_comparisons, "count"};
  out.layers["mr.local.merge_comparisons"] = {counts.merge_comparisons, "count"};
  out.layers["mr.local.arena_chunks"] = {counts.arena_chunks, "count"};
  if (!opt.trace) return out;

  auto med = [&](double Phases::*field) {
    std::vector<double> v;
    for (const Phases& p : phases) v.push_back(p.*field);
    return median(v);
  };
  out.layers["mr.local.map_phase_s"] = {med(&Phases::map_phase), "s"};
  out.layers["mr.local.between_phases_s"] = {med(&Phases::between), "s"};
  out.layers["mr.local.reduce_phase_s"] = {med(&Phases::reduce_phase), "s"};
  out.layers["mr.local.map_task_s_max"] = {med(&Phases::map_task_max), "s"};
  out.layers["mr.local.reduce_task_s_max"] = {med(&Phases::reduce_task_max), "s"};
  out.layers["trace_overhead_ratio"] = {median(traced_s) / out.wall_s, "ratio"};
  pool_roundtrips(opt.threads, out);

  // The ml layer rides along here: a short closed loop of the clustering
  // drivers after the timed jobs (ml_clustering on its own is outside the
  // benchmark; README.md says why). Its outputs must repeat within the loop.
  Options probe = opt;
  probe.seconds = 2.0;
  probe.trace = false;
  Expectation repeats(/*strict=*/false);
  const Outcome ml = run_ml_clustering(probe, repeats);
  out.setup_failed += ml.failed + ml.setup_failed;
  for (const auto& [name, metric] : ml.layers) {
    if (name.rfind("ml.", 0) == 0) out.layers[name] = metric;
  }
  return out;
}

Outcome run_ml_clustering(const Options& opt, Expectation& expect) {
  Outcome out;
  const std::vector<Driver> all = drivers();
  auto points = [&](const Driver& d) { return opt.size == Size::Full ? d.points : d.points / 5; };

  if (opt.oracle) {
    setenv("VHADOOP_RUNNER_REFERENCE", "1", 1);
    for (const Driver& d : all) {
      const ml::ClusteringRun run = d.run(d.data(points(d), opt.seed), opt.threads);
      const JobChecks c = check_call(d.name, run);
      for (const auto& [key, value] : c.mode_independent.values()) out.oracle.put(key, value);
    }
    setenv("VHADOOP_RUNNER_REFERENCE", "0", 1);
    return out;
  }

  // Set-up: dataset generation and one cold round of every driver.
  std::vector<ml::Dataset> data;
  std::vector<double> setup;
  for (int i = 0; i < kClusteringSetups; ++i) {
    data.clear();
    const auto t0 = Clock::now();
    for (const Driver& d : all) data.push_back(d.data(points(d), opt.seed));
    std::vector<ml::ClusteringRun> cold;
    for (std::size_t k = 0; k < all.size(); ++k) cold.push_back(all[k].run(data[k], opt.threads));
    setup.push_back(seconds_since(t0));
    for (std::size_t k = 0; k < all.size(); ++k) {
      if (!matches(expect, check_call(all[k].name, cold[k]))) ++out.setup_failed;
    }
  }
  out.setup_s = median(setup);

  // Closed loop, one caller: the next call starts when the previous returns.
  std::vector<std::vector<double>> call_s(all.size());
  std::vector<double> round_s, traced_round_s;
  double jobs = 0.0, job_time = 0.0;
  PathCounts round_counts;
  double measured = 0.0;
  while (round_s.size() < 3 || measured < opt.seconds) {
    for (const bool traced : {false, true}) {
      if (traced && !opt.trace) continue;
      const bool first_round = round_s.empty() && !traced;
      double round = 0.0;
      for (std::size_t k = 0; k < all.size(); ++k) {
        const auto t0 = Clock::now();
        const ml::ClusteringRun run = all[k].run(data[k], opt.threads);
        const double s = seconds_since(t0);
        round += s;
        ++out.attempted;
        if (!matches(expect, check_call(all[k].name, run))) ++out.failed;
        if (traced) continue;
        call_s[k].push_back(s);
        jobs += static_cast<double>(run.jobs.size());
        job_time += s;
        if (first_round) {
          for (const JobResult& j : run.jobs) round_counts.add(j);
        }
      }
      measured += round;
      (traced ? traced_round_s : round_s).push_back(round);
    }
  }
  out.wall_s = median(round_s);

  for (std::size_t k = 0; k < all.size(); ++k) {
    out.layers[std::string("ml.") + all[k].name + "_ms"] = {1e3 * median(call_s[k]), "ms"};
  }
  out.layers["ml.jobs_per_s"] = {jobs / job_time, "1/s"};
  out.layers["ml.shuffle_records"] = {round_counts.shuffle_records, "count"};
  out.layers["ml.sort_comparisons"] = {round_counts.sort_comparisons, "count"};
  if (!opt.trace) return out;
  // The drivers build their jobs internally, so a traced round runs the same
  // calls; the ratio shows what the traced run itself costs the rounds.
  out.layers["trace_overhead_ratio"] = {median(traced_round_s) / out.wall_s, "ratio"};
  pool_roundtrips(opt.threads, out);
  return out;
}

}  // namespace perfbench
