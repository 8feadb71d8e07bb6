// The two simulator workloads: sim_fabric_512 (three jobs on a 512-VM
// fat-tree cluster, where the fluid solver does most of the work) and
// tenant_day (a 10 000-job multi-tenant day, where event dispatch, scheduler
// heartbeats and admission do).
//
// Every repetition builds a fresh Platform, because a replayed job changes
// HDFS state. Untraced sim_fabric_512 repetitions run each job through
// Platform::run_job. Traced repetitions, and every tenant_day repetition,
// submit work (Platform::submit_job, TraceReplayer::start) and fire events
// with the benchmark's own Engine::step() loop, which fires the same events
// in the same order as Platform::run_job and
// TraceReplayer::run_to_completion. The loop lets traced repetitions time
// every event, and lets a replay notice a simulation whose clock has stopped
// advancing instead of hanging on it.

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/platform.hpp"
#include "net/topology.hpp"
#include "workloads.hpp"
#include "workloads/terasort.hpp"
#include "workloads/trace.hpp"
#include "workloads/trace_replay.hpp"

namespace perfbench {
namespace {

using namespace vhadoop;

/// Registry counters both simulated workloads check exactly and report.
/// The model counters are facts of the simulated cluster: stored
/// expectations and the reference oracle pin them, and no host-side change
/// may move them. The solver counters measure how much work the engine and
/// the fluid solver did to get there; an optimisation may change them, so
/// they are only required to repeat bit for bit within a run.
const char* const kModelCounters[] = {
    "virt.vms_booted",    "hdfs.pipeline_bytes",     "hdfs.reads_local",
    "hdfs.reads_rack_local", "hdfs.reads_remote",    "mr.heartbeats",
    "mr.map_attempts",    "mr.speculative_launched", "mr.locality.node",
    "mr.locality.rack",   "mr.locality.off",         "net.flows_started",
    "net.flows_inter_rack", "net.bytes_requested",
};
const char* const kSolverCounters[] = {
    "sim.events_fired",     "sim.events_cancelled",      "sim.queue_compactions",
    "sim.fluid.recomputes", "sim.fluid.rate_recomputes", "sim.fluid.activities_started",
};

const char* count_unit(const std::string& name) {
  return name.find("bytes") != std::string::npos ? "B" : "count";
}

/// Spans and counts of one simulated repetition.
struct SimRep {
  double body_s = 0.0;
  std::map<std::string, double> spans;   ///< per-layer span name -> seconds
  std::map<std::string, Metric> counts;  ///< exact per-layer counts
  double maps_completed = 0.0;
  double engine_s = 0.0;  ///< time inside calls that run the engine
  std::vector<double> step_s;
  Checks checks;         ///< model checks shared by the repetition's ops
  Checks solver_checks;  ///< solver work counts shared by the repetition's ops
  std::vector<Checks> op_checks;  ///< per-op checks (one per simulated job)
  std::vector<bool> op_failed;    ///< the library reported the op failed
};

/// Read the registry counts of a finished repetition into its checks and
/// per-layer counts.
void read_registry(const obs::Registry& registry, SimRep& rep) {
  auto read = [&](const char* name, Checks& checks) {
    const obs::Counter* c = registry.find_counter(name);
    const double v = c ? c->value() : 0.0;
    checks.put(name, v);
    rep.counts[name] = {v, count_unit(name)};
  };
  for (const char* name : kModelCounters) read(name, rep.checks);
  for (const char* name : kSolverCounters) read(name, rep.solver_checks);
  // The solver's work count: every component solve observes its size.
  const obs::Histogram* sizes = registry.find_histogram("sim.fluid.component_size");
  const double visits = sizes ? sizes->sum() : 0.0;
  const double p95 = sizes ? sizes->percentile(0.95) : 0.0;
  rep.solver_checks.put("sim.fluid.component_visits", visits);
  rep.solver_checks.put("sim.fluid.component_p95", p95);
  rep.counts["sim.fluid.component_visits"] = {visits, "count"};
  rep.counts["sim.fluid.component_p95"] = {p95, "count"};
}

/// What one repetition runs: set-up only (set-up samples), or set-up and
/// body, untraced or traced.
enum class Pass { SetupOnly, Untraced, Traced };

/// setup_s samples. Set-up takes milliseconds here, while the speed of a
/// shared host changes over seconds, so set-ups timed back to back all read
/// one host state. Instead, at every sampling point of the run (after each
/// simulated job of an untraced repetition) the sampler times one set-up
/// (platform teardown included) for each of its samples; a sample is the
/// mean of its set-ups, which spread over the whole run as the bodies do,
/// and setup_s is the median of the samples.
class SetupSampler {
 public:
  static constexpr std::size_t kSamples = 8;

  template <typename SetupFn>
  void sample(SetupFn&& setup) {
    for (double& total : total_s_) {
      const auto t0 = Clock::now();
      setup();
      total += seconds_since(t0);
    }
    ++points_;
  }

  std::vector<double> samples() const {
    std::vector<double> out;
    for (const double total : total_s_) out.push_back(total / std::max(points_, 1));
    return out;
  }

 private:
  std::array<double, kSamples> total_s_{};
  int points_ = 0;
};

/// Called after each simulated job (or replay) of a repetition.
using AfterJob = std::function<void()>;

/// Consecutive events at one simulated instant after which a simulation
/// counts as wedged: far above any real burst (booting 512 VMs fires about
/// a thousand), and reached within seconds by an event that keeps
/// re-arming itself at the current instant.
constexpr std::uint64_t kWedgedEvents = 5'000'000;

/// Fire events until `done()` holds or none is left; with `step_s`, time
/// each one. Returns false when the simulated clock stopped advancing.
template <typename Done>
bool drive(sim::Engine& engine, Done&& done, std::vector<double>* step_s) {
  double last = engine.now();
  std::uint64_t same = 0;
  while (!done()) {
    bool fired = false;
    if (step_s != nullptr) {
      const auto t0 = Clock::now();
      fired = engine.step();
      step_s->push_back(seconds_since(t0));
    } else {
      fired = engine.step();
    }
    if (!fired) return true;
    if (engine.now() > last) {
      last = engine.now();
      same = 0;
    } else if (++same >= kWedgedEvents) {
      std::fprintf(stderr, "vbench: simulated clock stuck at %.17g s for %llu events\n", last,
                   static_cast<unsigned long long>(same));
      return false;
    }
  }
  return true;
}

/// Engine::run(): fire events until none is left. Nothing here schedules
/// daemon events outside a replay, so "none left" is run()'s condition.
bool drain(sim::Engine& engine, std::vector<double>* step_s) {
  return drive(engine, [&engine] { return engine.pending() == 0; }, step_s);
}

/// Switch the fluid solver's reference oracle on or off; FluidModel reads
/// the switch when a Platform is constructed.
void set_fluid_oracle(bool on) {
  setenv("VHADOOP_FLUID_REFERENCE", on ? "1" : "0", 1);
  // Verify every 16th mutation: catches any stale component while keeping
  // the 512-VM oracle run within a few times the incremental cost.
  setenv("VHADOOP_FLUID_VERIFY_EVERY", "16", 1);
}

/// Fold the repetition's checks into failed ops: an op fails when the
/// library reports it failed, its own checks differ, or the checks shared
/// by the repetition differ.
std::int64_t failed_ops(Expectation& expect, const SimRep& rep, std::int64_t ops) {
  const bool model_ok = expect.matches(rep.checks);
  const bool shared_ok = expect.repeats(rep.solver_checks) && model_ok;
  if (rep.op_checks.empty()) {
    const std::int64_t lib_failed =
        std::count(rep.op_failed.begin(), rep.op_failed.end(), true);
    return shared_ok ? lib_failed : ops;
  }
  std::int64_t failed = 0;
  for (std::size_t i = 0; i < rep.op_checks.size(); ++i) {
    const bool ok = expect.matches(rep.op_checks[i]) && !rep.op_failed[i];
    if (!ok || !shared_ok) ++failed;
  }
  return failed;
}

/// Medians over repetitions plus the per-layer report shared by both
/// simulated workloads.
void report_sim(const std::vector<SimRep>& untraced, const std::vector<SimRep>& traced,
                const std::vector<double>& setup, Outcome& out) {
  std::vector<double> body;
  std::map<std::string, std::vector<double>> spans;
  std::vector<double> us_per_event;
  for (const SimRep& r : untraced) {
    body.push_back(r.body_s);
    for (const auto& [name, s] : r.spans) spans[name].push_back(s);
    us_per_event.push_back(1e6 * r.engine_s / r.counts.at("sim.events_fired").value);
  }
  out.setup_s = median(setup);
  out.wall_s = median(body);
  for (const auto& [name, samples] : spans) out.layers[name] = {median(samples), "s"};

  const SimRep& first = untraced.front();
  for (const auto& [name, metric] : first.counts) out.layers[name] = metric;
  out.layers["sim.host_us_per_event"] = {median(us_per_event), "us"};
  const double attempts = first.counts.at("mr.map_attempts").value;
  out.layers["mr.map_useful_ratio"] = {attempts > 0.0 ? first.maps_completed / attempts : 0.0,
                                       "ratio"};
  if (traced.empty()) return;

  std::vector<double> steps, traced_body;
  for (const SimRep& r : traced) {
    steps.insert(steps.end(), r.step_s.begin(), r.step_s.end());
    traced_body.push_back(r.body_s);
  }
  out.layers["sim.step_us_p50"] = {1e6 * quantile(steps, 0.50), "us"};
  out.layers["sim.step_us_p99"] = {1e6 * quantile(steps, 0.99), "us"};
  out.layers["sim.step_top1pct_share"] = {top_share(steps, 0.01), "ratio"};
  out.layers["trace_overhead_ratio"] = {median(traced_body) / out.wall_s, "ratio"};
}

// --- sim_fabric_512 ----------------------------------------------------------

struct FabricShape {
  int vms;
  int hosts;
};

FabricShape fabric_shape(Size size) {
  // ~16 one-GiB VMs per 16-core host, as bench/scale_cluster lays them out.
  return size == Size::Full ? FabricShape{512, 32} : FabricShape{64, 4};
}

constexpr int kHostsPerRack = 2;
constexpr double kBlockBytes = 8 * sim::kMiB;

/// The scale_cluster Wordcount: one CPU-bound map per corpus block and a
/// small shuffle into vms/32 reduces.
mapreduce::SimJobSpec fabric_wordcount(const hdfs::HdfsCluster& hdfs, int reduces) {
  mapreduce::SimJobSpec spec;
  spec.name = "wordcount";
  const int blocks = static_cast<int>(hdfs.blocks("/in/corpus").size());
  for (int b = 0; b < blocks; ++b) {
    spec.maps.push_back({"/in/corpus", b, 0.0, 2.0, 2 * sim::kMiB});
  }
  spec.reduces.assign(static_cast<std::size_t>(reduces), {0.3, sim::kMiB});
  spec.output_path = "/out/wc";
  return spec;
}

SimRep fabric_rep(const Options& opt, Pass pass, const AfterJob& after_job) {
  const FabricShape shape = fabric_shape(opt.size);
  const int reduces = std::max(4, shape.vms / 32);
  SimRep rep;

  core::TestbedConfig testbed;
  testbed.num_hosts = shape.hosts;
  testbed.net.topology.kind = net::TopologyKind::FatTree;
  testbed.net.topology.racks = shape.hosts / kHostsPerRack;
  testbed.net.topology.nodes_per_rack = kHostsPerRack;
  auto platform = std::make_unique<core::Platform>(testbed);

  core::ClusterSpec spec;
  spec.num_workers = shape.vms - 1;
  spec.placement = core::Placement::Spread;
  spec.hdfs.block_size = kBlockBytes;
  spec.seed = opt.seed;
  auto t0 = Clock::now();
  platform->boot_cluster(spec);
  rep.spans["core.boot_s"] = seconds_since(t0);

  const double input_bytes = shape.vms * kBlockBytes;
  t0 = Clock::now();
  platform->upload("/in/corpus", input_bytes);
  rep.spans["hdfs.upload_s"] = seconds_since(t0);
  if (pass == Pass::SetupOnly) return rep;

  workloads::TeraSort tera;
  tera.total_bytes = input_bytes;
  tera.block_size = kBlockBytes;
  tera.num_reduces = reduces;

  const std::pair<const char*, std::function<mapreduce::SimJobSpec()>> jobs[] = {
      {"teragen", [&] { return tera.sim_teragen("/in/tera"); }},
      {"wordcount", [&] { return fabric_wordcount(platform->hdfs(), reduces); }},
      {"terasort", [&] { return tera.sim_terasort("/in/tera", "/out/tera"); }},
  };
  for (const auto& [name, make_spec] : jobs) {
    t0 = Clock::now();
    mapreduce::JobTimeline timeline;
    if (pass == Pass::Untraced) {
      try {
        timeline = platform->run_job(make_spec());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "vbench: %s: %s\n", name, e.what());
        timeline.failed = true;
      }
    } else {
      bool done = false;
      platform->submit_job(make_spec(), [&](const mapreduce::JobTimeline& t) {
        timeline = t;
        done = true;
      });
      const bool advanced = drain(platform->engine(), &rep.step_s);
      timeline.failed = timeline.failed || !done || !advanced;
    }
    const double job_s = seconds_since(t0);
    rep.spans[std::string("mr.") + name + "_s"] = job_s;
    rep.body_s += job_s;
    after_job();
    Checks job;
    job.put(std::string(name) + ".makespan_s", timeline.elapsed());
    rep.op_checks.push_back(std::move(job));
    rep.op_failed.push_back(timeline.failed);
    rep.maps_completed += static_cast<double>(timeline.maps.size());
  }

  rep.engine_s = rep.spans["core.boot_s"] + rep.spans["hdfs.upload_s"] +
                 rep.spans["mr.teragen_s"] + rep.spans["mr.wordcount_s"] +
                 rep.spans["mr.terasort_s"];
  read_registry(platform->metrics(), rep);
  return rep;
}

// --- tenant_day --------------------------------------------------------------

workloads::TraceGenConfig day_config(const Options& opt) {
  workloads::TraceGenConfig gen;  // the 10 000-job, 20-tenant bursty day
  if (opt.size == Size::Small) gen.num_jobs = 1000;  // its first 1 000 jobs
  gen.seed = opt.seed;
  return gen;
}

SimRep day_rep(const Options& opt, Pass pass, const AfterJob& after_job) {
  SimRep rep;
  auto t0 = Clock::now();
  workloads::WorkloadTrace trace = workloads::generate_trace(day_config(opt));
  rep.spans["workloads.trace_gen_s"] = seconds_since(t0);
  const double first_arrival =
      trace.records.empty() ? 0.0 : trace.records.front().arrival_seconds;
  const auto jobs = static_cast<std::int64_t>(trace.records.size());

  // The paper's cluster: 1 namenode + 15 workers on one host.
  auto platform = std::make_unique<core::Platform>();
  core::ClusterSpec spec;
  spec.num_workers = 15;
  spec.placement = core::Placement::Normal;
  spec.hadoop.scheduler = mapreduce::SchedulerPolicy::Deadline;
  spec.seed = opt.seed;
  t0 = Clock::now();
  platform->boot_cluster(spec);
  rep.spans["core.boot_s"] = seconds_since(t0);
  if (pass == Pass::SetupOnly) return rep;

  double last_finish = 0.0;
  workloads::TraceReplayer replayer(
      platform->engine(), platform->metrics(), std::move(trace),
      [&](mapreduce::SimJobSpec job, std::function<void(const mapreduce::JobTimeline&)> done) {
        platform->submit_job(std::move(job), [&, done = std::move(done)](
                                                 const mapreduce::JobTimeline& t) {
          rep.maps_completed += static_cast<double>(t.maps.size());
          last_finish = std::max(last_finish, t.finished);
          done(t);
        });
      });

  sim::Engine& engine = platform->engine();
  const double epoch = engine.now();
  const auto t_body = Clock::now();
  // run_to_completion(): walk to the last arrival, then drain. Firing
  // events until every arrival is in and every job is done, then draining
  // the tail, fires the same events in the same order.
  std::vector<double>* step_times = pass == Pass::Traced ? &rep.step_s : nullptr;
  replayer.start();
  const bool advanced =
      drive(engine, [&replayer] { return replayer.finished(); }, step_times) &&
      drain(engine, step_times);
  const double makespan = last_finish - (epoch + first_arrival);
  rep.body_s = seconds_since(t_body);
  rep.spans["workloads.replay_s"] = rep.body_s;
  rep.engine_s = rep.spans["core.boot_s"] + rep.body_s;
  after_job();

  Digest trace_digest;
  trace_digest.add(replayer.trace().serialize());
  rep.checks.put("trace_digest", trace_digest.hex());
  rep.checks.put("makespan_s", makespan);
  rep.checks.put("slo_missed", replayer.slo_missed());
  rep.checks.put("slo_tracked", replayer.slo_tracked());
  rep.checks.put("p95_latency_s", replayer.latency_percentile(0.95));
  rep.checks.put("accepted", replayer.accepted());
  rep.checks.put("rejected", replayer.rejected());
  rep.checks.put("completed", replayer.completed());
  rep.checks.put("max_submit_skew_s", replayer.max_submit_skew());
  read_registry(platform->metrics(), rep);
  rep.counts["workloads.accepted"] = {static_cast<double>(replayer.accepted()), "count"};
  rep.counts["workloads.rejected"] = {static_cast<double>(replayer.rejected()), "count"};
  rep.counts["workloads.completed"] = {static_cast<double>(replayer.completed()), "count"};
  rep.counts["workloads.max_submit_skew_s"] = {replayer.max_submit_skew(), "s"};
  // A wedged replay fails every job of the day: none has a valid outcome.
  rep.op_failed.assign(static_cast<std::size_t>(jobs), !advanced);
  std::fill_n(rep.op_failed.begin(), std::min<std::int64_t>(replayer.failed(), jobs), true);
  return rep;
}

/// Run a simulated workload: the oracle once, or the measured repetitions.
/// Repetitions go on until their bodies cover `opt.seconds` and there are
/// at least three untraced ones; a traced run alternates untraced and
/// traced repetitions so both see the same host conditions.
template <typename RepFn>
Outcome run_sim(const Options& opt, Expectation& expect, RepFn&& rep_fn,
                std::int64_t ops_per_rep) {
  Outcome out;
  if (opt.oracle) {
    set_fluid_oracle(true);
    const SimRep rep = rep_fn(Pass::Untraced, [] {});
    set_fluid_oracle(false);
    out.oracle = rep.checks;
    for (const Checks& c : rep.op_checks) {
      for (const auto& [key, value] : c.values()) out.oracle.put(key, value);
    }
    return out;
  }
  set_fluid_oracle(false);
  std::vector<SimRep> untraced, traced;
  SetupSampler setup;
  const AfterJob sample_setup = [&] { setup.sample([&] { rep_fn(Pass::SetupOnly, [] {}); }); };
  double measured = 0.0;
  while (untraced.size() < 3 || measured < opt.seconds) {
    untraced.push_back(rep_fn(Pass::Untraced, sample_setup));
    measured += untraced.back().body_s;
    if (!opt.trace) continue;
    traced.push_back(rep_fn(Pass::Traced, [] {}));
    measured += traced.back().body_s;
  }
  for (const std::vector<SimRep>* reps : {&untraced, &traced}) {
    for (const SimRep& r : *reps) {
      out.attempted += ops_per_rep;
      out.failed += failed_ops(expect, r, ops_per_rep);
    }
  }
  report_sim(untraced, traced, setup.samples(), out);
  return out;
}

}  // namespace

Outcome run_sim_fabric(const Options& opt, Expectation& expect) {
  Outcome out = run_sim(opt, expect, [&](Pass pass, const AfterJob& after_job) { return fabric_rep(opt, pass, after_job); }, 3);
  if (!opt.trace || opt.oracle) return out;

  // The workloads layer rides along here: a 2-second loop replaying the
  // small tenant_day (its first 1 000 jobs; tenant_day on its own is
  // outside the benchmark, README.md says why). A failed or wedged replay
  // marks the run incorrect, and its results must repeat within the loop.
  Options probe = opt;
  probe.size = Size::Small;
  probe.seconds = 2.0;
  probe.trace = false;
  Expectation repeats(/*strict=*/false);
  const Outcome day = run_tenant_day(probe, repeats);
  out.setup_failed += day.failed + day.setup_failed;
  for (const auto& [name, metric] : day.layers) {
    if (name.rfind("workloads.", 0) == 0) out.layers[name] = metric;
  }
  return out;
}

Outcome run_tenant_day(const Options& opt, Expectation& expect) {
  return run_sim(opt, expect, [&](Pass pass, const AfterJob& after_job) { return day_rep(opt, pass, after_job); },
                 day_config(opt).num_jobs);
}

}  // namespace perfbench
