// vhadoop_cli — command-line scenario driver, the `hadoop jar`-style entry
// point for quick experiments against the simulated testbed.
//
//   vhadoop_cli <workload> [--cross] [--workers N] [--mb SIZE]
//               [--scheduler=fifo|fair|capacity|deadline]
//               [--workload-trace=FILE] [--trace-gen=SPEC]
//               [--metrics-out=FILE] [--trace-out=FILE] [--spans-out=FILE]
//               [--timeseries-out=FILE]
//
// An unknown workload, unknown flags, flags missing their value, numeric
// flags whose value is not entirely a number ("abc", "2x") and stray
// arguments print the usage text and exit 2, before any cluster boots.
//
// workloads: wordcount | terasort | dfsio | mrbench | multi | trace
//
// --scheduler selects the JobTracker scheduling policy (default fifo); the
// `multi` workload submits a mixed job stream (one long sort behind a train
// of short jobs) so the policies can be compared head-to-head.
//
// The `trace` workload replays a multi-tenant day of traffic open-loop
// through per-tenant admission control and prints a per-tenant SLO report.
// --workload-trace=FILE replays a vhadoop-trace-v1 file; otherwise a trace
// is generated deterministically from --trace-gen=SPEC, a comma-separated
// list of jobs=N, horizon=SECONDS, tenants=N, process=poisson|bursty,
// seed=N, out=FILE (out= writes the trace file and exits without
// replaying). Example:
//   vhadoop_cli trace --trace-gen=jobs=2000,seed=7,out=day.trace
//   vhadoop_cli trace --workload-trace=day.trace --scheduler=deadline
//
// --metrics-out writes the platform metrics registry as JSON after the run;
// --trace-out enables timeline tracing and writes a Chrome trace-event file
// loadable in chrome://tracing or https://ui.perfetto.dev.
// --spans-out enables tracing too and writes the causal span graph
// ("vhadoop-spans-v1") for tools/trace_query: pipe it into
// `trace_query spans.json --critical-path --attribution` for per-job
// bottleneck attribution. --timeseries-out samples the standard platform
// probes once per simulated second and writes the ring buffers as JSON.
//
// Examples:
//   vhadoop_cli terasort --mb 800 --cross
//   vhadoop_cli wordcount --workers 7 --mb 64
//   vhadoop_cli wordcount --trace-out=trace.json --metrics-out=metrics.json
//   vhadoop_cli terasort --spans-out=spans.json --timeseries-out=series.json
//   vhadoop_cli multi --scheduler=fair

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "core/platform.hpp"
#include "mapreduce/local_runner.hpp"
#include "net/topology.hpp"
#include "workloads/dfsio.hpp"
#include "workloads/mrbench.hpp"
#include "workloads/terasort.hpp"
#include "workloads/text_corpus.hpp"
#include "workloads/trace.hpp"
#include "workloads/trace_replay.hpp"
#include "workloads/wordcount.hpp"

using namespace vhadoop;

namespace {

struct Options {
  std::string workload;
  bool cross = false;
  int workers = 15;
  double mb = 128.0;
  std::string metrics_out;
  std::string trace_out;
  std::string spans_out;
  std::string timeseries_out;
  std::string scheduler = "fifo";
  std::string workload_trace;
  std::string trace_gen;
  std::string topology = "single-switch";
  int racks = 2;
  int hosts_per_rack = 2;
};

constexpr std::string_view kWorkloads[] = {"wordcount", "terasort", "dfsio",
                                           "mrbench",   "multi",    "trace"};

int usage() {
  std::fprintf(stderr,
               "usage: vhadoop_cli <wordcount|terasort|dfsio|mrbench|multi|trace> "
               "[--cross] [--workers N] [--mb SIZE] "
               "[--scheduler=fifo|fair|capacity|deadline] "
               "[--topology=single-switch|fat-tree|rotor] "
               "[--racks=N] [--hosts-per-rack=N] "
               "[--workload-trace=FILE] [--trace-gen=SPEC] "
               "[--metrics-out=FILE] [--trace-out=FILE] [--spans-out=FILE] "
               "[--timeseries-out=FILE]\n");
  return 2;
}

/// Parse all of `text` into `out`. A malformed, partial ("2x") or
/// out-of-range value names `what` and returns false, so it can never run
/// as the number it starts with.
template <typename T>
bool parse_number(std::string_view text, T& out, const char* what) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec == std::errc{} && ptr == end) return true;
  std::fprintf(stderr, "vhadoop_cli: %s needs a number, got '%.*s'\n", what,
               static_cast<int>(text.size()), text.data());
  return false;
}

/// Parse the command line; nullopt (after naming the offending argument)
/// on anything it does not recognise, so a typo never runs the defaults.
std::optional<Options> parse(int argc, char** argv) {
  Options opt;
  if (argc < 2) return std::nullopt;
  opt.workload = argv[1];
  if (std::ranges::find(kWorkloads, opt.workload) == std::end(kWorkloads)) {
    std::fprintf(stderr, "vhadoop_cli: unknown workload '%s'\n", opt.workload.c_str());
    return std::nullopt;
  }
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    bool ok = true;
    if (arg == "--cross") {
      opt.cross = true;
    } else if (arg == "--workers" && i + 1 < argc) {
      ok = parse_number(argv[++i], opt.workers, "--workers");
    } else if (arg == "--mb" && i + 1 < argc) {
      ok = parse_number(argv[++i], opt.mb, "--mb");
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      opt.metrics_out = arg.substr(14);
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      opt.trace_out = arg.substr(12);
    } else if (arg.rfind("--spans-out=", 0) == 0) {
      opt.spans_out = arg.substr(12);
    } else if (arg.rfind("--timeseries-out=", 0) == 0) {
      opt.timeseries_out = arg.substr(17);
    } else if (arg.rfind("--scheduler=", 0) == 0) {
      opt.scheduler = arg.substr(12);
    } else if (arg.rfind("--workload-trace=", 0) == 0) {
      opt.workload_trace = arg.substr(17);
    } else if (arg.rfind("--trace-gen=", 0) == 0) {
      opt.trace_gen = arg.substr(12);
    } else if (arg.rfind("--topology=", 0) == 0) {
      opt.topology = arg.substr(11);
    } else if (arg.rfind("--racks=", 0) == 0) {
      ok = parse_number(std::string_view(arg).substr(8), opt.racks, "--racks");
    } else if (arg.rfind("--hosts-per-rack=", 0) == 0) {
      ok = parse_number(std::string_view(arg).substr(17), opt.hosts_per_rack,
                        "--hosts-per-rack");
    } else {
      std::fprintf(stderr, "vhadoop_cli: unknown flag, missing value or stray argument '%s'\n",
                   arg.c_str());
      return std::nullopt;
    }
    if (!ok) return std::nullopt;
  }
  return opt;
}

/// Parse a --trace-gen SPEC ("jobs=N,horizon=S,tenants=N,process=...,seed=N,
/// out=FILE"). Unknown keys are fatal so typos cannot silently produce the
/// default trace. Returns false (with a message) on a malformed spec.
bool parse_gen_spec(const std::string& spec, workloads::TraceGenConfig& gen,
                    std::string& out_file) {
  std::stringstream ss(spec);
  std::string kv;
  while (std::getline(ss, kv, ',')) {
    if (kv.empty()) continue;
    const auto eq = kv.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "vhadoop_cli: --trace-gen entry '%s' is not key=value\n", kv.c_str());
      return false;
    }
    const std::string key = kv.substr(0, eq), val = kv.substr(eq + 1);
    const std::string what = "--trace-gen " + key;
    if (key == "jobs") {
      if (!parse_number(val, gen.num_jobs, what.c_str())) return false;
    } else if (key == "horizon") {
      if (!parse_number(val, gen.horizon_seconds, what.c_str())) return false;
    } else if (key == "tenants") {
      if (!parse_number(val, gen.num_tenants, what.c_str())) return false;
    } else if (key == "seed") {
      if (!parse_number(val, gen.seed, what.c_str())) return false;
    } else if (key == "process") {
      if (val == "poisson") {
        gen.process = workloads::ArrivalProcess::Poisson;
      } else if (val == "bursty") {
        gen.process = workloads::ArrivalProcess::Bursty;
      } else {
        std::fprintf(stderr, "vhadoop_cli: unknown arrival process '%s'\n", val.c_str());
        return false;
      }
    } else if (key == "out") {
      out_file = val;
    } else {
      std::fprintf(stderr, "vhadoop_cli: unknown --trace-gen key '%s'\n", key.c_str());
      return false;
    }
  }
  return true;
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "vhadoop_cli: cannot open %s for writing\n", path.c_str());
    return false;
  }
  out << content;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> parsed = parse(argc, argv);
  if (!parsed) return usage();
  const Options& opt = *parsed;

  const auto policy = mapreduce::scheduler_policy_from_string(opt.scheduler);
  if (!policy) {
    std::fprintf(stderr, "vhadoop_cli: unknown scheduler '%s' (fifo|fair|capacity|deadline)\n",
                 opt.scheduler.c_str());
    return 2;
  }

  const auto topology = net::topology_kind_from_string(opt.topology);
  if (!topology) {
    std::fprintf(stderr, "vhadoop_cli: unknown topology '%s' (single-switch|fat-tree|rotor)\n",
                 opt.topology.c_str());
    return 2;
  }

  if (opt.racks < 1 || opt.hosts_per_rack < 1) {
    std::fprintf(stderr, "vhadoop_cli: --racks and --hosts-per-rack must be >= 1\n");
    return 2;
  }

  core::TestbedConfig testbed;
  testbed.net.topology.kind = *topology;
  if (*topology != net::TopologyKind::SingleSwitch) {
    // Multi-rack testbed: the rack grid decides the host count, and VMs
    // spread round-robin so every rack actually hosts part of the cluster.
    testbed.net.topology.racks = opt.racks;
    testbed.net.topology.nodes_per_rack = opt.hosts_per_rack;
    testbed.num_hosts = opt.racks * opt.hosts_per_rack;
  }
  core::Platform platform(testbed);
  if (!opt.trace_out.empty() || !opt.spans_out.empty()) platform.enable_tracing();
  if (!opt.timeseries_out.empty()) platform.enable_timeseries(1.0);
  core::ClusterSpec spec;
  spec.num_workers = opt.workers;
  spec.placement = opt.cross ? core::Placement::CrossDomain : core::Placement::Normal;
  if (*topology != net::TopologyKind::SingleSwitch) spec.placement = core::Placement::Spread;
  spec.hadoop.scheduler = *policy;
  if (*policy == mapreduce::SchedulerPolicy::Capacity) {
    if (opt.workload == "trace") {
      // Generated traces route jobs to these two queues; interactive
      // traffic gets the larger guarantee.
      spec.hadoop.queues = {{"interactive", 0.6, 1.0, 1.0}, {"batch", 0.4, 1.0, 1.0}};
    } else {
      // Two demo queues: production owns 70% of the slots, adhoc the rest.
      spec.hadoop.queues = {{"prod", 0.7, 1.0, 1.0}, {"adhoc", 0.3, 0.5, 1.0}};
    }
  }
  platform.boot_cluster(spec);
  std::printf("cluster: %d workers, %s placement, %s scheduler (boot %.0f s simulated)\n",
              opt.workers, opt.cross ? "cross-domain" : "normal",
              platform.runner().scheduler_name(), platform.engine().now());

  if (opt.workload == "wordcount") {
    workloads::TextCorpus corpus(20000);
    auto lines = corpus.generate(opt.mb * sim::kMiB);
    mapreduce::LocalJobRunner local;
    const int splits = std::max(1, static_cast<int>(opt.mb / 16.0));
    auto measured = local.run(workloads::wordcount_job(4), lines, splits);
    platform.upload("/in/corpus", mapreduce::serialized_bytes(lines));
    auto t = platform.run_measured("wordcount", measured, "/in/corpus", "/out/wc");
    std::printf("wordcount %.0f MB: %.1f s (%d/%zu data-local maps, %zu distinct words)\n",
                opt.mb, t.elapsed(), t.data_local_maps(), t.maps.size(),
                measured.output.size());
  } else if (opt.workload == "terasort") {
    workloads::TeraSort ts{.total_bytes = opt.mb * sim::kMiB, .num_reduces = 1};
    const double gen = platform.run_job(ts.sim_teragen("/t/in")).elapsed();
    const double sort = platform.run_job(ts.sim_terasort("/t/in", "/t/out")).elapsed();
    const double val = platform.run_job(ts.sim_teravalidate("/t/out")).elapsed();
    std::printf("terasort %.0f MB: gen %.1f s, sort %.1f s, validate %.1f s\n", opt.mb, gen,
                sort, val);
  } else if (opt.workload == "dfsio") {
    workloads::TestDfsIo io(platform.runner(), platform.hdfs(), 10,
                            opt.mb / 10.0 * sim::kMiB);
    workloads::TestDfsIo::Result wr, rd;
    io.run_write("/dfsio", [&](const workloads::TestDfsIo::Result& r) { wr = r; });
    io.run_read("/dfsio", [&](const workloads::TestDfsIo::Result& r) { rd = r; });
    platform.engine().run();
    std::printf("dfsio 10 x %.0f MB: write %.1f MB/s, read %.1f MB/s\n", opt.mb / 10.0,
                wr.throughput_mb_s(), rd.throughput_mb_s());
  } else if (opt.workload == "mrbench") {
    for (int maps = 1; maps <= 6; ++maps) {
      workloads::MrBench bench{.num_maps = maps, .num_reduces = 1};
      auto t = platform.run_job(bench.sim_job("/out/mrb-" + std::to_string(maps)));
      std::printf("mrbench maps=%d: %.2f s\n", maps, t.elapsed());
    }
  } else if (opt.workload == "multi") {
    // One long sort monopolizes the cluster under FIFO; a train of short
    // jobs queues behind it. Fair/Capacity interleave them instead.
    workloads::TeraSort ts{.total_bytes = opt.mb * 4 * sim::kMiB, .num_reduces = 4};
    platform.run_job(ts.sim_teragen("/multi/in"));
    const double t0 = platform.engine().now();
    std::vector<std::pair<std::string, double>> latency;
    auto record = [&latency, t0](const std::string& name) {
      return [&latency, name, t0](const mapreduce::JobTimeline& t) {
        latency.emplace_back(name, t.finished - t0);
      };
    };
    auto long_job = ts.sim_terasort("/multi/in", "/multi/out");
    long_job.queue = "prod";
    platform.submit_job(std::move(long_job), record("long-sort"));
    for (int k = 0; k < 4; ++k) {
      workloads::MrBench bench{.num_maps = 4, .num_reduces = 1};
      auto job = bench.sim_job("/multi/short-" + std::to_string(k));
      job.name = "short-" + std::to_string(k);
      job.queue = "adhoc";
      auto done = record(job.name);
      platform.submit_job(std::move(job), std::move(done));
    }
    platform.engine().run();
    double makespan = 0.0;
    for (const auto& [name, secs] : latency) {
      std::printf("  %-10s finished after %.1f s\n", name.c_str(), secs);
      makespan = std::max(makespan, secs);
    }
    std::printf("multi (%s): %zu jobs, makespan %.1f s\n",
                platform.runner().scheduler_name(), latency.size(), makespan);
  } else if (opt.workload == "trace") {
    workloads::WorkloadTrace trace;
    if (!opt.workload_trace.empty()) {
      std::ifstream in(opt.workload_trace, std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "vhadoop_cli: cannot read %s\n", opt.workload_trace.c_str());
        return 1;
      }
      std::stringstream buf;
      buf << in.rdbuf();
      const auto err = workloads::parse_trace(buf.str(), trace);
      if (!err.ok()) {
        std::fprintf(stderr, "vhadoop_cli: %s: %s\n", opt.workload_trace.c_str(),
                     err.to_string().c_str());
        return 1;
      }
    } else {
      workloads::TraceGenConfig gen;
      std::string gen_out;
      if (!parse_gen_spec(opt.trace_gen, gen, gen_out)) return usage();
      trace = workloads::generate_trace(gen);
      if (!gen_out.empty()) {
        if (!write_text_file(gen_out, trace.serialize())) return 1;
        std::printf("trace: wrote %zu records to %s\n", trace.records.size(),
                    gen_out.c_str());
        return 0;
      }
    }
    workloads::TraceReplayer replayer(
        platform.engine(), platform.metrics(), std::move(trace),
        [&platform](mapreduce::SimJobSpec job,
                    std::function<void(const mapreduce::JobTimeline&)> done) {
          platform.submit_job(std::move(job), std::move(done));
        });
    const double makespan = replayer.run_to_completion();
    std::printf("trace (%s): %d accepted, %d rejected, %d completed, %d failed, "
                "makespan %.1f s\n",
                platform.runner().scheduler_name(), replayer.accepted(),
                replayer.rejected(), replayer.completed(), replayer.failed(), makespan);
    std::printf("  SLO: %d/%d missed (%.1f%%), p50 %.1f s, p95 %.1f s, p99 %.1f s\n",
                replayer.slo_missed(), replayer.slo_tracked(),
                100.0 * replayer.slo_miss_rate(), replayer.latency_percentile(0.50),
                replayer.latency_percentile(0.95), replayer.latency_percentile(0.99));
    for (const auto& ts : replayer.tenant_stats()) {
      std::printf("  %-8s acc %4d rej %3d done %4d miss %3d p95 %8.1f s\n",
                  ts.tenant.c_str(), ts.accepted, ts.rejected, ts.completed,
                  ts.slo_missed, ts.latency_percentile(0.95));
    }
  }

  if (!opt.metrics_out.empty()) {
    if (!write_text_file(opt.metrics_out, platform.metrics().to_json())) return 1;
    std::printf("metrics: %s (%zu metrics)\n", opt.metrics_out.c_str(),
                platform.metrics().size());
  }
  if (!opt.trace_out.empty()) {
    if (!write_text_file(opt.trace_out, platform.tracer().to_chrome_json())) return 1;
    std::printf("trace: %s (%zu events) — load in chrome://tracing or ui.perfetto.dev\n",
                opt.trace_out.c_str(), platform.tracer().events().size());
  }
  if (!opt.spans_out.empty()) {
    if (!write_text_file(opt.spans_out, platform.tracer().to_span_graph_json())) return 1;
    std::printf("spans: %s (%zu spans, %zu cause edges) — query with trace_query\n",
                opt.spans_out.c_str(), platform.tracer().spans().size(),
                platform.tracer().cause_edges().size());
  }
  if (!opt.timeseries_out.empty()) {
    if (!write_text_file(opt.timeseries_out, platform.engine().timeseries().to_json())) {
      return 1;
    }
    std::printf("timeseries: %s (%zu series)\n", opt.timeseries_out.c_str(),
                platform.engine().timeseries().series_count());
  }
  return 0;
}
