// Cross-module integration: whole-platform scenarios combining the
// virtualization layer, HDFS, both MapReduce engines, the ML library, the
// monitor, the tuner and live migration — the flows a vHadoop user runs.

#include <gtest/gtest.h>

#include "core/platform.hpp"
#include "mapreduce/local_runner.hpp"
#include "ml/kmeans.hpp"
#include "viz/svg.hpp"
#include "workloads/terasort.hpp"
#include "workloads/text_corpus.hpp"
#include "workloads/wordcount.hpp"

namespace vhadoop {
namespace {

TEST(EndToEnd, WordcountPipelineRealAndSimulatedAgreeOnStructure) {
  workloads::TextCorpus corpus(5000);
  auto lines = corpus.generate(8 * sim::kMiB);
  mapreduce::LocalJobRunner local(4);
  auto measured = local.run(workloads::wordcount_job(3), lines, 5);

  core::Platform platform;
  platform.boot_cluster({.num_workers = 6});
  platform.upload("/in/text", mapreduce::serialized_bytes(lines));
  auto timeline = platform.run_measured("wc", measured, "/in/text", "/out/wc");

  // Structure agreement: one simulated map per logical split, one reduce
  // output file per logical reducer, sizes carried over.
  EXPECT_EQ(timeline.maps.size(), measured.map_profiles.size());
  EXPECT_EQ(timeline.reduces.size(), measured.reduce_profiles.size());
  for (std::size_t r = 0; r < measured.reduce_profiles.size(); ++r) {
    const std::string part = "/out/wc/part-" + std::to_string(r);
    ASSERT_TRUE(platform.hdfs().exists(part));
    EXPECT_DOUBLE_EQ(platform.hdfs().file_size(part),
                     measured.reduce_profiles[r].output_bytes);
  }
}

TEST(EndToEnd, TeraSortCorrectnessAndTimingTogether) {
  // Real record-level sort at test scale...
  auto records = workloads::TeraSort::generate_records(3000, 5);
  mapreduce::LocalJobRunner local(4);
  auto sorted = local.run(workloads::TeraSort::sort_job(3, records), records, 4);
  ASSERT_TRUE(workloads::TeraSort::validate_sorted(sorted.output));

  // ...and the same pipeline's timing at paper scale on the cluster.
  core::Platform platform;
  platform.boot_cluster({.num_workers = 15});
  workloads::TeraSort ts{.total_bytes = 200 * sim::kMiB, .num_reduces = 3};
  const double gen = platform.run_job(ts.sim_teragen("/t/in")).elapsed();
  const double sort = platform.run_job(ts.sim_terasort("/t/in", "/t/out")).elapsed();
  const double validate = platform.run_job(ts.sim_teravalidate("/t/out")).elapsed();
  EXPECT_GT(gen, 0.0);
  EXPECT_GT(sort, gen * 0.5);
  EXPECT_GT(validate, 0.0);
}

TEST(EndToEnd, ClusteringVisualizationPipeline) {
  auto data = ml::display_clustering_samples(300, 7);
  auto run = ml::kmeans_cluster(data, {.k = 3, .base = {.num_splits = 3}});
  const std::string svg = viz::render_clustering_svg(data, run);
  EXPECT_NE(svg.find("stroke=\"red\""), std::string::npos);

  core::Platform platform;
  platform.boot_cluster({.num_workers = 3});
  const double elapsed = platform.run_clustering(
      run, mapreduce::serialized_bytes(ml::to_records(data)), "/in/viz");
  EXPECT_GT(elapsed, 0.0);
}

TEST(EndToEnd, MonitorSeesJobAndTunerReactsAfterwards) {
  core::Platform platform;
  platform.boot_cluster({.num_workers = 6, .placement = core::Placement::CrossDomain});
  auto& mon = platform.attach_monitor(1.0);

  mapreduce::SimJobSpec job;
  job.name = "hot";
  job.output_path = "/out/hot";
  for (int m = 0; m < 12; ++m) {
    job.maps.push_back({.input_bytes = 64 * sim::kMiB, .cpu_seconds = 1.0,
                        .output_bytes = 48 * sim::kMiB});
  }
  job.reduces.push_back({.cpu_seconds = 1.0, .output_bytes = 8 * sim::kMiB});
  platform.run_job(job);
  mon.stop();

  const auto report = monitor::TraceAnalyser::analyse(mon);
  EXPECT_FALSE(mon.samples().empty());
  EXPECT_NE(report.bottleneck, "none");
  EXPECT_NO_THROW(platform.tune());
}

TEST(EndToEnd, MigrationDuringJobThenJobStillFinishes) {
  core::Platform platform;
  platform.boot_cluster({.num_workers = 7});
  mapreduce::SimJobSpec job;
  job.name = "longjob";
  job.output_path = "/out/long";
  for (int m = 0; m < 40; ++m) {
    job.maps.push_back({.input_bytes = 32 * sim::kMiB, .cpu_seconds = 4.0,
                        .output_bytes = 8 * sim::kMiB});
  }
  job.reduces.push_back({.cpu_seconds = 2.0, .output_bytes = 4 * sim::kMiB});
  bool done = false;
  double job_end = 0.0;
  platform.runner().submit(job, [&](const mapreduce::JobTimeline& t) {
    done = true;
    job_end = t.finished;
  });
  platform.engine().run_until(platform.engine().now() + 20.0);
  ASSERT_FALSE(done);

  auto result = platform.migrate_cluster(platform.hosts()[1], [&](virt::VmId vm) {
    return platform.runner().running_tasks(vm) > 0 ? virt::DirtyModel::wordcount()
                                                   : virt::DirtyModel::idle();
  });
  platform.engine().run();
  EXPECT_TRUE(done);
  EXPECT_EQ(result.per_vm.size(), 8u);
  for (virt::VmId vm : platform.all_vms()) {
    EXPECT_EQ(platform.cloud().host_of(vm), platform.hosts()[1]);
  }
}

TEST(EndToEnd, CrashDuringClusteringIterationStillConverges) {
  auto data = ml::display_clustering_samples(400, 11);
  auto run = ml::kmeans_cluster(data, {.k = 3, .base = {.num_splits = 4,
                                                        .max_iterations = 6}});
  core::Platform platform;
  platform.boot_cluster({.num_workers = 6});
  platform.upload("/in/pts", mapreduce::serialized_bytes(ml::to_records(data)));

  // Run the iteration jobs manually, crashing a worker between them.
  double total = 0.0;
  for (std::size_t it = 0; it < run.jobs.size(); ++it) {
    if (it == 1) platform.cloud().crash_vm(platform.workers()[5]);
    auto t = platform.run_measured("kmeans-it" + std::to_string(it), run.jobs[it], "/in/pts",
                                   "/out/km-" + std::to_string(it));
    total += t.elapsed();
  }
  EXPECT_GT(total, 0.0);
}

}  // namespace
}  // namespace vhadoop
