// Regression for the reduce watchdog's re-arm (SimulatedJobRunner::
// reduce_timeout). The watchdog re-arms `task_timeout_seconds - idle_for`
// ahead of the current instant; when that remainder is below half an ulp
// of the clock, the new event lands on the same instant with the same
// idle_for and would re-fire forever. The generated 10 000-job
// deadline-scheduler day for seed 2 hits exactly that case at t ≈ 654 s,
// so a wedged build never returns from the replay — ctest's TIMEOUT on
// this binary turns the hang into a failure.

#include <gtest/gtest.h>

#include <functional>
#include <utility>

#include "core/platform.hpp"
#include "workloads/trace.hpp"
#include "workloads/trace_replay.hpp"

namespace vhadoop {
namespace {

TEST(ReduceWatchdog, DeadlineDayForSeed2RunsToCompletion) {
  workloads::TraceGenConfig gen;  // the 10 000-job, 20-tenant bursty day
  gen.seed = 2;
  workloads::WorkloadTrace trace = workloads::generate_trace(gen);
  const auto jobs = static_cast<int>(trace.records.size());

  // The paper's cluster: 1 namenode + 15 workers on one host.
  core::Platform platform;
  core::ClusterSpec spec;
  spec.num_workers = 15;
  spec.placement = core::Placement::Normal;
  spec.hadoop.scheduler = mapreduce::SchedulerPolicy::Deadline;
  spec.seed = 2;
  platform.boot_cluster(spec);

  workloads::TraceReplayer replayer(
      platform.engine(), platform.metrics(), std::move(trace),
      [&platform](mapreduce::SimJobSpec job,
                  std::function<void(const mapreduce::JobTimeline&)> done) {
        platform.submit_job(std::move(job), std::move(done));
      });
  const double makespan = replayer.run_to_completion();

  // Every job of the day is terminal: rejected at admission, or accepted
  // and then completed or failed.
  EXPECT_TRUE(replayer.finished());
  EXPECT_EQ(replayer.accepted() + replayer.rejected(), jobs);
  EXPECT_EQ(replayer.completed() + replayer.failed(), replayer.accepted());
  EXPECT_GT(replayer.completed(), 0);
  EXPECT_GT(makespan, 654.0);
  EXPECT_TRUE(platform.runner().idle());
}

}  // namespace
}  // namespace vhadoop
