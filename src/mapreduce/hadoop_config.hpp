#pragma once

#include <string>
#include <vector>

#include "sim/time.hpp"

namespace vhadoop::mapreduce {

/// Which job scheduler the simulated JobTracker loads (the 0.20-era
/// mapred.jobtracker.taskScheduler pluggability point).
enum class SchedulerPolicy {
  Fifo,      ///< strict submit order, one job served at a time (era default)
  Fair,      ///< equal slot shares across runnable jobs + delay scheduling
  Capacity,  ///< named queues with guaranteed/max slot fractions, user limits
  Deadline,  ///< EDF within priority tiers + anti-starvation aging (SLO traffic)
};

/// One Capacity-scheduler queue (mapred-queues.xml entry).
struct QueueConfig {
  std::string name = "default";
  /// Guaranteed fraction of the cluster's slots of each kind.
  double capacity = 1.0;
  /// Elastic ceiling: the queue may borrow idle slots up to this fraction.
  double max_capacity = 1.0;
  /// Largest fraction of the queue's ceiling one user may hold
  /// (minimum-user-limit-percent, simplified to a hard per-user cap).
  double user_limit = 1.0;
};

/// MapReduce-layer knobs of the Hadoop Module (paper Sec. II-B), with the
/// Hadoop-0.20-era defaults a 1-VCPU/1-GB worker would carry.
struct HadoopConfig {
  /// mapred.tasktracker.map.tasks.maximum
  int map_slots_per_worker = 2;
  /// mapred.tasktracker.reduce.tasks.maximum
  int reduce_slots_per_worker = 1;
  /// TaskTracker heartbeat period; one map + one reduce may be assigned
  /// per heartbeat (JobTracker protocol of the era — 3 s was the floor in
  /// Hadoop 0.20, which is why small jobs feel task-count in their latency).
  double heartbeat_seconds = 3.0;
  /// Child-JVM spawn per task: a fixed latency portion (fork/exec, class
  /// loading I/O) plus a CPU-burning portion that contends with guest load
  /// when the host is oversubscribed.
  double task_start_latency = 0.9;
  double task_start_cpu_seconds = 0.25;
  /// Job localization per task: jar + job.xml + sandbox writes hitting the
  /// (NFS-backed) local disk.
  double task_localization_bytes = 8 * sim::kMiB;
  /// io.sort.mb: in-memory sort buffer; outputs beyond it pay an extra
  /// spill-merge pass on both the map and reduce sides.
  double io_sort_bytes = 100 * sim::kMiB;
  /// Fraction of maps that must finish before reducers are launched
  /// (mapred.reduce.slowstart.completed.maps).
  double reduce_slowstart = 0.05;
  /// Replication for job output files (TeraSort sets 1; others inherit
  /// dfs.replication).
  int output_replication = 0;  // 0 = inherit from HDFS config
  /// mapred.reduce.parallel.copies: concurrent shuffle fetches per reduce.
  /// Bounding the fan-in keeps a large job's shuffle from opening
  /// maps × reduces simultaneous flows (it also keeps the fluid model's
  /// sharing components small on big clusters — see DESIGN.md §10).
  int reduce_parallel_copies = 5;
  /// mapred.map.tasks.speculative.execution: launch a duplicate attempt of
  /// a map that has been running far longer than the completed-task mean;
  /// the first finisher wins (covers silently hung nodes).
  bool speculative_execution = true;
  /// How many times slower than the mean a running map must be before a
  /// speculative attempt is considered.
  double speculative_slowdown = 2.5;
  /// TaskTrackers heartbeat immediately on task completion (0.20
  /// behaviour); disabling reverts to strictly periodic slot refill.
  bool out_of_band_heartbeats = true;
  /// mapred.task.timeout: a task making no progress for this long is
  /// killed and re-executed (catches tasks wedged on I/O against a dead
  /// node). Reduce progress is refreshed by every shuffle arrival.
  double task_timeout_seconds = 240.0;
  /// Which scheduler the JobTracker runs. FIFO reproduces the seed
  /// behaviour exactly; Fair and Capacity allow concurrent jobs.
  SchedulerPolicy scheduler = SchedulerPolicy::Fifo;
  /// Fair-scheduler delay scheduling: how long a job may be skipped while
  /// waiting for a slot on a node holding one of its input blocks before it
  /// accepts a non-local slot (Zaharia et al., EuroSys'10). The Deadline
  /// scheduler applies the same delay to its map picks.
  double locality_delay_seconds = 6.0;
  /// Deadline scheduler's anti-starvation window: a job that has waited
  /// this long without ever receiving a slot preempts the EDF/priority
  /// order (oldest such job first), so a stream of urgent arrivals cannot
  /// starve no-deadline batch work indefinitely.
  double deadline_starvation_window_seconds = 300.0;
  /// Capacity-scheduler queues. Empty = a single "default" queue owning the
  /// whole cluster; jobs naming an unknown queue fall into the first one.
  std::vector<QueueConfig> queues;
};

}  // namespace vhadoop::mapreduce
