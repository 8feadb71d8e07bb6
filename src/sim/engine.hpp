#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sim/time.hpp"

namespace vhadoop::sim {

/// Deterministic discrete-event engine.
///
/// Events scheduled at the same instant fire in scheduling order (FIFO by
/// sequence number), which makes every simulation run reproducible. The
/// engine is single-threaded by design: all parallelism in vHadoop is
/// *modeled* through the fluid resource model, while real computation
/// (the logical MapReduce executor) happens outside the engine.
class Engine {
 public:
  using Callback = std::function<void()>;

  /// Opaque handle for cancellation. Default-constructed ids are invalid.
  struct EventId {
    std::uint64_t seq = 0;
    bool valid() const { return seq != 0; }
  };

  Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Schedule `cb` at absolute time `t` (must be >= now()). Daemon events
  /// (periodic samplers, watchdogs) fire normally while the simulation is
  /// driven by regular events, but never keep `run()` alive on their own —
  /// like daemon threads.
  EventId schedule_at(SimTime t, Callback cb, bool daemon = false);

  /// Schedule `cb` after `dt` seconds of simulated time.
  EventId schedule_in(SimTime dt, Callback cb, bool daemon = false) {
    return schedule_at(now_ + dt, std::move(cb), daemon);
  }

  /// Cancel a pending event. Returns false if it already fired or was
  /// cancelled before.
  bool cancel(EventId id);

  /// Run `cb` once at the end of the current instant: after every event at
  /// now() has fired, including events scheduled at now() while it lasts,
  /// and before the clock advances. Callbacks run in registration order.
  /// Not an event: processed() and sim.events_fired do not count it, but a
  /// pending callback keeps run() alive until it has run.
  void at_instant_end(Callback cb);

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Run until no regular (non-daemon) events and no end-of-instant
  /// callbacks remain.
  void run();

  /// Run until simulated time `t` (inclusive of events at exactly `t`, and
  /// of the end-of-instant callbacks after them).
  /// Afterwards now() == t if the horizon was reached, otherwise now() is
  /// the time of the last event. Returns true if pending events remain.
  bool run_until(SimTime t);

  /// Fire at most one event, or run the end-of-instant callbacks once no
  /// event is left at now(). Returns false if there was nothing to do.
  bool step();

  std::size_t pending() const { return callbacks_.size(); }
  std::uint64_t processed() const { return processed_; }

  /// Platform-wide observability, anchored here because every component
  /// already holds an Engine reference. Metrics are always live (untouched
  /// metrics cost nothing); the tracer records only once enabled and is
  /// pre-wired to this engine's simulated clock.
  obs::Registry& metrics() { return metrics_; }
  const obs::Registry& metrics() const { return metrics_; }
  obs::Tracer& tracer() { return tracer_; }
  const obs::Tracer& tracer() const { return tracer_; }
  obs::TimeSeries& timeseries() { return timeseries_; }
  const obs::TimeSeries& timeseries() const { return timeseries_; }

  /// Sample every registered time series each `period` simulated seconds,
  /// via a self-re-arming daemon event (so an armed sampler never keeps
  /// run() alive). Calling again adjusts the period; period <= 0 stops the
  /// chain at its next firing.
  void sample_timeseries_every(SimTime period);

 private:
  struct QueueEntry {
    SimTime time;
    std::uint64_t seq;
    bool operator>(const QueueEntry& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };

  struct Pending {
    Callback cb;
    bool daemon = false;
    SimTime time = 0.0;
  };

  /// Cancelled events leave tombstones in the heap; once they outnumber the
  /// live entries the heap is rebuilt from the cancellation index. Timer
  /// re-arming (the fluid model cancels and re-schedules completion events
  /// as rates change) would otherwise grow the heap without bound.
  void compact_queue();
  /// Run (and clear) the end-of-instant callbacks.
  void end_instant();

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  std::size_t regular_pending_ = 0;
  std::size_t tombstones_ = 0;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> queue_;
  std::unordered_map<std::uint64_t, Pending> callbacks_;
  std::vector<Callback> instant_end_;
  std::vector<Callback> instant_end_running_;

  obs::Registry metrics_;
  obs::Tracer tracer_;
  obs::TimeSeries timeseries_;
  SimTime timeseries_period_ = 0.0;
  bool timeseries_armed_ = false;
  obs::Counter* events_scheduled_;
  obs::Counter* events_fired_;
  obs::Counter* events_cancelled_;
  obs::Counter* queue_compactions_;
  obs::Gauge* queue_depth_;
};

}  // namespace vhadoop::sim
