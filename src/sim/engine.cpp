#include "sim/engine.hpp"

#include <cassert>
#include <memory>
#include <stdexcept>
#include <utility>

namespace vhadoop::sim {

Engine::Engine()
    : events_scheduled_(metrics_.counter("sim.events_scheduled")),
      events_fired_(metrics_.counter("sim.events_fired")),
      events_cancelled_(metrics_.counter("sim.events_cancelled")),
      queue_compactions_(metrics_.counter("sim.queue_compactions")),
      queue_depth_(metrics_.gauge("sim.queue_depth")) {
  tracer_.set_clock([this] { return now_; });
}

Engine::EventId Engine::schedule_at(SimTime t, Callback cb, bool daemon) {
  if (t < now_ - kEps) {
    throw std::invalid_argument("Engine::schedule_at: time in the past");
  }
  if (t < now_) t = now_;  // absorb fp slop
  const std::uint64_t seq = next_seq_++;
  queue_.push(QueueEntry{t, seq});
  callbacks_.emplace(seq, Pending{std::move(cb), daemon, t});
  if (!daemon) ++regular_pending_;
  events_scheduled_->inc();
  if (static_cast<double>(callbacks_.size()) > queue_depth_->max()) {
    queue_depth_->set(static_cast<double>(callbacks_.size()));
  }
  return EventId{seq};
}

bool Engine::cancel(EventId id) {
  // The heap entry becomes a tombstone; it is skipped on pop.
  auto it = callbacks_.find(id.seq);
  if (it == callbacks_.end()) return false;
  if (!it->second.daemon) --regular_pending_;
  callbacks_.erase(it);
  events_cancelled_->inc();
  ++tombstones_;
  if (tombstones_ > 64 && tombstones_ > callbacks_.size()) compact_queue();
  return true;
}

void Engine::compact_queue() {
  std::vector<QueueEntry> live;
  live.reserve(callbacks_.size());
  // vlint: allow(no-unordered-iteration) audited PR 8: collects entries, sorted before the heap is rebuilt
  for (const auto& [seq, pending] : callbacks_) live.push_back(QueueEntry{pending.time, seq});
  // Sorted input gives one canonical heap layout; pop order is total
  // ((time, seq) is a strict order) either way.
  std::sort(live.begin(), live.end(),
            [](const QueueEntry& a, const QueueEntry& b) { return b > a; });
  queue_ = decltype(queue_)(std::greater<>(), std::move(live));
  tombstones_ = 0;
  queue_compactions_->inc();
}

void Engine::at_instant_end(Callback cb) { instant_end_.push_back(std::move(cb)); }

void Engine::end_instant() {
  // Swap first: a callback that registers another for this instant lands in
  // the next pass, which still runs before the clock moves.
  instant_end_running_.swap(instant_end_);
  for (Callback& cb : instant_end_running_) cb();
  instant_end_running_.clear();
}

bool Engine::step() {
  for (;;) {
    if (!instant_end_.empty() && (queue_.empty() || queue_.top().time > now_)) {
      end_instant();
      return true;
    }
    if (queue_.empty()) return false;
    const QueueEntry top = queue_.top();
    queue_.pop();
    auto it = callbacks_.find(top.seq);
    if (it == callbacks_.end()) {  // cancelled
      if (tombstones_ > 0) --tombstones_;
      continue;
    }
    Callback cb = std::move(it->second.cb);
    if (!it->second.daemon) --regular_pending_;
    callbacks_.erase(it);
    assert(top.time >= now_ - kEps);
    now_ = std::max(now_, top.time);
    ++processed_;
    events_fired_->inc();
    cb();
    return true;
  }
}

void Engine::run() {
  while ((regular_pending_ > 0 || !instant_end_.empty()) && step()) {
  }
}

void Engine::sample_timeseries_every(SimTime period) {
  timeseries_period_ = period;
  if (period <= 0.0 || timeseries_armed_) return;
  timeseries_armed_ = true;
  // Self-re-arming daemon chain; the std::function recursion trick keeps
  // the whole sampler local to this call.
  auto tick = std::make_shared<std::function<void()>>();
  *tick = [this, tick] {
    if (timeseries_period_ <= 0.0) {
      timeseries_armed_ = false;
      return;
    }
    timeseries_.sample(now_);
    schedule_in(timeseries_period_, *tick, /*daemon=*/true);
  };
  schedule_in(timeseries_period_, *tick, /*daemon=*/true);
}

bool Engine::run_until(SimTime t) {
  for (;;) {
    // Skip tombstones without advancing time.
    if (!queue_.empty() && !callbacks_.contains(queue_.top().seq)) {
      queue_.pop();
      if (tombstones_ > 0) --tombstones_;
      continue;
    }
    if (instant_end_.empty()) {
      if (queue_.empty()) break;
      if (queue_.top().time > t) {
        now_ = std::max(now_, t);
        return true;
      }
    }
    step();
  }
  now_ = std::max(now_, t);
  return false;
}

}  // namespace vhadoop::sim
