#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace vhadoop::sim {

/// Fluid (flow-level) resource-sharing model.
///
/// Every ongoing transfer or computation in the simulated testbed is an
/// *activity*: a fixed amount of work (bytes, core-seconds) draining at a
/// rate decided by weighted max-min fair sharing over the *resources* it
/// consumes. An activity may consume several resources at once at the same
/// rate — e.g. a cross-host flow uses the sender NIC, the receiver NIC and
/// the NFS disk; a virtual CPU burn uses the VM's VCPU allotment and the
/// host's physical CPU. This is the standard methodology for simulating
/// contention phenomena at datacenter scale (flow-level network models):
/// exact packet/instruction interleaving is abstracted away, while
/// bottleneck formation — the subject of the vHadoop paper — is preserved.
///
/// ## Incremental recomputation (DESIGN.md §10)
///
/// Activities and resources form a bipartite sharing graph whose connected
/// components are independent max-min problems: progressive filling in one
/// component never reads state from another. The model exploits that by
/// re-solving only the components a change touched. A change (activity
/// start/finish/cancel, capacity or cap change) solves nothing by itself:
/// it records the touched activity or resources as dirty. At the end of the
/// simulated instant (Engine::at_instant_end) one flush collects each dirty
/// component once and solves it once, however many changes hit it in that
/// instant. Rates of all other components — and their already-armed
/// completion timers — are left intact, which turns the per-event cost from
/// O(all activities × all resources) into O(component). Work remaining and
/// busy integrals are settled lazily, also per component. Rates that would
/// last zero simulated time never integrate, so deferring the solve to the
/// end of the instant changes no result.
///
/// The invariant that makes this safe: *at every instant boundary, and on
/// every read, the stored rate of every activity equals the canonical
/// progressive-filling solution of its own (true, maximal) connected
/// component*. Readers (`rate`, `remaining`, `allocated`, `utilization`,
/// `busy_integral`) flush first. Solving is deterministic, so a reference
/// re-solve of an untouched component reproduces the stored rates bit for
/// bit. `VHADOOP_FLUID_REFERENCE=1` (or the constructor flag) turns on the
/// reference oracle: after every flush the model re-solves *every*
/// component from scratch and verifies the invariant, aborting on
/// divergence beyond 1e-9 — the stale-component bug class an incremental
/// solver can introduce cannot then go unnoticed.
///
/// Completion times are exact under the piecewise-constant rate
/// assumption. Projected finish times are plain arithmetic; only one
/// engine timer is armed per component — on its earliest finisher — and it
/// is re-armed only when that earliest ETA actually moves. A rate change
/// that shifts every member of a 500-activity component therefore costs
/// one heap operation, not 500.
class FluidModel {
 public:
  struct ResourceId {
    std::uint64_t v = 0;
    bool valid() const { return v != 0; }
    bool operator==(const ResourceId&) const = default;
  };
  struct ActivityId {
    std::uint64_t v = 0;
    bool valid() const { return v != 0; }
    bool operator==(const ActivityId&) const = default;
  };

  /// Completion callback. Runs after the finished activities left the
  /// model, so it may freely start or cancel other activities; flows it
  /// starts join the same end-of-instant solve as the survivors.
  using Callback = std::function<void()>;

  struct ActivitySpec {
    /// Total work: bytes for transfers, core-seconds for computation.
    double work = 0.0;
    /// Max-min weight (share of each contended resource).
    double weight = 1.0;
    /// Hard rate ceiling (e.g. a VCPU can use at most one core; a paced
    /// migration stream). Infinity = unlimited.
    double cap = std::numeric_limits<double>::infinity();
    /// Resources consumed, all at the activity's single rate. May be empty
    /// only if `cap` is finite (pure rate-limited work, e.g. latency pacing).
    std::vector<ResourceId> resources;
    Callback on_complete;
  };

  /// Reference-oracle mode defaults to the VHADOOP_FLUID_REFERENCE
  /// environment variable; pass `reference` explicitly in tests. The
  /// switch accepts only unset, empty, 0 or 1, and in reference mode
  /// VHADOOP_FLUID_VERIFY_EVERY only a positive integer; any other value
  /// throws std::invalid_argument naming the variable.
  explicit FluidModel(Engine& engine);
  FluidModel(Engine& engine, bool reference);
  FluidModel(const FluidModel&) = delete;
  FluidModel& operator=(const FluidModel&) = delete;

  /// True when every flush re-solves all components and verifies the
  /// incremental invariant (see class comment).
  bool reference_mode() const { return reference_; }

  // --- resources ---------------------------------------------------------
  ResourceId add_resource(std::string name, double capacity);
  void set_capacity(ResourceId id, double capacity);
  double capacity(ResourceId id) const;
  /// Sum of the current rates of all activities using the resource.
  double allocated(ResourceId id);
  /// allocated / capacity in [0,1]; 0 for a zero-capacity resource.
  double utilization(ResourceId id);
  /// ∫ allocated(t) dt since simulation start (for average utilization).
  double busy_integral(ResourceId id);
  const std::string& name(ResourceId id) const;

  // --- activities --------------------------------------------------------
  ActivityId start(ActivitySpec spec);
  /// Cancel an in-flight activity (its callback never runs). Returns false
  /// if it already completed or was cancelled.
  bool cancel(ActivityId id);
  /// Extend an in-flight activity by `extra` work units.
  void add_work(ActivityId id, double extra);
  /// Change the rate cap of an in-flight activity (0 pauses it).
  void set_cap(ActivityId id, double cap);
  bool active(ActivityId id) const { return activities_.contains(id.v); }
  double rate(ActivityId id);
  double remaining(ActivityId id);

  std::size_t active_count() const { return activities_.size(); }

 private:
  struct Activity;

  struct Resource {
    std::string name;
    double capacity = 0.0;
    /// ∫ allocated dt, integrated up to `last_update`.
    double busy_integral = 0.0;
    /// Sum of users' rates (kept current by apply_rates).
    double allocated = 0.0;
    SimTime last_update = 0.0;
    std::uint64_t id = 0;
    /// Users ascending by id (ids are handed out monotonically). Raw
    /// pointers: unordered_map nodes are pointer-stable across rehashes,
    /// and pointer adjacency keeps hash lookups out of the per-event path.
    std::vector<Activity*> users;
    /// BFS visit stamp (see visit_epoch_); scratch, not model state.
    std::uint64_t seen = 0;
    /// Position in the component currently being solved; scratch written by
    /// solve_component so edge targets resolve in O(1).
    std::size_t local_idx = 0;
  };

  struct Activity {
    /// Work left as of `last_update`; drains at `rate` since then.
    double remaining = 0.0;
    double total = 0.0;
    double weight = 1.0;
    double cap = 0.0;
    double rate = 0.0;
    SimTime last_update = 0.0;
    /// Absolute projected completion time (kNever when paused/stalled).
    SimTime finish_at = kNever;
    /// Engine timer, armed only while this activity is its component's
    /// earliest finisher (one live timer per component, see apply_rates).
    Engine::EventId finish_event{};
    /// The time finish_event is armed at (kNever when not armed); lets a
    /// re-arm be skipped when the projected finish did not move.
    SimTime armed_at = kNever;
    /// Set by add_work: remaining changed without a rate change, so the next
    /// solve must re-project finish_at regardless.
    bool reproject = false;
    std::uint64_t id = 0;
    std::vector<Resource*> resources;
    Callback on_complete;
    /// BFS visit stamp (see visit_epoch_); scratch, not model state.
    std::uint64_t seen = 0;
  };

  /// One connected component of the activity↔resource bipartite graph;
  /// both lists are sorted ascending by id (canonical order for solving).
  struct Component {
    std::vector<Activity*> acts;
    std::vector<Resource*> res;
  };

  /// Record a touched activity or resource id; the first record of an
  /// instant registers the end-of-instant flush with the engine.
  void mark_dirty(std::uint64_t id);
  /// Solve every dirty component once, re-arm its timer, then run the
  /// oracle gate. The only place rates change.
  void flush();
  /// Remove an activity (cancel or finish): drop its timer and cache entry,
  /// detach it from its resources and mark those dirty.
  void erase_activity(Activity& act);
  /// BFS over shared resources from the given seeds (either may be null),
  /// stamping visits with `epoch`.
  Component collect_component(Activity* seed_act, Resource* seed_res, std::uint64_t epoch);
  /// Bring `remaining` up to now.
  void settle_activity(Activity& act);
  /// Bring `remaining` / `busy_integral` of every member up to now.
  void settle_component(const Component& comp);
  /// Canonical progressive filling over one component. Writes the solution
  /// into `rates` (parallel to comp.acts); touches only scratch state.
  void solve_component(const Component& comp, std::vector<double>& rates);
  /// Write solved rates back, refresh per-resource allocation sums and
  /// re-arm the component's timer if its earliest ETA moved (members with
  /// `reproject` set are re-projected regardless). Returns the member
  /// holding the component's timer (null when none finishes).
  Activity* apply_rates(const Component& comp, const std::vector<double>& rates);
  /// Arm one engine timer for the component, on its earliest projected
  /// finisher (smallest id on ties); cancel timers of all other members.
  /// A component with no finite finish keeps no timer at all. Returns the
  /// timer holder (even when the existing timer was kept), or null.
  Activity* arm_component_timer(const Component& comp);
  /// Recompute `act.finish_at` from rate/remaining as of now.
  void project_finish(Activity& act) const;
  void on_finish_event(std::uint64_t activity_id);
  /// Reference-mode gate: runs the oracle after every flush by default, or
  /// after every Nth one when VHADOOP_FLUID_VERIFY_EVERY=N — the full oracle
  /// is O(all activities × all resources) per flush, which is fine for
  /// the churn suite but prohibitive at 4096 VMs. Sampling still catches a
  /// stale component: staleness persists until the component is next
  /// touched, so any later sampled check over the same state trips it.
  void maybe_verify();
  /// Reference oracle: re-solve every component, verify stored rates.
  void verify_all_components();

  /// An activity is finished when less than this much work remains. Work
  /// units are bytes or core-seconds; a micro-unit is far below
  /// observability.
  static constexpr double kWorkEps = 1e-6;

  bool finished(const Activity& act) const {
    return act.remaining <= kWorkEps && (act.rate > 0.0 || act.total <= kWorkEps);
  }

  Engine& engine_;
  bool reference_;
  /// Oracle sampling period (1 = every flush); see maybe_verify().
  int verify_every_ = 1;
  std::uint64_t verify_tick_ = 0;
  std::uint64_t next_id_ = 1;
  std::unordered_map<std::uint64_t, Resource> resources_;
  std::unordered_map<std::uint64_t, Activity> activities_;
  /// Solved component of each armed timer holder, keyed by its activity id.
  /// Valid by construction: a mutation touching the component marks it
  /// dirty, and the finish path flushes before it reads the cache — the
  /// flush re-solves and re-arms the component, replacing the entry. So
  /// the membership a firing timer finds is exact and the finish path
  /// needs neither a BFS nor a sort. Entries die with their timer
  /// (consumed on fire, erased on cancel/re-arm).
  std::unordered_map<std::uint64_t, Component> comp_cache_;
  /// Ids touched since the last flush, in call order (activity and resource
  /// ids share one sequence). May hold ids of activities gone since.
  std::vector<std::uint64_t> dirty_;
  /// True while the end-of-instant flush is registered with the engine.
  bool flush_armed_ = false;
  obs::Counter* activities_started_;
  obs::Counter* rate_recomputes_;
  obs::Counter* recomputes_;
  obs::Histogram* component_size_;

  // Scratch reused across calls so the per-flush hot path (BFS + solve on
  // each dirty component) allocates nothing in steady state. The engine is
  // single-threaded and no solve nests inside another, so sharing is safe.
  std::uint64_t visit_epoch_ = 0;
  std::vector<Activity*> bfs_act_stack_;
  std::vector<Resource*> bfs_res_stack_;
  std::vector<double> s_slack_, s_rescap_, s_weight_, s_cap_, s_sumw_;
  std::vector<std::size_t> s_ridx_, s_roff_, s_unfrozen_, s_next_;
  std::vector<int> s_cnt_;
  std::vector<double> s_rates_;
};

}  // namespace vhadoop::sim
