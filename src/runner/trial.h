// One trial = one (ScenarioSpec, seed) pair executed end to end:
// regenerate topology + workload, build a testbed, load the snapshot,
// optionally replay an update trace and/or a fault episode, and collect
// every number the benches report. Trials are fully self-contained —
// they own their Scheduler, Network, MetricsRegistry and Rng — so the
// runner can execute them on any worker thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness/testbed.h"
#include "runner/scenario.h"
#include "trace/regenerator.h"

namespace abrr::runner {

/// Everything one trial produced. serialize() is the canonical
/// byte-exact form used by the determinism matrix and BENCH_sweep.json:
/// two runs of the same (spec, seed) must serialize identically no
/// matter which worker executed them — wall_ms is therefore NOT part of
/// the serialization (it is real time, not simulated time).
struct TrialResult {
  std::string scenario;  // spec name
  std::string mode;      // mode_name(spec.mode)
  std::uint64_t seed = 0;
  std::size_t index = 0;  // position in the runner's expanded order

  /// Non-empty when the trial threw; every other field is then
  /// whatever was collected before the failure (usually defaults).
  std::string error;

  bool converged = false;
  std::size_t speakers = 0;
  std::size_t rrs = 0;
  std::size_t clients = 0;
  std::size_t sessions = 0;
  harness::Aggregate rib_in;
  harness::Aggregate rib_out;
  harness::RoleTotals rr_totals;
  harness::RoleTotals client_totals;
  std::uint64_t fingerprint = 0;
  std::uint64_t trace_events = 0;  // update-trace events replayed (0 = none)

  /// Fault episode results (fault_ran == spec.fault.enabled).
  bool fault_ran = false;
  bgp::RouterId victim = 0;
  double detection_ms = -1;  // crash -> first hold expiration
  double blackout_ms = 0;    // surviving client missing a route
  double recovery_ms = -1;   // restart -> pre-fault RIB fingerprint
  bool fingerprint_restored = false;
  bool fullmesh_equivalent = false;
  std::uint64_t churn_updates = 0;
  std::uint64_t churn_routes = 0;
  std::uint64_t dropped_messages = 0;

  /// Aggregated metrics-registry dump of the trial's testbed
  /// (MetricsRegistry::to_json(aggregate=true)).
  std::string metrics_json;

  /// Allocation telemetry of the trial's heap-isolated pools. All of it
  /// is a function of the simulated run alone, so it is PART of
  /// serialize(): a trial that allocates differently across --jobs
  /// levels would trip the determinism matrix, not just the perf report.
  std::uint64_t attr_blocks = 0;       // distinct interned attribute sets
  std::uint64_t attr_hits = 0;         // intern() canonicalization hits
  std::uint64_t attr_misses = 0;       // intern() fresh blocks
  std::uint64_t attr_arena_bytes = 0;  // slab bytes the blocks occupy
  std::uint64_t sched_events = 0;      // scheduler events executed
  std::uint64_t sched_pool_capacity = 0;  // event-pool high-water, nodes

  /// Real (wall-clock) execution time of the trial on its worker.
  /// Excluded from serialize().
  double wall_ms = 0;

  /// Thread CPU time consumed by the trial (CLOCK_THREAD_CPUTIME_ID).
  /// Excluded from serialize(). On a host with fewer cores than --jobs,
  /// wall_ms inflates with timesharing while cpu_ms stays flat — the
  /// honest signal that parallelism is contention-free.
  double cpu_ms = 0;

  /// Canonical deterministic JSON rendering (no wall-clock content).
  std::string serialize() const;
};

/// Executes one trial. `seed` overrides the spec's seed list (the
/// runner expands one call per seed); `index` is echoed into the
/// result. Throws only on internal errors — the runner catches and
/// records them in TrialResult::error.
TrialResult run_trial(const ScenarioSpec& spec, std::uint64_t seed,
                      std::size_t index);

/// One (spec, seed) world with its initial snapshot loaded and
/// converged: the §4 bed every trial, serving run and bench starts from.
struct World {
  trace::Workload workload;
  std::vector<bgp::Ipv4Prefix> prefixes;  // workload order
  std::unique_ptr<harness::Testbed> bed;
  /// Keeps the regenerator alive so callers can replay traces and
  /// resync faults against the snapshot it loaded.
  std::unique_ptr<trace::RouteRegenerator> regen;
  bool converged = false;
};

/// Builds the world of one (spec, seed): topology and workload from
/// rng{seed}, the testbed from spec.testbed_config(seed), the snapshot
/// paced over workload.snapshot_seconds. `before_load` (may be empty)
/// runs between bed construction and the snapshot load, e.g. to attach
/// RIB listeners that must see every best-change. A bed with hold
/// timers armed never quiesces, so it runs to snapshot_seconds + 40 s
/// and counts as converged; every other bed runs to quiescence (500M
/// event cap). The only place the build sequence is written down:
/// run_trial, its full-mesh reference, the serving mode and the benches
/// that drive a converged bed all come through here, so equal
/// (spec, seed) means equal worlds.
World build_world(
    const ScenarioSpec& spec, std::uint64_t seed,
    const std::function<void(harness::Testbed&)>& before_load = {});

/// The spec's deterministic world pieces, for callers that need the
/// topology or workload without a converged bed (analysis overlays,
/// custom workloads, timed set-up phases).
topo::Topology make_trial_topology(const TopologyOptions& t, sim::Rng& rng);
trace::Workload make_trial_workload(const WorkloadOptions& w,
                                    const topo::Topology& topology,
                                    sim::Rng& rng);

}  // namespace abrr::runner
