// batch_abrr: ABRR trials on the paper bed, driven step by step
// through the runner's public world builders, the Testbed, the route
// regenerator and the scheduler. Each repetition builds a world
// (set-up), bulk-loads the snapshot to quiescence (converge), then
// replays an update trace in publish_period steps and runs the tail to
// quiescence (churn). A closed loop of Loc-RIB queries on the
// converged bed gives the batch product's read cost. A run cycles
// through a few worlds, repeating each.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <random>
#include <string>

#include "bgp/attrs_intern.h"
#include "common.h"
#include "fault/recovery.h"
#include "harness/testbed.h"
#include "runner/scenario.h"
#include "runner/trial.h"
#include "trace/update_trace.h"
#include "trace/workload.h"
#include "verify/equivalence.h"

namespace perfbench {
namespace {

using namespace abrr;

struct BatchParams {
  std::uint32_t pops = 13;
  std::uint32_t clients_per_pop = 8;
  std::uint32_t peer_ases = 25;
  std::uint32_t points_per_as = 8;
  std::size_t num_aps = 8;
  std::size_t prefixes = 100;
  double snapshot_seconds = 30;
  double trace_seconds = 15;
  double trace_events_per_second = 50;
  double step_seconds = 0.25;  // the serving mode's publish_period
  std::size_t query_batch = 64;
  std::size_t query_calls = 16000;  // Loc-RIB query calls per repetition
  std::size_t query_plan = 4096;    // distinct (client, prefix) queries
  std::size_t worlds = 8;      // distinct worlds a run cycles through
  std::size_t min_visits = 2;  // repetitions of each world, at least
  std::size_t max_reps = 400;

  std::string to_json() const {
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "{\"mode\":\"abrr\",\"pops\":%u,\"clients_per_pop\":%u,"
        "\"peer_ases\":%u,\"points_per_as\":%u,\"num_aps\":%zu,"
        "\"arrs_per_ap\":2,\"prefixes\":%zu,\"snapshot_seconds\":%g,"
        "\"trace_seconds\":%g,\"trace_events_per_second\":%g,"
        "\"step_seconds\":%g,\"query_batch\":%zu,\"query_calls\":%zu,"
        "\"worlds\":%zu}",
        pops, clients_per_pop, peer_ases, points_per_as, num_aps, prefixes,
        snapshot_seconds, trace_seconds, trace_events_per_second,
        step_seconds, query_batch, query_calls, worlds);
    return buf;
  }
};

runner::ScenarioSpec make_spec(const BatchParams& p, std::uint64_t seed) {
  runner::ScenarioSpec spec =
      runner::ScenarioSpec::paper(ibgp::IbgpMode::kAbrr, p.num_aps, seed);
  spec.name = "perfbench/batch_abrr";
  spec.topology.pops = p.pops;
  spec.topology.clients_per_pop = p.clients_per_pop;
  spec.topology.peer_ases = p.peer_ases;
  spec.topology.points_per_as = p.points_per_as;
  spec.workload.prefixes = p.prefixes;
  spec.workload.snapshot_seconds = p.snapshot_seconds;
  spec.workload.trace_seconds = p.trace_seconds;
  spec.workload.trace_events_per_second = p.trace_events_per_second;
  return spec;
}

struct Rep {
  std::size_t world = 0;
  bool traced = false;
  double setup_s = 0;
  double converge_s = 0;
  double churn_s = 0;
  Samples step_ms;
  Samples call_us;  // Loc-RIB query call latency
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  double query_s = 0;
  bool converged = false;
  std::uint64_t fingerprint = 0;
  std::uint64_t answers = 0;  // digest of every query answer

  std::uint64_t events_converge = 0;
  std::uint64_t events_churn = 0;
  std::uint64_t messages_converge = 0;
  std::uint64_t messages_churn = 0;
  std::uint64_t wire_bytes_converge = 0;
  std::uint64_t wire_bytes_churn = 0;
  std::uint64_t updates_received = 0;
  std::uint64_t routes_received = 0;
  std::uint64_t pool_capacity = 0;
  std::uint64_t attr_hits = 0;
  std::uint64_t attr_misses = 0;
  std::uint64_t attr_arena_bytes = 0;
  double rib_in_avg = 0;
  double load_rss_bytes = 0;  // RSS growth across the snapshot load
  std::size_t speakers = 0;

  // Full-mesh equivalence (the untimed checking replay only).
  bool fullmesh_checked = false;
  bool fullmesh_equivalent = false;
  std::size_t divergences = 0;
  double fullmesh_check_s = 0;
};

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

/// Builds a full-mesh bed from the same (spec, seed), replays the same
/// trace, and compares its client bests with the ABRR bed's.
void check_fullmesh(const runner::ScenarioSpec& spec, std::uint64_t seed,
                    harness::Testbed& bed,
                    const std::vector<bgp::Ipv4Prefix>& prefixes,
                    const trace::UpdateTrace& trace, Rep& rep) {
  sim::Rng rng{seed};
  topo::Topology topology = runner::make_trial_topology(spec.topology, rng);
  const trace::Workload workload =
      runner::make_trial_workload(spec.workload, topology, rng);
  harness::TestbedConfig cfg = spec.testbed_config(seed);
  cfg.mode = ibgp::IbgpMode::kFullMesh;
  cfg.multipath = false;
  harness::Testbed mesh{std::move(topology), cfg, workload.prefixes()};
  trace::RouteRegenerator regen{mesh.scheduler(), workload, mesh.inject_fn()};
  regen.load_snapshot(0, sim::sec_f(spec.workload.snapshot_seconds));
  rep.fullmesh_checked = true;
  if (!mesh.run_to_quiescence(500'000'000)) return;
  regen.play(trace, mesh.scheduler().now());
  if (!mesh.run_to_quiescence(500'000'000)) return;
  const verify::EquivalenceReport eq =
      verify::compare_loc_ribs(bed, mesh, prefixes);
  rep.divergences = eq.divergence_count;
  rep.fullmesh_equivalent = eq.equivalent() && eq.compared > 0;
}

Rep run_rep(const BatchParams& p, const runner::ScenarioSpec& spec,
            std::uint64_t seed, bool traced, bool check_mesh,
            std::uint64_t request) {
  Rep rep;
  rep.traced = traced;
  Tracer::enable(traced);
  Tracer::set_request(request);
  const Span rep_span{"bench.batch_rep"};

  bgp::AttrsInterner::TrialScope attrs_scope{spec.expected_attr_blocks()};

  // --- set-up: topology + workload + trace + Testbed -----------------
  const std::uint64_t t_setup = now_ns();
  sim::Rng rng{seed};
  std::optional<topo::Topology> topology;
  {
    const Span s{"topo.make_tier1"};
    topology.emplace(runner::make_trial_topology(spec.topology, rng));
  }
  std::optional<trace::Workload> workload;
  std::optional<trace::UpdateTrace> trace;
  {
    const Span s{"trace.workload_generate"};
    workload.emplace(
        runner::make_trial_workload(spec.workload, *topology, rng));
    trace::TraceParams tp;
    tp.duration = sim::sec_f(spec.workload.trace_seconds);
    tp.events_per_second = spec.workload.trace_events_per_second;
    sim::Rng trace_rng{seed + 1};
    trace.emplace(trace::UpdateTrace::generate(tp, *workload, trace_rng));
  }
  const std::vector<bgp::Ipv4Prefix> prefixes = workload->prefixes();
  std::optional<harness::Testbed> bed;
  {
    const Span s{"harness.testbed_build"};
    bed.emplace(std::move(*topology), spec.testbed_config(seed), prefixes);
  }
  trace::RouteRegenerator regen{bed->scheduler(), *workload, bed->inject_fn()};
  const std::uint64_t t_load = now_ns();
  rep.setup_s = static_cast<double>(t_load - t_setup) / 1e9;

  // --- converge: snapshot load -> quiescence -------------------------
  const std::uint64_t rss0 = current_rss_bytes();
  {
    const Span s{"trace.load_snapshot"};
    regen.load_snapshot(0, sim::sec_f(spec.workload.snapshot_seconds));
  }
  {
    const Span s{"sim.run_to_quiescence"};
    rep.converged = bed->run_to_quiescence(500'000'000);
  }
  const std::uint64_t t_converged = now_ns();
  rep.converge_s = static_cast<double>(t_converged - t_load) / 1e9;
  rep.load_rss_bytes =
      static_cast<double>(current_rss_bytes()) - static_cast<double>(rss0);
  rep.events_converge = bed->scheduler().events_executed();
  rep.messages_converge = bed->network().total_messages();
  rep.wire_bytes_converge = bed->network().total_bytes();

  // --- churn: trace replay in steps, then the tail to quiescence ------
  {
    const Span s{"trace.play"};
    regen.play(*trace, bed->scheduler().now());
  }
  const sim::Time step = sim::sec_f(p.step_seconds);
  const sim::Time end =
      bed->scheduler().now() + sim::sec_f(spec.workload.trace_seconds);
  while (bed->scheduler().now() < end) {
    const std::uint64_t t0 = now_ns();
    {
      const Span s{"sim.run_until"};
      bed->run_until(std::min(bed->scheduler().now() + step, end));
    }
    rep.step_ms.add(static_cast<double>(now_ns() - t0) / 1e6);
  }
  {
    const Span s{"sim.run_to_quiescence"};
    rep.converged = bed->run_to_quiescence(500'000'000) && rep.converged;
  }
  rep.churn_s = static_cast<double>(now_ns() - t_converged) / 1e9;
  rep.events_churn = bed->scheduler().events_executed() - rep.events_converge;
  rep.messages_churn = bed->network().total_messages() - rep.messages_converge;
  rep.wire_bytes_churn = bed->network().total_bytes() - rep.wire_bytes_converge;

  // --- reads: closed loop of Loc-RIB best-route queries ---------------
  const std::vector<bgp::RouterId>& clients = bed->client_ids();
  std::mt19937_64 qrng{seed ^ 0x51ab7e11ull};
  std::vector<std::pair<bgp::RouterId, bgp::Ipv4Prefix>> plan(
      p.query_plan);
  for (auto& q : plan) {
    q = {clients[qrng() % clients.size()], prefixes[qrng() % prefixes.size()]};
  }
  const std::uint64_t t_query = now_ns();
  std::size_t cursor = 0;
  for (std::size_t call = 0; call < p.query_calls; ++call) {
    Tracer::set_request(request * 1'000'000 + call);
    const std::uint64_t t0 = now_ns();
    {
      const Span s{"bgp.loc_rib_best"};
      for (std::size_t i = 0; i < p.query_batch; ++i) {
        const auto& [router, prefix] = plan[cursor];
        cursor = cursor + 1 == plan.size() ? 0 : cursor + 1;
        const bgp::Route* best = bed->speaker(router).loc_rib().best(prefix);
        if (best != nullptr) {
          ++rep.hits;
          rep.answers = mix(rep.answers, best->attrs->content_hash);
        } else {
          rep.answers = mix(rep.answers, 0);
        }
      }
    }
    rep.call_us.add(static_cast<double>(now_ns() - t0) / 1e3);
    rep.lookups += p.query_batch;
  }
  rep.query_s = static_cast<double>(now_ns() - t_query) / 1e9;
  Tracer::set_request(request);

  // --- outside the timed windows: outputs and layer counts -----------
  rep.fingerprint = fault::rib_fingerprint(*bed);
  rep.speakers = bed->all_ids().size();
  double rib_in = 0;
  for (const bgp::RouterId id : bed->all_ids()) {
    const ibgp::Speaker& sp = bed->speaker(id);
    const ibgp::SpeakerCounters c = sp.counters();
    rep.updates_received += c.updates_received;
    rep.routes_received += c.routes_received;
    rib_in += static_cast<double>(sp.rib_in_size());
  }
  rep.rib_in_avg = rib_in / static_cast<double>(rep.speakers);
  rep.pool_capacity = bed->scheduler().pool_capacity();
  const bgp::AttrsInterner& interner = attrs_scope.interner();
  rep.attr_hits = interner.hits();
  rep.attr_misses = interner.misses();
  rep.attr_arena_bytes = interner.arena_bytes();

  if (check_mesh) {
    Tracer::enable(false);
    const std::uint64_t t0 = now_ns();
    check_fullmesh(spec, seed, *bed, prefixes, *trace, rep);
    rep.fullmesh_check_s = static_cast<double>(now_ns() - t0) / 1e9;
  }
  Tracer::enable(false);
  return rep;
}

/// A run's value of a per-repetition quantity: the median over every
/// repetition of the run. On a shared virtual machine the same
/// repetition runs up to 1.7x slower while neighbours are busy, in
/// phases of seconds; the median over many short repetitions spread
/// over the run varied least across runs (less than the fastest
/// repetition per world did).
template <typename Fn>
double median_over(const std::vector<const Rep*>& reps, Fn value) {
  Samples all;
  for (const Rep* r : reps) all.add(value(*r));
  return all.median();
}

}  // namespace

Report run_batch_abrr(const RunOptions& opt) {
  BatchParams p;
  Report report;
  report.detail["config"] = p.to_json();

  // A run cycles through p.worlds worlds (world_seed) until --seconds of
  // wall time have passed, so each world's visits are spread over the
  // whole run. A traced run plays each visit twice, untraced then
  // traced, so each pair differs only in tracing.
  const std::size_t per_visit = opt.trace ? 2 : 1;
  std::vector<Rep> reps;
  const std::uint64_t t_run = now_ns();
  const auto elapsed_s = [t_run] {
    return static_cast<double>(now_ns() - t_run) / 1e9;
  };
  while (reps.size() < p.max_reps &&
         (reps.size() < p.worlds * p.min_visits * per_visit ||
          elapsed_s() < opt.seconds || reps.size() % per_visit != 0)) {
    const std::size_t world = (reps.size() / per_visit) % p.worlds;
    const std::uint64_t seed = world_seed(opt.seed, world);
    const bool traced = opt.trace && reps.size() % 2 == 1;
    reps.push_back(run_rep(p, make_spec(p, seed), seed, traced,
                           /*check_mesh=*/false, reps.size() + 1));
    Rep& r = reps.back();
    r.world = world;
  }
  // The full-mesh reference bed is larger than the ABRR one, so it runs
  // after the peak RSS of the measured repetitions is read, on a replay
  // of the first world (untimed).
  const double rss_mb = peak_rss_mb();
  const std::uint64_t seed0 = world_seed(opt.seed, 0);
  const Rep checked = run_rep(p, make_spec(p, seed0), seed0, /*traced=*/false,
                              /*check_mesh=*/true, reps.size() + 1);

  // --- correctness ---------------------------------------------------
  // Every repetition of a world, traced or not, must reproduce the
  // world's first repetition exactly.
  for (const Rep& r : reps) {
    const Rep& first = reps[r.world * per_visit];
    report.check(r.converged, "batch: repetition did not reach quiescence");
    report.check(r.fingerprint == first.fingerprint && r.answers == first.answers,
                 "batch: a repetition of a world changed its outputs");
  }
  report.check(checked.converged && checked.fingerprint == reps[0].fingerprint &&
                   checked.answers == reps[0].answers,
               "batch: replay of the first world changed its outputs");
  report.check(checked.fullmesh_checked && checked.fullmesh_equivalent,
               "batch: ABRR client bests differ from full mesh (" +
                   std::to_string(checked.divergences) + " divergences)");
  char fp[32];
  std::snprintf(fp, sizeof fp, "\"%016llx\"",
                static_cast<unsigned long long>(reps[0].fingerprint));
  report.detail["fingerprint_world0"] = fp;
  report.detail["repetitions"] = std::to_string(reps.size());
  report.detail["fullmesh_check_s"] = json_number(checked.fullmesh_check_s);
  report.detail["estimator"] =
      "\"median over every repetition\"";

  std::vector<const Rep*> plain;
  std::vector<const Rep*> traced;
  for (const Rep& r : reps) (r.traced ? traced : plain).push_back(&r);

  // --- end-to-end (untraced repetitions) ------------------------------
  const auto median = [&](auto value) { return median_over(plain, value); };
  report.set("setup_s", median([](const Rep& r) { return r.setup_s; }), "s");
  report.set("converge_s", median([](const Rep& r) { return r.converge_s; }),
             "s");
  report.set("churn_s", median([](const Rep& r) { return r.churn_s; }), "s");
  report.set("peak_rss_mb", rss_mb, "MB");
  report.set("step_visible_ms_p50",
             median([](const Rep& r) { return r.step_ms.quantile(0.5); }), "ms");
  // One repetition has only 60 steps, too few for a p90 with ten
  // samples beyond it, so the tail pools the steps of every repetition.
  Samples all_steps;
  for (const Rep* r : plain) all_steps.append(r->step_ms);
  report.set("step_visible_ms_p90", all_steps.quantile(0.9), "ms");
  report.set("lookups_per_s", median([](const Rep& r) {
               return static_cast<double>(r.lookups) / r.query_s;
             }),
             "1/s");
  report.set("lookup_us_p50",
             median([](const Rep& r) { return r.call_us.quantile(0.5); }), "us");
  report.set("lookup_us_p99",
             median([](const Rep& r) { return r.call_us.quantile(0.99); }), "us");
  // Closed loop: a query call is due when the previous one returns, so
  // its round trip is its call latency.
  report.set("rtt_us_p50", report.metrics["lookup_us_p50"].value, "us");
  report.set("rtt_us_p99", report.metrics["lookup_us_p99"].value, "us");
  // The other percentiles are taken over one repetition's samples.
  const Rep& sample = *plain.front();
  report.samples("step_visible_ms_p50", sample.step_ms, 0.5);
  report.samples("step_visible_ms_p90", all_steps, 0.9);
  report.samples("lookup_us_p50", sample.call_us, 0.5);
  report.samples("lookup_us_p99", sample.call_us, 0.99);

  // --- per-layer (traced repetitions; counts are per repetition) ------
  if (!traced.empty()) {
    const auto spans = Tracer::summary();
    const auto mean_ms = [&spans](const char* name) {
      const auto it = spans.find(name);
      return it == spans.end() || it->second.calls == 0
                 ? 0.0
                 : static_cast<double>(it->second.total_ns) / 1e6 /
                       static_cast<double>(it->second.calls);
    };
    const auto total_ns = [&spans](const char* name) {
      const auto it = spans.find(name);
      return it == spans.end() ? 0.0 : static_cast<double>(it->second.total_ns);
    };
    // Counts come from the first world, so they repeat exactly for a
    // seed; times are means over every traced repetition.
    const Rep& t = *traced.front();
    std::uint64_t all_events = 0;
    std::uint64_t all_routes = 0;
    for (const Rep* r : traced) {
      all_events += r->events_converge + r->events_churn;
      all_routes += r->routes_received;
    }
    report.set("topo.make_tier1_ms", mean_ms("topo.make_tier1"), "ms");
    report.set("trace.workload_generate_ms", mean_ms("trace.workload_generate"),
               "ms");
    report.set("harness.testbed_build_ms", mean_ms("harness.testbed_build"),
               "ms");
    report.set("trace.load_snapshot_ms", mean_ms("trace.load_snapshot"), "ms");
    report.set("sim.events_converge", static_cast<double>(t.events_converge),
               "count");
    report.set("sim.events_churn", static_cast<double>(t.events_churn), "count");
    const double sim_ns =
        total_ns("sim.run_to_quiescence") + total_ns("sim.run_until");
    report.set("sim.ns_per_event", sim_ns / static_cast<double>(all_events),
               "ns");
    report.set("sim.pool_capacity", static_cast<double>(t.pool_capacity),
               "count");
    report.set("net.messages_converge", static_cast<double>(t.messages_converge),
               "count");
    report.set("net.messages_churn", static_cast<double>(t.messages_churn),
               "count");
    report.set("net.wire_bytes_converge",
               static_cast<double>(t.wire_bytes_converge), "B");
    report.set("net.wire_bytes_churn", static_cast<double>(t.wire_bytes_churn),
               "B");
    report.set("ibgp.updates_received", static_cast<double>(t.updates_received),
               "count");
    report.set("ibgp.routes_received", static_cast<double>(t.routes_received),
               "count");
    report.set("ibgp.ns_per_route",
               sim_ns / static_cast<double>(all_routes), "ns");
    report.set("bgp.attr_hit_ratio",
               static_cast<double>(t.attr_hits) /
                   static_cast<double>(t.attr_hits + t.attr_misses),
               "ratio");
    report.set("bgp.attr_arena_mb",
               static_cast<double>(t.attr_arena_bytes) / (1024.0 * 1024.0), "MB");
    report.set("bgp.rib_in_routes_avg", t.rib_in_avg, "count");
    // Memory: the first repetition is the only one whose load grows the
    // heap (later ones reuse what it freed).
    report.set("bgp.bytes_per_router_prefix",
               reps[0].load_rss_bytes / (static_cast<double>(reps[0].speakers) *
                                         static_cast<double>(p.prefixes)),
               "B");
    Samples overhead;
    for (std::size_t i = 1; i < reps.size(); i += 2) {
      const auto total = [](const Rep& r) {
        return r.setup_s + r.converge_s + r.churn_s + r.query_s;
      };
      overhead.add((total(reps[i]) / total(reps[i - 1]) - 1.0) * 100.0);
    }
    report.set("trace_overhead_pct", overhead.median(), "%");
  }
  return report;
}

}  // namespace perfbench
