// serve_churn: a RouteService whose writer replays churn in
// publish_period steps while two reader threads run a closed loop of
// Reader::lookup_batch. The service is driven directly, so set-up
// (start(): build, converge, v1 publish) is timed on its own and the
// read window runs from start() returning to done().
#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <thread>

#include "serving.h"

namespace perfbench {

Samples VersionLog::step_intervals_ms(const std::vector<const VersionLog*>& logs,
                                      std::uint64_t horizon_version,
                                      std::size_t* versions_seen) {
  std::map<std::uint64_t, std::uint64_t> first;
  for (const VersionLog* log : logs) {
    for (const auto& [version, t] : log->seen()) {
      const auto [it, inserted] = first.emplace(version, t);
      if (!inserted) it->second = std::min(it->second, t);
    }
  }
  if (versions_seen != nullptr) *versions_seen = first.size();
  Samples out;
  for (auto it = first.begin(); it != first.end(); ++it) {
    const auto next = std::next(it);
    if (next == first.end()) break;
    if (next->first != it->first + 1 || it->first == 1 ||
        next->first == horizon_version) {
      continue;
    }
    out.add(static_cast<double>(next->second - it->second) / 1e6);
  }
  return out;
}

namespace {

using namespace abrr;

constexpr std::size_t kReaders = 2;
constexpr std::size_t kLookupBatch = 64;
constexpr std::size_t kPlanCalls = 256;  // distinct batches each reader cycles
/// Every 32nd call's latency is kept as a raw sample (systematic
/// sampling keeps the quantiles unbiased and the sample memory out of
/// the peak RSS being measured).
constexpr std::size_t kSampleEvery = 32;

struct ReaderOut {
  VersionLog versions;
  Samples call_us;
  std::uint64_t calls = 0;
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t busy_ns = 0;  // time inside lookup_batch
  std::string error;
};

struct Rep {
  bool traced = false;
  double setup_s = 0;
  double window_s = 0;  // start() returned -> done()
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t calls = 0;
  std::uint64_t busy_ns = 0;
  std::uint64_t regressions = 0;
  std::size_t versions_seen = 0;
  Samples call_us;
  Samples step_ms;
  bool horizon = false;
  serve::ServiceStats stats;
  sim::Time converged_time = 0;
  PublishTotals publish;
  double start_rss_bytes = 0;  // RSS growth across start()
  std::size_t routers = 0;
  std::vector<std::string> errors;
};

void reader_main(serve::RouteService& service, std::uint64_t salt,
                 std::uint64_t request_base, ReaderOut& out) {
  try {
    const std::vector<serve::LookupRequest> plan =
        probe_plan(service, kPlanCalls * kLookupBatch, salt);
    serve::RouteService::Reader reader{service};
    std::vector<serve::LookupResponse> resps(kLookupBatch);
    std::size_t call = 0;
    // do-while: a reader scheduled late still answers one batch.
    do {
      const std::span<const serve::LookupRequest> reqs{
          plan.data() + (call % kPlanCalls) * kLookupBatch, kLookupBatch};
      Tracer::set_request(request_base + call);
      const std::uint64_t t0 = now_ns();
      serve::BatchResult res;
      {
        const Span s{"serve.lookup_batch"};
        res = reader.lookup_batch(reqs, resps);
      }
      const std::uint64_t t1 = now_ns();
      if (call % kSampleEvery == 0) {
        out.call_us.add(static_cast<double>(t1 - t0) / 1e3);
      }
      out.busy_ns += t1 - t0;
      out.versions.observe(res.snapshot_version, t1);
      out.hits += res.hits;
      out.lookups += reqs.size();
      ++out.calls;
      ++call;
    } while (!service.done());
  } catch (const std::exception& e) {
    out.error = e.what();
  }
}

Rep run_rep(const ServingParams& p, std::uint64_t seed, bool traced,
            std::uint64_t request) {
  Rep rep;
  rep.traced = traced;
  Tracer::enable(traced);
  Tracer::set_request(request);
  const Span rep_span{"bench.serve_rep"};

  const double rss0 = static_cast<double>(current_rss_bytes());
  serve::RouteService service{p.spec(), seed, kReaders + 4};
  const std::uint64_t t0 = now_ns();
  {
    const Span s{"serve.start"};
    service.start();
  }
  const std::uint64_t t1 = now_ns();
  rep.setup_s = static_cast<double>(t1 - t0) / 1e9;
  rep.start_rss_bytes = static_cast<double>(current_rss_bytes()) - rss0;
  rep.converged_time = service.converged_time();

  std::vector<ReaderOut> outs(kReaders);
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&service, &outs, seed, request, r] {
      reader_main(service, seed * 31 + r, (request * kReaders + r) << 32,
                  outs[r]);
    });
  }
  while (!service.done()) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const std::uint64_t t_done = now_ns();
  for (std::thread& t : threads) t.join();
  rep.window_s = static_cast<double>(t_done - t1) / 1e9;

  // With every reader unpinned the parked writer's horizon publish
  // cannot defer; wait for it (bounded) so stats name the horizon.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!service.horizon_published() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  rep.horizon = service.horizon_published();
  rep.stats = service.stats();
  rep.publish = publish_totals(service);
  {
    serve::RouteService::Reader reader{service};
    const serve::RouteService::Reader::PinGuard pin{reader};
    rep.routers = pin->router_ids.size();
  }
  service.stop();
  Tracer::enable(false);

  std::vector<const VersionLog*> logs;
  for (const ReaderOut& o : outs) {
    rep.lookups += o.lookups;
    rep.hits += o.hits;
    rep.calls += o.calls;
    rep.busy_ns += o.busy_ns;
    rep.regressions += o.versions.regressions();
    rep.call_us.append(o.call_us);
    logs.push_back(&o.versions);
    if (!o.error.empty()) rep.errors.push_back(o.error);
  }
  rep.step_ms = VersionLog::step_intervals_ms(logs, rep.stats.version,
                                              &rep.versions_seen);
  return rep;
}

}  // namespace

Report run_serve_churn(const RunOptions& opt) {
  const ServingParams p;
  Report report;
  report.detail["config"] = p.to_json();
  report.detail["readers"] = std::to_string(kReaders);
  report.detail["lookup_batch"] = std::to_string(kLookupBatch);

  // Each repetition is a fresh world, until --seconds of wall time have
  // passed; a traced run plays every world untraced then traced.
  constexpr std::size_t kMinWorlds = 3;
  constexpr std::size_t kMaxReps = 80;
  const std::size_t per_world = opt.trace ? 2 : 1;
  std::vector<Rep> reps;
  const std::uint64_t t_run = now_ns();
  while (reps.size() < kMaxReps &&
         (reps.size() < kMinWorlds * per_world ||
          static_cast<double>(now_ns() - t_run) / 1e9 < opt.seconds ||
          reps.size() % per_world != 0)) {
    const std::uint64_t seed = world_seed(opt.seed, reps.size() / per_world);
    const bool traced = opt.trace && reps.size() % 2 == 1;
    reps.push_back(run_rep(p, seed, traced, reps.size() + 1));
  }
  const double rss_mb = peak_rss_mb();

  // --- correctness (outside every timed window) -----------------------
  for (const Rep& r : reps) {
    report.check_many(r.calls, r.regressions,
                      "serve: a reader saw snapshot versions go backwards");
    report.check(r.errors.empty(),
                 "serve: reader failed: " +
                     (r.errors.empty() ? std::string() : r.errors.front()));
    report.check(r.horizon, "serve: horizon snapshot was never published");
  }
  // The horizon snapshot of the first world must carry exactly the
  // batch-mode fingerprint of the same (spec, seed) at the same time.
  const Rep& first = reps.front();
  const std::uint64_t seed0 = world_seed(opt.seed, 0);
  const std::uint64_t t_check = now_ns();
  const std::uint64_t batch_fp =
      serve::batch_fingerprint_at(p.spec(), seed0, first.stats.virtual_time);
  report.detail["horizon_check_s"] =
      json_number(static_cast<double>(now_ns() - t_check) / 1e9);
  report.check(batch_fp == first.stats.fingerprint,
               "serve: horizon fingerprint differs from batch_fingerprint_at");
  report.check(first.stats.virtual_time ==
                   first.converged_time + sim::sec_f(p.churn_seconds),
               "serve: horizon snapshot is not at the end of the churn plan");
  report.detail["repetitions"] = std::to_string(reps.size());

  std::vector<const Rep*> plain;
  std::vector<const Rep*> traced;
  for (const Rep& r : reps) (r.traced ? traced : plain).push_back(&r);

  // --- end-to-end (untraced repetitions) ------------------------------
  Samples setup;
  Samples window;
  Samples steps;
  Samples calls;
  double lookups = 0;
  double window_total = 0;
  for (const Rep* r : plain) {
    setup.add(r->setup_s);
    window.add(r->window_s);
    steps.append(r->step_ms);
    calls.append(r->call_us);
    lookups += static_cast<double>(r->lookups);
    window_total += r->window_s;
  }
  report.set("setup_s", setup.median(), "s");
  // start() builds and converges the served world before it returns.
  report.set("converge_s", setup.median(), "s");
  report.set("churn_s", window.median(), "s");
  report.set("peak_rss_mb", rss_mb, "MB");
  report.set("step_visible_ms_p50", steps.quantile(0.5), "ms");
  report.samples("step_visible_ms_p50", steps, 0.5);
  report.set("step_visible_ms_p90", steps.quantile(0.9), "ms");
  report.samples("step_visible_ms_p90", steps, 0.9);
  report.set("lookups_per_s", lookups / window_total, "1/s");
  report.set("lookup_us_p50", calls.quantile(0.5), "us");
  report.samples("lookup_us_p50", calls, 0.5);
  report.set("lookup_us_p99", calls.quantile(0.99), "us");
  report.samples("lookup_us_p99", calls, 0.99);
  // Closed loop: a batch is due when the previous one returns.
  report.set("rtt_us_p50", calls.quantile(0.5), "us");
  report.set("rtt_us_p99", calls.quantile(0.99), "us");

  // --- per-layer (traced repetitions) ---------------------------------
  if (!traced.empty()) {
    const Rep& t = *traced.front();  // counts: the first world
    Samples replay;
    Samples step_all;
    PublishTotals pub;
    double busy = 0;
    double looked = 0;
    double hits = 0;
    double versions = 0;
    for (const Rep* r : traced) {
      replay.add(r->window_s);
      step_all.append(r->step_ms);
      pub.sum_ns += r->publish.sum_ns;
      pub.count += r->publish.count;
      pub.max_ns = std::max(pub.max_ns, r->publish.max_ns);
      busy += static_cast<double>(r->busy_ns);
      looked += static_cast<double>(r->lookups);
      hits += static_cast<double>(r->hits);
      versions += static_cast<double>(r->versions_seen);
    }
    const double publish_ms_mean =
        pub.count ? pub.sum_ns / static_cast<double>(pub.count) / 1e6 : 0;
    report.set("serve.replay_s", replay.median(), "s");
    report.set("serve.publishes", static_cast<double>(t.stats.publishes),
               "count");
    report.set("serve.publishes_deferred",
               static_cast<double>(t.stats.publishes_deferred), "count");
    report.set("serve.publish_ms_mean", publish_ms_mean, "ms");
    report.set("serve.publish_ms_max", pub.max_ns / 1e6, "ms");
    report.set("serve.writer_step_ms_mean", step_all.mean() - publish_ms_mean,
               "ms");
    report.set("serve.reclaimed", static_cast<double>(t.stats.reclaimed),
               "count");
    report.set("serve.retired_peak", static_cast<double>(t.stats.retired_peak),
               "count");
    report.set("serve.lookup_ns_per_lookup", busy / looked, "ns");
    report.set("serve.hit_ratio", hits / looked, "ratio");
    report.set("serve.versions_seen",
               versions / static_cast<double>(traced.size()), "count");
    report.set("bgp.bytes_per_router_prefix",
               first.start_rss_bytes / (static_cast<double>(first.routers) *
                                        static_cast<double>(p.prefixes)),
               "B");
    Samples overhead;
    for (std::size_t i = 1; i < reps.size(); i += 2) {
      const double plain_rate =
          static_cast<double>(reps[i - 1].lookups) / reps[i - 1].window_s;
      const double traced_rate =
          static_cast<double>(reps[i].lookups) / reps[i].window_s;
      overhead.add((plain_rate / traced_rate - 1.0) * 100.0);
    }
    report.set("trace_overhead_pct", overhead.median(), "%");
  }
  return report;
}

}  // namespace perfbench
