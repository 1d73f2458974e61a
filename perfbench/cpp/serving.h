// Pieces shared by the two workloads that run a RouteService:
// the serving scenario, the probe plan readers and clients send, and
// the version-visibility log that turns reader observations into
// publish-to-visible step intervals.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "runner/scenario.h"
#include "serve/service.h"

namespace perfbench {

struct ServingParams {
  std::uint32_t pops = 13;
  std::uint32_t clients_per_pop = 8;
  std::uint32_t peer_ases = 25;
  std::uint32_t points_per_as = 8;
  std::size_t num_aps = 2;
  std::size_t prefixes = 500;
  double churn_seconds = 60;
  double churn_events_per_second = 50;
  double publish_period_seconds = 0.25;

  abrr::runner::ScenarioSpec spec() const {
    abrr::runner::ScenarioSpec s;
    s.name = "perfbench/serving";
    s.mode = abrr::ibgp::IbgpMode::kAbrr;
    s.topology.pops = pops;
    s.topology.clients_per_pop = clients_per_pop;
    s.topology.peer_ases = peer_ases;
    s.topology.points_per_as = points_per_as;
    s.workload.prefixes = prefixes;
    s.abrr.num_aps = num_aps;
    s.serve.enabled = true;
    s.serve.churn_seconds = churn_seconds;
    s.serve.churn_events_per_second = churn_events_per_second;
    s.serve.chaos_events = 0;
    s.serve.publish_period_seconds = publish_period_seconds;
    return s;
  }

  std::string to_json() const {
    char buf[384];
    std::snprintf(buf, sizeof buf,
                  "{\"mode\":\"abrr\",\"pops\":%u,\"clients_per_pop\":%u,"
                  "\"peer_ases\":%u,\"points_per_as\":%u,\"num_aps\":%zu,"
                  "\"prefixes\":%zu,\"churn_seconds\":%g,"
                  "\"churn_events_per_second\":%g,"
                  "\"publish_period_seconds\":%g,\"chaos_events\":0}",
                  pops, clients_per_pop, peer_ases, points_per_as, num_aps,
                  prefixes, churn_seconds, churn_events_per_second,
                  publish_period_seconds);
    return buf;
  }
};

/// `n` deterministic hit-biased requests over the service's stable
/// views (LPM universe and router list are the same in every snapshot):
/// pick a universe prefix, scatter within its host bits.
inline std::vector<abrr::serve::LookupRequest> probe_plan(
    abrr::serve::RouteService& service, std::size_t n, std::uint64_t salt) {
  abrr::serve::RouteService::Reader reader{service};
  std::shared_ptr<const abrr::bgp::LpmIndex> index;
  std::vector<abrr::bgp::RouterId> routers;
  {
    const abrr::serve::RouteService::Reader::PinGuard pin{reader};
    index = pin->index;
    routers = pin->router_ids;
  }
  std::vector<abrr::serve::LookupRequest> reqs;
  reqs.reserve(n);
  std::uint64_t x = salt * 0x9e3779b97f4a7c15ull + 1;
  for (std::size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const abrr::bgp::Ipv4Prefix& p = index->prefix_at(x % index->size());
    const auto host = static_cast<std::uint32_t>(x >> 32);
    reqs.push_back(abrr::serve::LookupRequest{
        routers[(x >> 16) % routers.size()],
        p.first() | (host & (p.last() - p.first()))});
  }
  return reqs;
}

/// First time each snapshot version was seen, per observer; merged
/// across observers, the gaps between consecutive versions are the
/// churn-step -> visible-snapshot intervals.
class VersionLog {
 public:
  /// Call with every observed version; records only changes.
  void observe(std::uint64_t version, std::uint64_t t_ns) {
    if (version != last_) {
      seen_.emplace_back(version, t_ns);
      last_ = version;
    }
  }
  /// Counts of observations that went backwards (must stay 0).
  std::uint64_t regressions() const {
    std::uint64_t n = 0;
    for (std::size_t i = 1; i < seen_.size(); ++i) {
      if (seen_[i].first < seen_[i - 1].first) ++n;
    }
    return n;
  }
  const std::vector<std::pair<std::uint64_t, std::uint64_t>>& seen() const {
    return seen_;
  }

  /// Step intervals (ms) over the earliest sighting of each version.
  /// Skips intervals that start at version 1 (seen first only once the
  /// observers started, not when it was published) and the interval
  /// into `horizon_version` (the end-of-plan republish, not a step).
  static Samples step_intervals_ms(const std::vector<const VersionLog*>& logs,
                                   std::uint64_t horizon_version,
                                   std::size_t* versions_seen);

 private:
  std::uint64_t last_ = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> seen_;
};

/// The service's publish-latency histogram, read exactly (sum, count
/// and max are exact; only its quantiles are bucket bounds).
struct PublishTotals {
  double sum_ns = 0;
  std::uint64_t count = 0;
  double max_ns = 0;
};
inline PublishTotals publish_totals(const abrr::serve::RouteService& s) {
  const abrr::obs::Histogram h = s.publish_latency();
  return PublishTotals{h.sum(), h.count(), h.max()};
}

}  // namespace perfbench
