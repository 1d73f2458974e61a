// Metrics registry: named counters, gauges and fixed-bucket histograms
// with label support and cheap handle-based hot-path access.
//
// A handle (Counter*, Gauge*, Histogram*) is looked up once — by name and
// label set — and then updated directly on the hot path; the registry
// owns the cells (in deques, so handles stay stable as metrics are added)
// and provides the cold-path views: filtered sums, merged histograms,
// snapshots for delta-style accounting, and a JSON dump with
// per-histogram quantiles.
//
// Threading (DESIGN.md §9): each cell has ONE writing thread and any
// thread may read it; registration and the views take the registry
// mutex. Work spread over threads records into per-thread labelled
// series, which the views merge on read.
//
// Everything here is passive with respect to the simulation: recording a
// sample never schedules events, touches the RNG, or observes wall-clock
// time, so instrumented runs stay bit-identical to uninstrumented ones.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace abrr::obs {

/// An ordered (sorted by key) set of key=value pairs identifying one
/// series of a metric, e.g. {speaker=17, role=rr}.
class Labels {
 public:
  Labels() = default;
  Labels(std::initializer_list<std::pair<std::string, std::string>> kv);

  /// Inserts or replaces one label.
  void set(std::string key, std::string value);

  const std::vector<std::pair<std::string, std::string>>& items() const {
    return kv_;
  }
  bool empty() const { return kv_.empty(); }

  /// True when every (key, value) of `subset` appears here.
  bool contains(const Labels& subset) const;

  /// Canonical text form `{k1=v1,k2=v2}` (empty labels -> `{}`); doubles
  /// as the registry's lookup key suffix.
  std::string render() const;

  bool operator==(const Labels& other) const { return kv_ == other.kv_; }

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
};

/// One single-writer telemetry word: its owning thread updates it with a
/// relaxed load and a relaxed store, any thread may load it. Copies read
/// the source's current value.
template <typename T>
class Cell {
 public:
  Cell() = default;
  Cell(const Cell& other) : v_(other.load()) {}
  Cell& operator=(const Cell& other) {
    store(other.load());
    return *this;
  }

  T load() const { return v_.load(std::memory_order_relaxed); }
  void store(T v) { v_.store(v, std::memory_order_relaxed); }
  void add(T d) { store(load() + d); }

 private:
  std::atomic<T> v_{};
};

/// Registry cells start on their own cache line: cells written by
/// different threads (per-reader series) must not false-share.
inline constexpr std::size_t kCellAlign = 64;

/// Monotonic counter cell. inc() is the hot path: one add through a
/// pointer the owner cached at registration time.
class alignas(kCellAlign) Counter {
 public:
  void inc(std::uint64_t n = 1) { value_.add(n); }
  std::uint64_t value() const { return value_.load(); }

 private:
  Cell<std::uint64_t> value_;
};

/// Point-in-time value cell (RIB sizes, queue depths, ...).
class alignas(kCellAlign) Gauge {
 public:
  void set(double v) { value_.store(v); }
  double value() const { return value_.load(); }

 private:
  Cell<double> value_;
};

/// Fixed-bucket histogram. `bounds` are ascending upper bounds with
/// INCLUSIVE semantics: a value v lands in the first bucket whose bound
/// is >= v; values above the last bound land in the implicit overflow
/// bucket. quantile() reports the upper bound of the bucket holding the
/// requested rank, clamped to the observed max (the overflow bucket
/// reports the max directly) — a deterministic, platform-independent
/// estimate. A copy is a point-in-time view of the source.
class alignas(kCellAlign) Histogram {
 public:
  /// Registry histograms are created via MetricsRegistry::histogram();
  /// this default state (no buckets) is only valid as a merge target.
  Histogram() = default;

  /// Free-standing histogram (a bench worker's private latency record).
  /// Bounds must be ascending and non-empty.
  explicit Histogram(std::vector<double> bounds);

  void record(double v);

  /// Folds `other` into this histogram. Equal bucket bounds merge
  /// bucket-wise; an empty target adopts the source's shape; mismatched
  /// shapes fold into the overflow bucket (same policy as aggregate
  /// JSON dumps).
  void merge(const Histogram& other);

  std::uint64_t count() const { return count_.load(); }
  double sum() const { return sum_.load(); }
  double min() const { return count() ? min_.load() : 0; }
  double max() const { return count() ? max_.load() : 0; }
  /// q in [0, 1]. An empty histogram reports 0 for every quantile.
  double quantile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  std::vector<std::uint64_t> buckets() const;

 private:
  std::vector<double> bounds_;
  std::vector<Cell<std::uint64_t>> buckets_;
  Cell<std::uint64_t> count_;
  Cell<double> sum_;
  Cell<double> min_;
  Cell<double> max_;
};

/// Power-of-two size buckets 1, 2, 4, ..., 65536 — the default for
/// "how many routes / how many bytes / how big a batch" histograms.
std::vector<double> size_buckets();

/// Byte-size buckets: powers of four from 16B to 1GiB — the default
/// for "how many bytes crossed the wire" histograms (frame sizes,
/// per-connection outboxes), whose range outgrows size_buckets().
std::vector<double> byte_buckets();

/// Latency buckets in nanoseconds: 1-2-5 decades from 1ns to 10s —
/// the default for lookup/publish latency histograms.
std::vector<double> latency_buckets_ns();

struct MetricInfo {
  std::string name;
  Labels labels;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registration doubles as lookup: the same (name, labels) always
  /// returns the same cell. Distinct registries never share cells, so
  /// equal metric names in two registries cannot collide. A cell has one
  /// writing thread at a time: a later writer must happen-after the
  /// previous one's last update.
  Counter* counter(std::string_view name, const Labels& labels = {});
  Gauge* gauge(std::string_view name, const Labels& labels = {});
  /// `bounds` must be ascending and non-empty; on re-lookup of an
  /// existing histogram the bounds argument is ignored.
  Histogram* histogram(std::string_view name, std::vector<double> bounds,
                       const Labels& labels = {});

  std::size_t counter_count() const;
  /// Distinct metric names across all three kinds.
  std::size_t name_count() const;

  /// Sum of every counter named `name` whose labels contain `filter`.
  std::uint64_t sum_counters(std::string_view name,
                             const Labels& filter = {}) const;
  /// Bucket-wise merge of every histogram named `name` whose labels
  /// contain `filter` (an empty, shapeless Histogram when none match).
  Histogram merge_histograms(std::string_view name,
                             const Labels& filter = {}) const;

  /// Holds the registry mutex while it runs: `fn` must not register.
  void for_each_counter(
      const std::function<void(const MetricInfo&, const Counter&)>& fn) const;

  /// JSON dump of every metric (with p50/p95/p99 per histogram).
  /// `aggregate` merges series sharing a name: counters/gauges sum,
  /// histograms merge bucket-wise (the compact form benches embed in
  /// their reports; the full form is the export tool's).
  std::string to_json(bool aggregate = false) const;
  /// Writes to_json() to `path`; throws std::runtime_error on I/O error.
  void write_json(const std::string& path, bool aggregate = false) const;

 private:
  static std::string key_of(std::string_view name, const Labels& labels);

  /// Guards the index maps, the info vectors and deque growth; cell
  /// values are atomics and never need it.
  mutable std::mutex mutex_;

  std::deque<Counter> counters_;
  std::vector<MetricInfo> counter_info_;
  std::unordered_map<std::string, std::size_t> counter_index_;

  std::deque<Gauge> gauges_;
  std::vector<MetricInfo> gauge_info_;
  std::unordered_map<std::string, std::size_t> gauge_index_;

  std::deque<Histogram> histograms_;
  std::vector<MetricInfo> histogram_info_;
  std::unordered_map<std::string, std::size_t> histogram_index_;
};

}  // namespace abrr::obs
