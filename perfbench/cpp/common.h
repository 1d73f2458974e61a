// Shared pieces of the perfbench binary: the clock, exact sample
// statistics, the span tracer, memory probes and the report every
// workload fills.
//
// Nothing here reaches into the program under test: spans are recorded
// in the benchmark's own code, around calls into the public entry
// points of runner/harness, serve and frontend.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
std::uint64_t now_ns();

/// The seed of a run's `index`-th world (splitmix64 of the run seed and
/// the index): every repetition draws a fresh topology and workload, so
/// a run's medians average over several worlds instead of one.
std::uint64_t world_seed(std::uint64_t seed, std::uint64_t index);

/// Raw samples with exact order statistics. Quantiles interpolate
/// linearly between the two closest ranks of the sorted samples, so a
/// reported percentile is never a histogram bucket bound.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  void append(const Samples& other);
  std::size_t count() const { return v_.size(); }
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double mean() const;
  double sum() const;
  /// Samples strictly above the q-quantile (the "samples beyond it"
  /// that make a tail percentile trustworthy).
  std::size_t beyond(double q) const;

 private:
  std::vector<double> v_;
};

// --- tracing -------------------------------------------------------------

/// Span tracer. Off unless enable()d; an untraced run pays one branch
/// per span. Each span records name, start, end, parent span and
/// request id; spans stay in per-thread memory (up to a cap) and are
/// written out by write_chrome_trace() at exit. Self time (duration
/// minus the time covered by direct children) is aggregated per span
/// name as spans close, so it stays exact past the record cap.
class Tracer {
 public:
  static void enable(bool on);
  static bool enabled();

  /// Request id attached to spans opened later on this thread.
  static void set_request(std::uint64_t id);

  struct NameStats {
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };
  /// Per-name totals over every thread's closed spans.
  static std::map<std::string, NameStats> summary();
  /// Sum of self time per layer (the span name up to its first '.').
  static std::map<std::string, double> layer_self_ms();
  /// Number of spans kept and dropped at the record cap.
  static std::uint64_t kept();
  static std::uint64_t dropped();
  /// Writes every kept span as Chrome trace-event JSON. Call only
  /// once the threads that recorded spans have been joined.
  static bool write_chrome_trace(const std::string& path);
};

/// RAII span; a no-op when tracing is off. `name` must be a string
/// literal ("layer.call").
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
};

// --- memory ---------------------------------------------------------------

/// Peak resident set of this process (getrusage), in MiB.
double peak_rss_mb();
/// Current resident set (/proc/self/statm), in bytes.
std::uint64_t current_rss_bytes();

// --- the report -----------------------------------------------------------

/// What one workload run produced: correctness accounting, metrics by
/// name, and free-form JSON detail (configs, sample counts) that goes
/// into the provenance line.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few failure messages

  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  /// Preformatted JSON values keyed by name (emitted under "detail").
  std::map<std::string, std::string> detail;

  /// Counts one checked operation; a false `ok` is one failure.
  void check(bool ok, const std::string& what);
  /// Counts `n` checked operations of which `bad` failed.
  void check_many(std::uint64_t n, std::uint64_t bad, const std::string& what);

  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a percentile's sample count next to it in the detail.
  void samples(const std::string& name, const Samples& s, double q);
};

/// Options every workload receives from the command line.
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Report run_batch_abrr(const RunOptions& opt);
Report run_serve_churn(const RunOptions& opt);
Report run_frontend_lookup(const RunOptions& opt);

/// JSON string escaping for detail values.
std::string json_string(const std::string& s);
/// Shortest round-trip rendering of a double ("null" for non-finite).
std::string json_number(double v);

}  // namespace perfbench
