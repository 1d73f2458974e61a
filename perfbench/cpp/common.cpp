#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <numeric>

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t world_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// --- Samples ---------------------------------------------------------------

void Samples::append(const Samples& other) {
  v_.insert(v_.end(), other.v_.begin(), other.v_.end());
}

double Samples::quantile(double q) const {
  if (v_.empty()) return 0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(s.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return s[lo] + (s[hi] - s[lo]) * frac;
}

double Samples::sum() const { return std::accumulate(v_.begin(), v_.end(), 0.0); }

double Samples::mean() const {
  return v_.empty() ? 0 : sum() / static_cast<double>(v_.size());
}

std::size_t Samples::beyond(double q) const {
  const double cut = quantile(q);
  return static_cast<std::size_t>(
      std::count_if(v_.begin(), v_.end(), [cut](double v) { return v > cut; }));
}

// --- Tracer ----------------------------------------------------------------

namespace {

/// Spans kept for the written trace; aggregates continue past the cap.
constexpr std::uint64_t kMaxRecords = 100'000;

struct Record {
  const char* name;
  std::uint64_t start;
  std::uint64_t end;
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t request;
};

struct Open {
  const char* name;
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t start;
  std::uint64_t child_ns;
};

struct ThreadBuf {
  std::uint32_t tid = 0;
  std::uint64_t request = 0;
  std::vector<Open> stack;
  std::vector<Record> records;
  std::map<const char*, Tracer::NameStats> stats;  // keyed by literal
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint64_t> g_kept{0};
std::atomic<std::uint64_t> g_dropped{0};
std::mutex g_mutex;
std::vector<std::unique_ptr<ThreadBuf>> g_bufs;  // guarded by g_mutex

ThreadBuf& local_buf() {
  thread_local ThreadBuf* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard<std::mutex> lock{g_mutex};
    g_bufs.push_back(std::make_unique<ThreadBuf>());
    buf = g_bufs.back().get();
    buf->tid = static_cast<std::uint32_t>(g_bufs.size());
    // Reserved, not touched: growing the buffer later would copy it in
    // one burst and stall the traced thread for milliseconds.
    buf->records.reserve(kMaxRecords);
  }
  return *buf;
}

}  // namespace

void Tracer::enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Tracer::set_request(std::uint64_t id) { local_buf().request = id; }

Span::Span(const char* name) : active_(Tracer::enabled()) {
  if (!active_) return;
  ThreadBuf& b = local_buf();
  const std::uint64_t parent = b.stack.empty() ? 0 : b.stack.back().id;
  b.stack.push_back(Open{name, g_next_id.fetch_add(1, std::memory_order_relaxed),
                         parent, now_ns(), 0});
}

Span::~Span() {
  if (!active_) return;
  const std::uint64_t end = now_ns();
  ThreadBuf& b = local_buf();
  const Open open = b.stack.back();
  b.stack.pop_back();
  const std::uint64_t dur = end - open.start;
  if (!b.stack.empty()) b.stack.back().child_ns += dur;
  Tracer::NameStats& st = b.stats[open.name];
  st.calls += 1;
  st.total_ns += dur;
  st.self_ns += dur - std::min(dur, open.child_ns);
  if (g_kept.load(std::memory_order_relaxed) < kMaxRecords) {
    g_kept.fetch_add(1, std::memory_order_relaxed);
    b.records.push_back(
        Record{open.name, open.start, end, open.id, open.parent, b.request});
  } else {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
  }
}

std::map<std::string, Tracer::NameStats> Tracer::summary() {
  std::lock_guard<std::mutex> lock{g_mutex};
  std::map<std::string, NameStats> out;
  for (const auto& buf : g_bufs) {
    for (const auto& [name, st] : buf->stats) {
      NameStats& o = out[name];
      o.calls += st.calls;
      o.total_ns += st.total_ns;
      o.self_ns += st.self_ns;
    }
  }
  return out;
}

std::map<std::string, double> Tracer::layer_self_ms() {
  std::map<std::string, double> out;
  for (const auto& [name, st] : summary()) {
    const std::string layer = name.substr(0, name.find('.'));
    out[layer] += static_cast<double>(st.self_ns) / 1e6;
  }
  return out;
}

std::uint64_t Tracer::kept() { return g_kept.load(); }
std::uint64_t Tracer::dropped() { return g_dropped.load(); }

bool Tracer::write_chrome_trace(const std::string& path) {
  std::lock_guard<std::mutex> lock{g_mutex};
  std::uint64_t t0 = UINT64_MAX;
  for (const auto& buf : g_bufs) {
    for (const Record& r : buf->records) t0 = std::min(t0, r.start);
  }
  std::ofstream out{path};
  if (!out) return false;
  out << "{\"traceEvents\":[";
  bool first = true;
  char line[512];
  for (const auto& buf : g_bufs) {
    for (const Record& r : buf->records) {
      std::snprintf(line, sizeof line,
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                    "\"parent\":%llu,\"request\":%llu}}",
                    first ? "" : ",", r.name, buf->tid,
                    static_cast<double>(r.start - t0) / 1e3,
                    static_cast<double>(r.end - r.start) / 1e3,
                    static_cast<unsigned long long>(r.id),
                    static_cast<unsigned long long>(r.parent),
                    static_cast<unsigned long long>(r.request));
      out << line;
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// --- memory ----------------------------------------------------------------

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t current_rss_bytes() {
  std::ifstream statm{"/proc/self/statm"};
  std::uint64_t pages_total = 0;
  std::uint64_t pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return pages_resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

// --- Report ----------------------------------------------------------------

void Report::check(bool ok, const std::string& what) {
  check_many(1, ok ? 0 : 1, what);
}

void Report::check_many(std::uint64_t n, std::uint64_t bad,
                        const std::string& what) {
  attempted += n;
  failed += bad;
  if (bad > 0 && failures.size() < 16) {
    failures.push_back(what + " (" + std::to_string(bad) + " of " +
                       std::to_string(n) + ")");
  }
}

void Report::samples(const std::string& name, const Samples& s, double q) {
  detail[name + ".samples"] = std::to_string(s.count());
  detail[name + ".beyond"] = std::to_string(s.beyond(q));
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace perfbench
