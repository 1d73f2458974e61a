#include "obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <stdexcept>

namespace abrr::obs {
namespace {

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
}

void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

void append_labels_json(std::string& out, const Labels& labels) {
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels.items()) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_escaped(out, k);
    out += "\":\"";
    append_escaped(out, v);
    out += '"';
  }
  out += '}';
}

void append_hist_json(std::string& out, const Histogram& h) {
  out += "\"count\":";
  append_u64(out, h.count());
  out += ",\"sum\":";
  append_double(out, h.sum());
  out += ",\"min\":";
  append_double(out, h.min());
  out += ",\"max\":";
  append_double(out, h.max());
  out += ",\"p50\":";
  append_double(out, h.quantile(0.50));
  out += ",\"p95\":";
  append_double(out, h.quantile(0.95));
  out += ",\"p99\":";
  append_double(out, h.quantile(0.99));
  out += ",\"buckets\":[";
  const std::vector<std::uint64_t> buckets = h.buckets();
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (i) out += ',';
    out += "{\"le\":";
    if (i < h.bounds().size()) {
      append_double(out, h.bounds()[i]);
    } else {
      out += "\"+inf\"";
    }
    out += ",\"n\":";
    append_u64(out, buckets[i]);
    out += '}';
  }
  out += ']';
}

}  // namespace

Labels::Labels(
    std::initializer_list<std::pair<std::string, std::string>> kv) {
  for (const auto& [k, v] : kv) set(k, v);
}

void Labels::set(std::string key, std::string value) {
  const auto it = std::lower_bound(
      kv_.begin(), kv_.end(), key,
      [](const auto& pair, const std::string& k) { return pair.first < k; });
  if (it != kv_.end() && it->first == key) {
    it->second = std::move(value);
  } else {
    kv_.insert(it, {std::move(key), std::move(value)});
  }
}

bool Labels::contains(const Labels& subset) const {
  for (const auto& [k, v] : subset.kv_) {
    const auto it = std::lower_bound(
        kv_.begin(), kv_.end(), k,
        [](const auto& pair, const std::string& key) {
          return pair.first < key;
        });
    if (it == kv_.end() || it->first != k || it->second != v) return false;
  }
  return true;
}

std::string Labels::render() const {
  std::string out = "{";
  for (std::size_t i = 0; i < kv_.size(); ++i) {
    if (i) out += ',';
    out += kv_[i].first;
    out += '=';
    out += kv_[i].second;
  }
  out += '}';
  return out;
}

Histogram::Histogram(std::vector<double> bounds) {
  if (bounds.empty() || !std::is_sorted(bounds.begin(), bounds.end())) {
    throw std::invalid_argument{"histogram: bounds must be ascending"};
  }
  bounds_ = std::move(bounds);
  buckets_.resize(bounds_.size() + 1);
}

void Histogram::merge(const Histogram& other) {
  if (other.count() == 0 && other.bounds_.empty()) return;
  if (buckets_.empty()) {
    bounds_ = other.bounds_;
    buckets_ = other.buckets_;
  } else if (bounds_ == other.bounds_) {
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      buckets_[i].add(other.buckets_[i].load());
    }
  } else {
    // Mismatched bucketing: fold into overflow, never silently mis-bin.
    buckets_.back().add(other.count());
  }
  const std::uint64_t n = other.count();
  if (n > 0) {
    if (count() == 0) {
      min_.store(other.min_.load());
      max_.store(other.max_.load());
    } else {
      min_.store(std::min(min_.load(), other.min_.load()));
      max_.store(std::max(max_.load(), other.max_.load()));
    }
  }
  count_.add(n);
  sum_.add(other.sum());
}

void Histogram::record(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())].add(1);
  const std::uint64_t n = count_.load();
  if (n == 0) {
    min_.store(v);
    max_.store(v);
  } else {
    min_.store(std::min(min_.load(), v));
    max_.store(std::max(max_.load(), v));
  }
  count_.store(n + 1);
  sum_.add(v);
}

std::vector<std::uint64_t> Histogram::buckets() const {
  std::vector<std::uint64_t> out;
  out.reserve(buckets_.size());
  for (const Cell<std::uint64_t>& b : buckets_) out.push_back(b.load());
  return out;
}

double Histogram::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(q * static_cast<double>(n) + 0.5));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    cum += buckets_[i].load();
    if (cum >= rank) {
      // A bucket bound can exceed the largest observed value; never
      // report a quantile above the true max.
      return i < bounds_.size() ? std::min(bounds_[i], max()) : max();
    }
  }
  return max();
}

std::vector<double> size_buckets() {
  std::vector<double> b;
  for (double v = 1; v <= 65536; v *= 2) b.push_back(v);
  return b;
}

std::vector<double> byte_buckets() {
  std::vector<double> b;
  for (double v = 16; v <= 1024.0 * 1024 * 1024; v *= 4) b.push_back(v);
  return b;
}

std::vector<double> latency_buckets_ns() {
  std::vector<double> b;
  for (double decade = 1; decade <= 1e9; decade *= 10) {
    b.push_back(decade);
    b.push_back(decade * 2);
    b.push_back(decade * 5);
  }
  b.push_back(1e10);
  return b;
}

std::string MetricsRegistry::key_of(std::string_view name,
                                    const Labels& labels) {
  std::string key{name};
  key += '|';
  key += labels.render();
  return key;
}

Counter* MetricsRegistry::counter(std::string_view name,
                                  const Labels& labels) {
  const std::string key = key_of(name, labels);
  const std::lock_guard<std::mutex> lock{mutex_};
  const auto it = counter_index_.find(key);
  if (it != counter_index_.end()) return &counters_[it->second];
  counters_.emplace_back();
  counter_info_.push_back({std::string{name}, labels});
  counter_index_.emplace(key, counters_.size() - 1);
  return &counters_.back();
}

Gauge* MetricsRegistry::gauge(std::string_view name, const Labels& labels) {
  const std::string key = key_of(name, labels);
  const std::lock_guard<std::mutex> lock{mutex_};
  const auto it = gauge_index_.find(key);
  if (it != gauge_index_.end()) return &gauges_[it->second];
  gauges_.emplace_back();
  gauge_info_.push_back({std::string{name}, labels});
  gauge_index_.emplace(key, gauges_.size() - 1);
  return &gauges_.back();
}

Histogram* MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds,
                                      const Labels& labels) {
  const std::string key = key_of(name, labels);
  const std::lock_guard<std::mutex> lock{mutex_};
  const auto it = histogram_index_.find(key);
  if (it != histogram_index_.end()) return &histograms_[it->second];
  histograms_.emplace_back(std::move(bounds));
  histogram_info_.push_back({std::string{name}, labels});
  histogram_index_.emplace(key, histograms_.size() - 1);
  return &histograms_.back();
}

std::size_t MetricsRegistry::counter_count() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return counters_.size();
}

std::size_t MetricsRegistry::name_count() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  std::vector<std::string_view> names;
  names.reserve(counter_info_.size() + gauge_info_.size() +
                histogram_info_.size());
  for (const auto& i : counter_info_) names.push_back(i.name);
  for (const auto& i : gauge_info_) names.push_back(i.name);
  for (const auto& i : histogram_info_) names.push_back(i.name);
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names.size();
}

std::uint64_t MetricsRegistry::sum_counters(std::string_view name,
                                            const Labels& filter) const {
  const std::lock_guard<std::mutex> lock{mutex_};
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    const MetricInfo& info = counter_info_[i];
    if (info.name == name && info.labels.contains(filter)) {
      total += counters_[i].value();
    }
  }
  return total;
}

Histogram MetricsRegistry::merge_histograms(std::string_view name,
                                            const Labels& filter) const {
  const std::lock_guard<std::mutex> lock{mutex_};
  Histogram merged;
  for (std::size_t i = 0; i < histograms_.size(); ++i) {
    const MetricInfo& info = histogram_info_[i];
    if (info.name == name && info.labels.contains(filter)) {
      merged.merge(histograms_[i]);
    }
  }
  return merged;
}

void MetricsRegistry::for_each_counter(
    const std::function<void(const MetricInfo&, const Counter&)>& fn) const {
  const std::lock_guard<std::mutex> lock{mutex_};
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    fn(counter_info_[i], counters_[i]);
  }
}

std::string MetricsRegistry::to_json(bool aggregate) const {
  const std::lock_guard<std::mutex> lock{mutex_};
  std::string out = "{\n  \"counters\": [";

  if (aggregate) {
    // std::map: deterministic name order in the dump.
    std::map<std::string, std::uint64_t> csums;
    for (std::size_t i = 0; i < counters_.size(); ++i) {
      csums[counter_info_[i].name] += counters_[i].value();
    }
    bool first = true;
    for (const auto& [name, value] : csums) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "    {\"name\":\"";
      append_escaped(out, name);
      out += "\",\"value\":";
      append_u64(out, value);
      out += '}';
    }
    out += "\n  ],\n  \"gauges\": [";
    std::map<std::string, double> gsums;
    for (std::size_t i = 0; i < gauges_.size(); ++i) {
      gsums[gauge_info_[i].name] += gauges_[i].value();
    }
    first = true;
    for (const auto& [name, value] : gsums) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "    {\"name\":\"";
      append_escaped(out, name);
      out += "\",\"value\":";
      append_double(out, value);
      out += '}';
    }
    out += "\n  ],\n  \"histograms\": [";
    std::map<std::string, Histogram> hsums;
    for (std::size_t i = 0; i < histograms_.size(); ++i) {
      hsums[histogram_info_[i].name].merge(histograms_[i]);
    }
    first = true;
    for (const auto& [name, merged] : hsums) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "    {\"name\":\"";
      append_escaped(out, name);
      out += "\",";
      append_hist_json(out, merged);
      out += '}';
    }
    out += "\n  ]\n}\n";
    return out;
  }

  for (std::size_t i = 0; i < counters_.size(); ++i) {
    out += i ? ",\n" : "\n";
    out += "    {\"name\":\"";
    append_escaped(out, counter_info_[i].name);
    out += "\",\"labels\":";
    append_labels_json(out, counter_info_[i].labels);
    out += ",\"value\":";
    append_u64(out, counters_[i].value());
    out += '}';
  }
  out += "\n  ],\n  \"gauges\": [";
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    out += i ? ",\n" : "\n";
    out += "    {\"name\":\"";
    append_escaped(out, gauge_info_[i].name);
    out += "\",\"labels\":";
    append_labels_json(out, gauge_info_[i].labels);
    out += ",\"value\":";
    append_double(out, gauges_[i].value());
    out += '}';
  }
  out += "\n  ],\n  \"histograms\": [";
  for (std::size_t i = 0; i < histograms_.size(); ++i) {
    out += i ? ",\n" : "\n";
    out += "    {\"name\":\"";
    append_escaped(out, histogram_info_[i].name);
    out += "\",\"labels\":";
    append_labels_json(out, histogram_info_[i].labels);
    out += ',';
    append_hist_json(out, histograms_[i]);
    out += '}';
  }
  out += "\n  ]\n}\n";
  return out;
}

void MetricsRegistry::write_json(const std::string& path,
                                 bool aggregate) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error{"metrics: cannot write " + path};
  }
  const std::string json = to_json(aggregate);
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
}

}  // namespace abrr::obs
