#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/obs/json.h"

namespace radical {
namespace obs {

namespace {

// FNV-1a over the instrument name: a deterministic per-instrument seed for
// the reservoir RNG, independent of registration order.
uint64_t NameSeed(const std::string& name) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

LatencyHistogram::LatencyHistogram(size_t reservoir_capacity, uint64_t seed)
    : capacity_(reservoir_capacity == 0 ? 1 : reservoir_capacity), rng_(seed) {
  reservoir_.reserve(capacity_);
}

void LatencyHistogram::Record(SimDuration sample) {
  if (count_ == 0) {
    min_ = max_ = sample;
  } else {
    min_ = std::min(min_, sample);
    max_ = std::max(max_, sample);
  }
  ++count_;
  sum_ += sample;
  if (reservoir_.size() < capacity_) {
    reservoir_.push_back(sample);
    sorted_valid_ = false;
    return;
  }
  // Algorithm R: the j-th sample replaces a random slot with probability
  // capacity/j, keeping the reservoir a uniform sample of everything seen.
  const uint64_t j = rng_.NextBelow(count_);
  if (j < capacity_) {
    reservoir_[static_cast<size_t>(j)] = sample;
    sorted_valid_ = false;
  }
}

double LatencyHistogram::MeanMs() const {
  if (count_ == 0) {
    return 0.0;
  }
  return ToMillis(sum_) / static_cast<double>(count_);
}

const std::vector<SimDuration>& LatencyHistogram::Sorted() const {
  if (!sorted_valid_) {
    sorted_ = reservoir_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
  return sorted_;
}

double LatencyHistogram::PercentileMs(double pct) const {
  const std::vector<SimDuration>& s = Sorted();
  if (s.empty()) {
    return 0.0;
  }
  if (s.size() == 1) {
    return ToMillis(s[0]);
  }
  pct = std::min(100.0, std::max(0.0, pct));
  const double pos = pct / 100.0 * static_cast<double>(s.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = static_cast<size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return ToMillis(s[lo]) * (1.0 - frac) + ToMillis(s[hi]) * frac;
}

Summary LatencyHistogram::Summarize() const {
  Summary out;
  out.count = count_;
  if (count_ == 0) {
    return out;
  }
  out.mean_ms = MeanMs();
  out.min_ms = ToMillis(min_);
  out.max_ms = ToMillis(max_);
  out.p50_ms = PercentileMs(50.0);
  out.p90_ms = PercentileMs(90.0);
  out.p99_ms = PercentileMs(99.0);
  return out;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::make_unique<Counter>()).first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

LatencyHistogram* MetricsRegistry::GetHistogram(const std::string& name,
                                                size_t reservoir_capacity) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name,
                      std::make_unique<LatencyHistogram>(reservoir_capacity, NameSeed(name)))
             .first;
  }
  return it->second.get();
}

void MetricsRegistry::AddCallbackGauge(const std::string& name, std::function<int64_t()> read) {
  callback_gauges_[name] = std::move(read);
}

std::string MetricsRegistry::UniqueScopeName(const std::string& base) {
  const int n = ++scope_counts_[base];
  if (n == 1) {
    return base;
  }
  return base + "#" + std::to_string(n);
}

uint64_t MetricsRegistry::CounterValue(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

int64_t MetricsRegistry::GaugeValue(const std::string& name) const {
  const auto g = gauges_.find(name);
  if (g != gauges_.end()) {
    return g->second->value();
  }
  const auto cb = callback_gauges_.find(name);
  return cb == callback_gauges_.end() ? 0 : cb->second();
}

std::map<std::string, uint64_t> MetricsRegistry::CountersWithPrefix(
    const std::string& prefix) const {
  std::map<std::string, uint64_t> out;
  for (auto it = counters_.lower_bound(prefix); it != counters_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) {
      break;
    }
    out.emplace(it->first.substr(prefix.size()), it->second->value());
  }
  return out;
}

std::string MetricsRegistry::SnapshotJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("counters");
  w.BeginObject();
  for (const auto& [name, counter] : counters_) {
    w.Key(name);
    w.Uint(counter->value());
  }
  w.EndObject();
  w.Key("gauges");
  w.BeginObject();
  {
    // Owned and callback gauges share the namespace; merge name-ordered.
    std::map<std::string, int64_t> merged;
    for (const auto& [name, gauge] : gauges_) {
      merged[name] = gauge->value();
    }
    for (const auto& [name, read] : callback_gauges_) {
      merged[name] = read();
    }
    for (const auto& [name, value] : merged) {
      w.Key(name);
      w.Int(value);
    }
  }
  w.EndObject();
  w.Key("histograms");
  w.BeginObject();
  for (const auto& [name, hist] : histograms_) {
    const Summary s = hist->Summarize();
    w.Key(name);
    w.BeginObject();
    w.Key("count");
    w.Uint(s.count);
    w.Key("sum_ms");
    w.Double(ToMillis(hist->sum()), 3);
    w.Key("mean_ms");
    w.Double(s.mean_ms, 3);
    w.Key("min_ms");
    w.Double(s.min_ms, 3);
    w.Key("p50_ms");
    w.Double(s.p50_ms, 3);
    w.Key("p90_ms");
    w.Double(s.p90_ms, 3);
    w.Key("p99_ms");
    w.Double(s.p99_ms, 3);
    w.Key("max_ms");
    w.Double(s.max_ms, 3);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.str();
}

std::string MetricsRegistry::SnapshotText() const {
  std::ostringstream os;
  for (const auto& [name, counter] : counters_) {
    os << name << " " << counter->value() << "\n";
  }
  std::map<std::string, int64_t> merged;
  for (const auto& [name, gauge] : gauges_) {
    merged[name] = gauge->value();
  }
  for (const auto& [name, read] : callback_gauges_) {
    merged[name] = read();
  }
  for (const auto& [name, value] : merged) {
    os << name << " " << value << "\n";
  }
  for (const auto& [name, hist] : histograms_) {
    os << name << " " << hist->Summarize().ToString() << "\n";
  }
  return os.str();
}

MetricsScope::MetricsScope(MetricsRegistry* registry, std::string prefix)
    : registry_(registry), prefix_(std::move(prefix)) {}

void MetricsScope::Increment(const std::string& name, uint64_t by) {
  if (registry_ != nullptr) {
    registry_->GetCounter(Qualified(name))->Increment(by);
  }
}

uint64_t MetricsScope::Get(const std::string& name) const {
  return registry_ == nullptr ? 0 : registry_->CounterValue(Qualified(name));
}

double MetricsScope::RatioOf(const std::string& num, const std::string& denom) const {
  const double n = static_cast<double>(Get(num));
  const double d = static_cast<double>(Get(denom));
  if (n + d == 0.0) {
    return 0.0;
  }
  return n / (n + d);
}

std::map<std::string, uint64_t> MetricsScope::all() const {
  if (registry_ == nullptr) {
    return {};
  }
  return registry_->CountersWithPrefix(prefix_ + ".");
}

Counter* MetricsScope::counter(const std::string& name) const {
  return registry_ == nullptr ? nullptr : registry_->GetCounter(Qualified(name));
}

Gauge* MetricsScope::gauge(const std::string& name) const {
  return registry_ == nullptr ? nullptr : registry_->GetGauge(Qualified(name));
}

LatencyHistogram* MetricsScope::histogram(const std::string& name,
                                          size_t reservoir_capacity) const {
  return registry_ == nullptr ? nullptr
                              : registry_->GetHistogram(Qualified(name), reservoir_capacity);
}

void MetricsScope::AddCallbackGauge(const std::string& name, std::function<int64_t()> read) const {
  if (registry_ != nullptr) {
    registry_->AddCallbackGauge(Qualified(name), std::move(read));
  }
}

}  // namespace obs
}  // namespace radical
