// MetricsRegistry: the one observability surface every component feeds.
//
// The paper's evaluation (§5.5, Fig. 6) attributes every millisecond of a
// request to a named component; that only works when the counters live in one
// registry with one naming scheme instead of ad-hoc fields scattered across
// Fabric, LviServer and Runtime. A registry owns three instrument kinds:
//
//   Counter          monotonically increasing event count
//   Gauge            point-in-time level, set or read through a callback
//   LatencyHistogram exact count/sum/min/max plus a deterministic sampling
//                    reservoir for percentile estimation in bounded memory
//
// Names are dot-separated: `<component>[.<instance>].<metric>`, e.g.
// `runtime.CA.speculations`, `lvi_server.validate_success`,
// `fabric.wan.kind.lvi_request.sent` (see docs/observability.md). Instrument
// handles returned by the registry are stable for the registry's lifetime, so
// hot paths resolve them once and bump a plain integer afterwards.
//
// Determinism: snapshots iterate instruments in name order, and each
// histogram's reservoir RNG is seeded from the instrument name — two runs
// with the same seed produce byte-identical SnapshotJson() output (the
// export-determinism test relies on this).

#ifndef RADICAL_SRC_OBS_METRICS_H_
#define RADICAL_SRC_OBS_METRICS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/types.h"

namespace radical {
namespace obs {

class Counter {
 public:
  void Increment(uint64_t by = 1) { value_ += by; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

class Gauge {
 public:
  void Set(int64_t value) { value_ = value; }
  void Add(int64_t delta) { value_ += delta; }
  // High-water update: keeps the largest value ever set (queue-depth peaks).
  void SetMax(int64_t value) {
    if (value > value_) {
      value_ = value;
    }
  }
  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

// Latency histogram with bounded memory: exact count/sum/min/max plus an
// Algorithm-R reservoir of samples for percentile estimation. The reservoir
// RNG is seeded deterministically (from the instrument name), so the same
// sample sequence always keeps the same subset.
class LatencyHistogram {
 public:
  LatencyHistogram(size_t reservoir_capacity, uint64_t seed);

  void Record(SimDuration sample);

  uint64_t count() const { return count_; }
  SimDuration sum() const { return sum_; }
  // Exact extremes over every recorded sample (0 when empty).
  SimDuration min() const { return count_ == 0 ? 0 : min_; }
  SimDuration max() const { return count_ == 0 ? 0 : max_; }
  double MeanMs() const;
  // Percentile estimated over the reservoir; 0.0 when empty (mirrors
  // LatencySampler::PercentileMs).
  double PercentileMs(double pct) const;
  Summary Summarize() const;
  size_t reservoir_size() const { return reservoir_.size(); }

 private:
  const std::vector<SimDuration>& Sorted() const;

  size_t capacity_;
  Rng rng_;
  uint64_t count_ = 0;
  SimDuration sum_ = 0;
  SimDuration min_ = 0;
  SimDuration max_ = 0;
  std::vector<SimDuration> reservoir_;
  mutable std::vector<SimDuration> sorted_;
  mutable bool sorted_valid_ = true;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Instrument lookup creates on first use; the returned pointer is stable
  // for the registry's lifetime (hot paths cache it).
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  LatencyHistogram* GetHistogram(const std::string& name, size_t reservoir_capacity = 1024);

  // Registers a gauge whose value is read through `read` at snapshot time
  // (component-owned statistics: cache hit counts, store sizes, Raft terms).
  // The callback must stay valid while snapshots are taken; replacing an
  // existing name overwrites the callback.
  void AddCallbackGauge(const std::string& name, std::function<int64_t()> read);

  // Reserves a unique instance prefix: returns `base` the first time, then
  // "base#2", "base#3", ... so two components of the same kind on one
  // simulator never alias each other's instruments.
  std::string UniqueScopeName(const std::string& base);

  // Current value of a counter / gauge; 0 when the instrument does not exist
  // (tests read counters that the exercised path may never have created).
  uint64_t CounterValue(const std::string& name) const;
  int64_t GaugeValue(const std::string& name) const;

  // All counters whose name starts with `prefix`, with the prefix stripped.
  std::map<std::string, uint64_t> CountersWithPrefix(const std::string& prefix) const;

  // Machine-readable snapshot of every instrument, name-ordered, byte
  // deterministic for a given seed. Histograms export count/sum and the
  // reservoir-estimated order statistics, not raw samples.
  std::string SnapshotJson() const;
  // Human-readable one-line-per-instrument dump (debugging, bench footers).
  std::string SnapshotText() const;

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::function<int64_t()>> callback_gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
  std::map<std::string, int> scope_counts_;
};

// A component's slice of a registry: every instrument name is prefixed with
// "<prefix>.". Copyable view; the registry must outlive it. Also serves as
// the drop-in replacement for the old per-class `Counters` fields — the
// legacy `counters()` accessors on Runtime/LviServer return one of these.
class MetricsScope {
 public:
  MetricsScope() = default;
  MetricsScope(MetricsRegistry* registry, std::string prefix);

  bool valid() const { return registry_ != nullptr; }
  const std::string& prefix() const { return prefix_; }
  MetricsRegistry* registry() const { return registry_; }

  void Increment(const std::string& name, uint64_t by = 1);
  uint64_t Get(const std::string& name) const;
  // Ratio numerator/(numerator+denominator); 0 if both are zero. (Same
  // contract as the old Counters::RatioOf.)
  double RatioOf(const std::string& num, const std::string& denom) const;
  // This scope's counters, prefix stripped (legacy Counters::all shape).
  std::map<std::string, uint64_t> all() const;

  // Resolved handles for hot paths (nullptr when the scope is invalid).
  Counter* counter(const std::string& name) const;
  Gauge* gauge(const std::string& name) const;
  LatencyHistogram* histogram(const std::string& name, size_t reservoir_capacity = 1024) const;
  void AddCallbackGauge(const std::string& name, std::function<int64_t()> read) const;

 private:
  std::string Qualified(const std::string& name) const { return prefix_ + "." + name; }

  MetricsRegistry* registry_ = nullptr;
  std::string prefix_;
};

}  // namespace obs
}  // namespace radical

#endif  // RADICAL_SRC_OBS_METRICS_H_
