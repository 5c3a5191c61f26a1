// Sample- and measurement-level metrics: the paper's pair-probability
// analytics ported onto the streaming Metric contract, plus adapters that
// lift the stats-layer accumulators (Ecdf, Histogram) and the tail sketch
// into suites. All of these merge exactly under any contiguous split of
// the event stream.
#pragma once

#include <cstdint>
#include <vector>

#include "core/metrics.hpp"
#include "core/verdict.hpp"
#include "metrics/metric.hpp"
#include "metrics/sketch.hpp"
#include "stats/ecdf.hpp"
#include "stats/histogram.hpp"

namespace reorder::metrics {

/// Pooled per-direction verdict counts over every admissible
/// measurement — the ReorderEstimate aggregate the session-era query API
/// reports. Pools the measurement-level estimates rather than re-tallying
/// samples: some techniques report counts without per-sample verdicts
/// (ping-burst) or deliberately blank a direction (data transfer).
class PairRateMetric final : public Metric {
 public:
  static constexpr std::string_view kName = "pair_rate";

  std::string_view name() const override { return kName; }
  void observe_measurement(const core::MeasurementEvent& e) override;
  std::unique_ptr<Metric> snapshot() const override;
  void merge(const Metric& other) override;
  report::Json to_json() const override;
  void from_json(const report::Json& j) override;

  const core::ReorderEstimate& forward() const { return forward_; }
  const core::ReorderEstimate& reverse() const { return reverse_; }

 private:
  core::ReorderEstimate forward_;
  core::ReorderEstimate reverse_;
};

/// Per-measurement mean reordering rates in completion order — the paired
/// series the §IV-B comparison consumes. Merge is concatenation, exact
/// when shards hold contiguous slices of the completion order (the
/// engine's partitioning).
class RateSeriesMetric final : public Metric {
 public:
  static constexpr std::string_view kName = "rate_series";

  std::string_view name() const override { return kName; }
  void observe_measurement(const core::MeasurementEvent& e) override;
  std::unique_ptr<Metric> snapshot() const override;
  void merge(const Metric& other) override;
  report::Json to_json() const override;
  void from_json(const report::Json& j) override;

  const std::vector<double>& forward() const { return forward_; }
  const std::vector<double>& reverse() const { return reverse_; }

 private:
  std::vector<double> forward_;
  std::vector<double> reverse_;
};

/// The §IV-C time-domain representation: forward reorder rate keyed by the
/// sample's inter-packet gap.
class TimeDomainMetric final : public Metric {
 public:
  static constexpr std::string_view kName = "time_domain";

  std::string_view name() const override { return kName; }
  void observe(const core::SampleEvent& e) override;
  std::unique_ptr<Metric> snapshot() const override;
  void merge(const Metric& other) override;
  report::Json to_json() const override;
  void from_json(const report::Json& j) override;

  const core::TimeDomainProfile& profile() const { return profile_; }

 private:
  core::TimeDomainProfile profile_;
};

/// stats::Ecdf adapter: the empirical distribution of per-measurement
/// forward rates (a per-target Figure-5 view). Merge is sample-multiset
/// union — the lazily sorted Ecdf renders identically however the stream
/// was split.
class RateEcdfMetric final : public Metric {
 public:
  static constexpr std::string_view kName = "rate_ecdf";

  std::string_view name() const override { return kName; }
  void observe_measurement(const core::MeasurementEvent& e) override;
  std::unique_ptr<Metric> snapshot() const override;
  void merge(const Metric& other) override;
  report::Json to_json() const override;
  void from_json(const report::Json& j) override;

  const stats::Ecdf& forward() const { return forward_; }

 private:
  stats::Ecdf forward_;
};

/// stats::Histogram adapter over per-sample completion latencies
/// (completed - started), in microseconds. Merge is a bin-wise sum.
class LatencyHistogramMetric final : public Metric {
 public:
  static constexpr std::string_view kName = "latency_histogram";
  /// The most bins a histogram may have. from_json sizes the histogram by
  /// the record's `nbins`, so a restored record past this bound is
  /// rejected (std::invalid_argument) before anything is allocated; the
  /// constructor enforces the same bound, so every live histogram restores.
  static constexpr std::size_t kMaxBins = std::size_t{1} << 16;

  /// Throws std::invalid_argument on an empty range or bins outside
  /// [1, kMaxBins].
  LatencyHistogramMetric(double lo_us = 0.0, double hi_us = 1'000'000.0,
                         std::size_t bins = 50);

  std::string_view name() const override { return kName; }
  void observe(const core::SampleEvent& e) override;
  std::unique_ptr<Metric> snapshot() const override;
  void merge(const Metric& other) override;
  report::Json to_json() const override;
  void from_json(const report::Json& j) override;

  const stats::Histogram& histogram() const { return histogram_; }

 private:
  stats::Histogram histogram_;
};

/// Tail quantile sketch over the "late time" of reordered samples: how
/// long the displaced pair took from first transmission to verdict
/// (completed - started, ns). The RFC 4737 lateness view at survey scale,
/// kept as a log-bucketed sketch so shards merge exactly.
class LateTimeMetric final : public Metric {
 public:
  static constexpr std::string_view kName = "late_time";

  std::string_view name() const override { return kName; }
  void observe(const core::SampleEvent& e) override;
  std::unique_ptr<Metric> snapshot() const override;
  void merge(const Metric& other) override;
  report::Json to_json() const override;
  void from_json(const report::Json& j) override;

  const TailSketch& sketch() const { return sketch_; }

 private:
  TailSketch sketch_;
};

}  // namespace reorder::metrics
