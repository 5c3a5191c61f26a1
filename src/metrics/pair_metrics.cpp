#include "metrics/pair_metrics.hpp"

#include <stdexcept>
#include <string>

#include "report/sinks.hpp"

namespace reorder::metrics {

namespace {

// The canonical count rendering (shared with the `measurement` JSONL
// records), plus the derived rate for snapshot consumers.
report::Json estimate_json(const core::ReorderEstimate& e) {
  report::Json j = report::to_json(e);
  if (const auto rate = e.rate()) j.set("rate", *rate);
  return j;
}

}  // namespace

// ------------------------------------------------------- PairRateMetric

void PairRateMetric::observe_measurement(const core::MeasurementEvent& e) {
  if (!e.result.admissible) return;
  forward_ += e.result.forward;
  reverse_ += e.result.reverse;
}

std::unique_ptr<Metric> PairRateMetric::snapshot() const {
  return std::make_unique<PairRateMetric>(*this);
}

void PairRateMetric::merge(const Metric& other) {
  const auto& o = expect<PairRateMetric>(other, kName);
  forward_ += o.forward_;
  reverse_ += o.reverse_;
}

report::Json PairRateMetric::to_json() const {
  report::Json j = report::Json::object();
  j.set("fwd", estimate_json(forward_));
  j.set("rev", estimate_json(reverse_));
  return j;
}

void PairRateMetric::from_json(const report::Json& j) {
  forward_ = report::estimate_from_json(j.at("fwd"));
  reverse_ = report::estimate_from_json(j.at("rev"));
}

// ----------------------------------------------------- RateSeriesMetric

void RateSeriesMetric::observe_measurement(const core::MeasurementEvent& e) {
  if (!e.result.admissible) return;
  if (const auto rate = e.result.forward.rate()) forward_.push_back(*rate);
  if (const auto rate = e.result.reverse.rate()) reverse_.push_back(*rate);
}

std::unique_ptr<Metric> RateSeriesMetric::snapshot() const {
  return std::make_unique<RateSeriesMetric>(*this);
}

void RateSeriesMetric::merge(const Metric& other) {
  const auto& o = expect<RateSeriesMetric>(other, kName);
  forward_.insert(forward_.end(), o.forward_.begin(), o.forward_.end());
  reverse_.insert(reverse_.end(), o.reverse_.begin(), o.reverse_.end());
}

report::Json RateSeriesMetric::to_json() const {
  report::Json fwd = report::Json::array();
  for (const double r : forward_) fwd.push(r);
  report::Json rev = report::Json::array();
  for (const double r : reverse_) rev.push(r);
  report::Json j = report::Json::object();
  j.set("fwd", std::move(fwd));
  j.set("rev", std::move(rev));
  return j;
}

void RateSeriesMetric::from_json(const report::Json& j) {
  forward_.clear();
  reverse_.clear();
  for (const auto& r : j.at("fwd").items()) forward_.push_back(r.as_double());
  for (const auto& r : j.at("rev").items()) reverse_.push_back(r.as_double());
}

// ----------------------------------------------------- TimeDomainMetric

void TimeDomainMetric::observe(const core::SampleEvent& e) {
  profile_.add(e.sample.gap, e.sample.forward);
}

std::unique_ptr<Metric> TimeDomainMetric::snapshot() const {
  return std::make_unique<TimeDomainMetric>(*this);
}

void TimeDomainMetric::merge(const Metric& other) {
  profile_.merge(expect<TimeDomainMetric>(other, kName).profile_);
}

report::Json TimeDomainMetric::to_json() const {
  report::Json points = report::Json::array();
  for (const auto& p : profile_.points()) {
    report::Json point = report::Json::object();
    point.set("gap_ns", p.gap.ns());
    point.set("in_order", p.estimate.in_order);
    point.set("reordered", p.estimate.reordered);
    point.set("ambiguous", p.estimate.ambiguous);
    point.set("lost", p.estimate.lost);
    if (const auto rate = p.estimate.rate()) point.set("rate", *rate);
    points.push(std::move(point));
  }
  report::Json j = report::Json::object();
  j.set("points", std::move(points));
  return j;
}

void TimeDomainMetric::from_json(const report::Json& j) {
  profile_ = core::TimeDomainProfile{};
  for (const auto& point : j.at("points").items()) {
    core::ReorderEstimate estimate;
    estimate.in_order = point.at("in_order").as_u64();
    estimate.reordered = point.at("reordered").as_u64();
    estimate.ambiguous = point.at("ambiguous").as_u64();
    estimate.lost = point.at("lost").as_u64();
    profile_.add(util::Duration::nanos(point.at("gap_ns").as_int()), estimate);
  }
}

// ------------------------------------------------------- RateEcdfMetric

void RateEcdfMetric::observe_measurement(const core::MeasurementEvent& e) {
  if (!e.result.admissible) return;
  if (const auto rate = e.result.forward.rate()) forward_.add(*rate);
}

std::unique_ptr<Metric> RateEcdfMetric::snapshot() const {
  return std::make_unique<RateEcdfMetric>(*this);
}

void RateEcdfMetric::merge(const Metric& other) {
  forward_.merge(expect<RateEcdfMetric>(other, kName).forward_);
}

report::Json RateEcdfMetric::to_json() const {
  report::Json j = report::Json::object();
  j.set("count", forward_.count());
  if (!forward_.empty()) {
    j.set("min", forward_.min());
    j.set("p50", forward_.quantile(0.5));
    j.set("p90", forward_.quantile(0.9));
    j.set("max", forward_.max());
  }
  // The full sample multiset, sorted — lossless (an Ecdf's queries see
  // only the sorted multiset) and a pure function of the accumulated
  // state however the stream was split across shards.
  report::Json samples = report::Json::array();
  for (const double r : forward_.sorted()) samples.push(r);
  j.set("samples", std::move(samples));
  return j;
}

void RateEcdfMetric::from_json(const report::Json& j) {
  forward_ = stats::Ecdf{};
  for (const auto& r : j.at("samples").items()) forward_.add(r.as_double());
}

// ----------------------------------------------- LatencyHistogramMetric

namespace {

std::size_t checked_bins(std::uint64_t bins) {
  if (bins < 1 || bins > LatencyHistogramMetric::kMaxBins) {
    throw std::invalid_argument{"latency_histogram: " + std::to_string(bins) +
                                " bins outside [1, " +
                                std::to_string(LatencyHistogramMetric::kMaxBins) + "]"};
  }
  return static_cast<std::size_t>(bins);
}

}  // namespace

LatencyHistogramMetric::LatencyHistogramMetric(double lo_us, double hi_us, std::size_t bins)
    : histogram_{lo_us, hi_us, checked_bins(bins)} {}

void LatencyHistogramMetric::observe(const core::SampleEvent& e) {
  histogram_.add(static_cast<double>((e.sample.completed - e.sample.started).ns()) / 1e3);
}

std::unique_ptr<Metric> LatencyHistogramMetric::snapshot() const {
  return std::make_unique<LatencyHistogramMetric>(*this);
}

void LatencyHistogramMetric::merge(const Metric& other) {
  histogram_.merge(expect<LatencyHistogramMetric>(other, kName).histogram_);
}

report::Json LatencyHistogramMetric::to_json() const {
  report::Json j = report::Json::object();
  j.set("count", histogram_.count());
  j.set("underflow", histogram_.underflow());
  j.set("overflow", histogram_.overflow());
  // Binning configuration + per-bin indices make the rendering lossless
  // (bin edges alone would need a fragile float inversion to restore).
  j.set("lo", histogram_.lo());
  j.set("hi", histogram_.hi());
  j.set("nbins", histogram_.bins());
  report::Json bins = report::Json::array();
  for (std::size_t i = 0; i < histogram_.bins(); ++i) {
    if (histogram_.bin_count(i) == 0) continue;
    report::Json bin = report::Json::object();
    bin.set("i", i);
    bin.set("lo_us", histogram_.bin_lo(i));
    bin.set("count", histogram_.bin_count(i));
    bins.push(std::move(bin));
  }
  j.set("bins", std::move(bins));
  return j;
}

void LatencyHistogramMetric::from_json(const report::Json& j) {
  histogram_ = stats::Histogram{j.at("lo").as_double(), j.at("hi").as_double(),
                                checked_bins(j.at("nbins").as_u64())};
  histogram_.add_underflow(j.at("underflow").as_int());
  histogram_.add_overflow(j.at("overflow").as_int());
  for (const auto& bin : j.at("bins").items()) {
    histogram_.add_bin(static_cast<std::size_t>(bin.at("i").as_int()),
                       bin.at("count").as_int());
  }
}

// ------------------------------------------------------- LateTimeMetric

void LateTimeMetric::observe(const core::SampleEvent& e) {
  if (e.sample.forward != core::Ordering::kReordered &&
      e.sample.reverse != core::Ordering::kReordered) {
    return;
  }
  const std::int64_t ns = (e.sample.completed - e.sample.started).ns();
  sketch_.add(ns < 0 ? 0 : static_cast<std::uint64_t>(ns));
}

std::unique_ptr<Metric> LateTimeMetric::snapshot() const {
  return std::make_unique<LateTimeMetric>(*this);
}

void LateTimeMetric::merge(const Metric& other) {
  sketch_.merge(expect<LateTimeMetric>(other, kName).sketch_);
}

report::Json LateTimeMetric::to_json() const { return sketch_.to_json(); }

void LateTimeMetric::from_json(const report::Json& j) { sketch_.from_json(j); }

}  // namespace reorder::metrics
