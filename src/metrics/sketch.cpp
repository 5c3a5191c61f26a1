#include "metrics/sketch.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace reorder::metrics {

std::size_t TailSketch::bucket_index(std::uint64_t value) {
  // Values below kSubBuckets get one bucket each (exact); above that,
  // each power-of-two range contributes kSubBuckets linear sub-buckets.
  if (value < kSubBuckets) return static_cast<std::size_t>(value);
  const int magnitude = std::bit_width(value) - 1;  // >= 5
  const int sub_shift = magnitude - 5;              // kSubBuckets == 2^5
  const std::uint64_t sub = (value >> sub_shift) - kSubBuckets;  // [0, kSubBuckets)
  return kSubBuckets + static_cast<std::size_t>(magnitude - 5) * kSubBuckets +
         static_cast<std::size_t>(sub);
}

std::uint64_t TailSketch::bucket_floor(std::size_t index) {
  if (index < kSubBuckets) return index;
  const std::size_t band = (index - kSubBuckets) / kSubBuckets;
  const std::size_t sub = (index - kSubBuckets) % kSubBuckets;
  return (kSubBuckets + sub) << band;
}

void TailSketch::add(std::uint64_t value) {
  const std::size_t i = bucket_index(value);
  if (i >= buckets_.size()) buckets_.resize(i + 1, 0);
  ++buckets_[i];
  if (count_ == 0 || value < min_) min_ = value;
  max_ = std::max(max_, value);
  sum_ += value;
  ++count_;
}

double TailSketch::mean() const {
  return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
}

std::uint64_t TailSketch::quantile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank: the smallest bucket whose cumulative count reaches
  // ceil(q * count), with rank clamped to [1, count].
  std::uint64_t rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_)));
  rank = std::clamp<std::uint64_t>(rank, 1, count_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) return bucket_floor(i);
  }
  return bucket_floor(buckets_.empty() ? 0 : buckets_.size() - 1);
}

void TailSketch::merge(const TailSketch& other) {
  if (other.buckets_.size() > buckets_.size()) buckets_.resize(other.buckets_.size(), 0);
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  if (other.count_ > 0) {
    if (count_ == 0 || other.min_ < min_) min_ = other.min_;
    max_ = std::max(max_, other.max_);
  }
  sum_ += other.sum_;
  count_ += other.count_;
}

report::Json TailSketch::to_json() const {
  report::Json j = report::Json::object();
  j.set("count", count_);
  j.set("min", min());
  j.set("max", max_);
  j.set("mean", mean());
  j.set("p50", quantile(0.50));
  j.set("p90", quantile(0.90));
  j.set("p99", quantile(0.99));
  j.set("sum", report::Json::u64(sum_));
  report::Json buckets = report::Json::array();
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    report::Json pair = report::Json::array();
    pair.push(static_cast<std::uint64_t>(i));
    pair.push(report::Json::u64(buckets_[i]));
    buckets.push(std::move(pair));
  }
  j.set("buckets", std::move(buckets));
  return j;
}

void TailSketch::from_json(const report::Json& j) {
  TailSketch restored;
  restored.count_ = j.at("count").as_u64();
  restored.sum_ = j.at("sum").as_u64();
  restored.max_ = j.at("max").as_u64();
  restored.min_ = restored.count_ == 0 ? 0 : j.at("min").as_u64();
  const std::size_t max_index = bucket_index(std::numeric_limits<std::uint64_t>::max());
  for (const auto& pair : j.at("buckets").items()) {
    const std::uint64_t index = pair.at(0).as_u64();
    if (index > max_index) {
      throw std::invalid_argument{"TailSketch::from_json: bucket index " +
                                  std::to_string(index) + " out of range"};
    }
    if (index >= restored.buckets_.size()) restored.buckets_.resize(index + 1, 0);
    restored.buckets_[index] = pair.at(1).as_u64();
  }
  *this = std::move(restored);
}

}  // namespace reorder::metrics
