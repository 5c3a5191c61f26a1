#include "metrics/sequence_metrics.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace reorder::metrics {

namespace {

/// Merges the adjacent nondecreasing runs v[lo, mid) and v[mid, hi) in
/// place and returns how many pairs (left, right) have left > right. A
/// left prefix at or below the right run's minimum, and a right suffix at
/// or above the left run's maximum, are already in place and pair with
/// nothing, so only the overlap between them is merged.
std::uint64_t merge_runs(std::uint32_t* v, std::size_t lo, std::size_t mid, std::size_t hi,
                         std::vector<std::uint32_t>& scratch) {
  if (v[mid - 1] <= v[mid]) return 0;
  lo = static_cast<std::size_t>(std::upper_bound(v + lo, v + mid, v[mid]) - v);
  hi = static_cast<std::size_t>(std::lower_bound(v + mid, v + hi, v[mid - 1]) - v);
  scratch.assign(v + lo, v + mid);
  const std::size_t left = scratch.size();
  std::uint64_t pairs = 0;
  std::size_t i = 0;
  std::size_t j = mid;
  std::size_t out = lo;
  while (i < left && j < hi) {
    if (v[j] < scratch[i]) {
      pairs += left - i;
      v[out++] = v[j++];
    } else {
      v[out++] = scratch[i++];
    }
  }
  std::copy(scratch.begin() + static_cast<std::ptrdiff_t>(i), scratch.end(), v + out);
  return pairs;
}

/// Pairs i < j with v[i] > v[j], counted by a bottom-up merge of v's
/// maximal nondecreasing runs; sorts v. An in-order sequence is one run
/// and costs one scan; k runs cost ceil(log2 k) merge rounds, each
/// touching only the overlapping middles of its run pairs.
std::uint64_t count_inversions_sorting(std::vector<std::uint32_t>& v) {
  thread_local std::vector<std::size_t> bounds;
  thread_local std::vector<std::uint32_t> scratch;
  const std::size_t n = v.size();
  bounds.clear();
  bounds.push_back(0);
  for (std::size_t i = 1; i < n; ++i) {
    if (v[i] < v[i - 1]) bounds.push_back(i);
  }
  bounds.push_back(n);
  std::uint64_t pairs = 0;
  std::size_t runs = bounds.size() - 1;
  while (runs > 1) {
    std::size_t kept = 0;
    std::size_t k = 0;
    for (; k + 2 <= runs; k += 2) {
      pairs += merge_runs(v.data(), bounds[k], bounds[k + 1], bounds[k + 2], scratch);
      bounds[kept++] = bounds[k];
    }
    if (k < runs) bounds[kept++] = bounds[k];
    bounds[kept++] = n;
    bounds.resize(kept);
    runs = kept - 1;
  }
  return pairs;
}

}  // namespace

// -------------------------------------------------- SequenceExtentMetric

void SequenceExtentMetric::observe_arrival(std::uint32_t send_index) {
  const std::uint64_t position = sent_.size();
  ++packets_;
  if (!records_.empty() && records_.back().send_index > send_index) {
    // Reordered (RFC 4737 type-P-reordered): a larger send index already
    // arrived. The extent is the distance back to the earliest such
    // arrival, which is always a prefix-maximum record.
    const auto it = std::upper_bound(
        records_.begin(), records_.end(), send_index,
        [](std::uint32_t value, const Record& r) { return r.send_index > value; });
    const auto extent = static_cast<std::uint32_t>(position - it->position);
    ++reordered_;
    extent_sum_ += extent;
    max_extent_ = std::max(max_extent_, extent);
    extent_tail_.add(extent);
    disordered_ = true;
  } else if (records_.empty() || send_index > records_.back().send_index) {
    records_.push_back(Record{position, send_index});
  }
  sent_.push_back(send_index);
}

void SequenceExtentMetric::observe_arrivals(const std::uint32_t* send_indices,
                                            std::size_t count) {
  // The scalar recurrence, with its in-order case bulked. An arrival
  // whose send index exceeds the running prefix maximum (records_.back())
  // is exactly: not reordered, one record appended, one send index kept —
  // so a strictly-increasing stretch above the maximum reduces to two
  // bulk appends. Anything else falls back to the scalar step for that
  // arrival. Bit-exact by case analysis; the ingest equivalence tests
  // hold it to that over every scenario.
  std::size_t i = 0;
  while (i < count) {
    if (!records_.empty() && send_indices[i] <= records_.back().send_index) {
      observe_arrival(send_indices[i]);
      ++i;
      continue;
    }
    std::size_t j = i + 1;
    while (j < count && send_indices[j] > send_indices[j - 1]) ++j;
    const std::size_t len = j - i;
    const std::uint64_t position = sent_.size();
    const std::size_t base = records_.size();
    records_.resize(base + len);
    for (std::size_t t = 0; t < len; ++t) {
      records_[base + t] = Record{position + t, send_indices[i + t]};
    }
    sent_.insert(sent_.end(), send_indices + i, send_indices + j);
    packets_ += len;
    i = j;
  }
}

void SequenceExtentMetric::prefetch_state() const {
  if (!records_.empty()) __builtin_prefetch(records_.data() + records_.size() - 1, 1);
  if (!sent_.empty()) __builtin_prefetch(sent_.data() + sent_.size() - 1, 1);
}

void SequenceExtentMetric::end_sequence() {
  if (sent_.empty()) return;
  ++sequences_;
  if (disordered_) inversions_ += count_inversions_sorting(sent_);
  records_.clear();
  sent_.clear();
  disordered_ = false;
}

std::unique_ptr<Metric> SequenceExtentMetric::snapshot() const {
  return std::make_unique<SequenceExtentMetric>(*this);
}

void SequenceExtentMetric::merge(const Metric& other) {
  const auto& o = expect<SequenceExtentMetric>(other, kName);
  if (!sent_.empty() || !o.sent_.empty()) {
    throw std::invalid_argument{"SequenceExtentMetric::merge: open sequence (call end_sequence)"};
  }
  packets_ += o.packets_;
  reordered_ += o.reordered_;
  extent_sum_ += o.extent_sum_;
  max_extent_ = std::max(max_extent_, o.max_extent_);
  inversions_ += o.inversions_;
  sequences_ += o.sequences_;
  extent_tail_.merge(o.extent_tail_);
}

report::Json SequenceExtentMetric::to_json() const {
  report::Json j = report::Json::object();
  j.set("sequences", sequences_);
  j.set("packets", packets_);
  j.set("reordered", reordered_);
  j.set("ratio", ratio());
  j.set("max_extent", static_cast<std::uint64_t>(max_extent_));
  j.set("mean_extent", mean_extent());
  j.set("extent_sum", report::Json::u64(extent_sum_));
  j.set("inversions", report::Json::u64(inversions_));
  j.set("extent_tail", extent_tail_.to_json());
  return j;
}

void SequenceExtentMetric::from_json(const report::Json& j) {
  SequenceExtentMetric restored;
  restored.sequences_ = j.at("sequences").as_u64();
  restored.packets_ = j.at("packets").as_u64();
  restored.reordered_ = j.at("reordered").as_u64();
  restored.extent_sum_ = j.at("extent_sum").as_u64();
  restored.max_extent_ = static_cast<std::uint32_t>(j.at("max_extent").as_u64());
  restored.inversions_ = j.at("inversions").as_u64();
  restored.extent_tail_.from_json(j.at("extent_tail"));
  *this = std::move(restored);
}

// ----------------------------------------------------- NReorderingMetric

void NReorderingMetric::observe_arrival(std::uint32_t send_index) {
  open_ = true;
  if (!stack_.empty() && stack_.back().send_index < send_index) {
    // In-order fast path: the stack top is always the previous arrival
    // (pushed at position_ - 1), so when it was sent earlier the binary
    // search would land past the end, n would be 0, and the pop loop
    // would pop nothing — skip straight to the push.
    ++packets_;
    stack_.push_back(Entry{position_, send_index});
    ++position_;
    return;
  }
  // RFC 5236: the packet is n-reordered when the n arrivals immediately
  // before it were all sent after it. n = current position - 1 - (latest
  // earlier position whose send index is smaller). The monotonic stack
  // holds (position, send index) with strictly increasing values, so that
  // latest smaller-valued position is found by binary search.
  const auto it = std::lower_bound(
      stack_.begin(), stack_.end(), send_index,
      [](const Entry& e, std::uint32_t value) { return e.send_index < value; });
  const std::int64_t boundary = it == stack_.begin() ? -1 : static_cast<std::int64_t>(
                                                               std::prev(it)->position);
  const auto n = static_cast<std::uint64_t>(static_cast<std::int64_t>(position_) - 1 - boundary);
  if (n > 0) ++density_[n];
  ++packets_;
  while (!stack_.empty() && stack_.back().send_index >= send_index) stack_.pop_back();
  stack_.push_back(Entry{position_, send_index});
  ++position_;
}

void NReorderingMetric::observe_arrivals(const std::uint32_t* send_indices, std::size_t count) {
  // Scalar recurrence with the in-order case bulked: an arrival above the
  // stack top (always the previous arrival) has n == 0 and pops nothing,
  // so a strictly-increasing stretch is a straight append to the stack.
  std::size_t i = 0;
  while (i < count) {
    if (!stack_.empty() && send_indices[i] <= stack_.back().send_index) {
      observe_arrival(send_indices[i]);
      ++i;
      continue;
    }
    std::size_t j = i + 1;
    while (j < count && send_indices[j] > send_indices[j - 1]) ++j;
    const std::size_t len = j - i;
    open_ = true;
    const std::size_t base = stack_.size();
    stack_.resize(base + len);
    for (std::size_t t = 0; t < len; ++t) {
      stack_[base + t] = Entry{position_ + t, send_indices[i + t]};
    }
    packets_ += len;
    position_ += len;
    i = j;
  }
}

void NReorderingMetric::prefetch_state() const {
  if (!stack_.empty()) __builtin_prefetch(stack_.data() + stack_.size() - 1, 1);
}

void NReorderingMetric::end_sequence() {
  if (!open_) return;
  stack_.clear();
  position_ = 0;
  open_ = false;
}

std::uint64_t NReorderingMetric::count_for(std::uint64_t n) const {
  const auto it = density_.find(n);
  return it == density_.end() ? 0 : it->second;
}

double NReorderingMetric::reordered_fraction() const {
  if (packets_ == 0) return 0.0;
  std::uint64_t reordered = 0;
  for (const auto& [n, count] : density_) reordered += count;
  return static_cast<double>(reordered) / static_cast<double>(packets_);
}

std::unique_ptr<Metric> NReorderingMetric::snapshot() const {
  return std::make_unique<NReorderingMetric>(*this);
}

void NReorderingMetric::merge(const Metric& other) {
  const auto& o = expect<NReorderingMetric>(other, kName);
  if (open_ || o.open_) {
    throw std::invalid_argument{"NReorderingMetric::merge: open sequence (call end_sequence)"};
  }
  packets_ += o.packets_;
  for (const auto& [n, count] : o.density_) density_[n] += count;
}

report::Json NReorderingMetric::to_json() const {
  report::Json j = report::Json::object();
  j.set("packets", packets_);
  j.set("reordered_fraction", reordered_fraction());
  report::Json density = report::Json::array();
  for (const auto& [n, count] : density_) {
    report::Json d = report::Json::object();
    d.set("n", n);
    d.set("count", count);
    density.push(std::move(d));
  }
  j.set("density", std::move(density));
  return j;
}

void NReorderingMetric::from_json(const report::Json& j) {
  NReorderingMetric restored;
  restored.packets_ = j.at("packets").as_u64();
  for (const auto& d : j.at("density").items()) {
    restored.density_[d.at("n").as_u64()] = d.at("count").as_u64();
  }
  *this = std::move(restored);
}

// -------------------------------------------------- ReorderDensityMetric

void ReorderDensityMetric::observe_arrival(std::uint32_t send_index) {
  open_ = true;
  const std::int64_t displacement =
      static_cast<std::int64_t>(position_) - static_cast<std::int64_t>(send_index);
  ++density_[std::clamp(displacement, -threshold_, threshold_)];
  ++packets_;
  ++position_;
}

void ReorderDensityMetric::end_sequence() {
  if (!open_) return;
  position_ = 0;
  open_ = false;
}

std::uint64_t ReorderDensityMetric::count_for(std::int64_t displacement) const {
  const auto it = density_.find(displacement);
  return it == density_.end() ? 0 : it->second;
}

std::unique_ptr<Metric> ReorderDensityMetric::snapshot() const {
  return std::make_unique<ReorderDensityMetric>(*this);
}

void ReorderDensityMetric::merge(const Metric& other) {
  const auto& o = expect<ReorderDensityMetric>(other, kName);
  if (o.threshold_ != threshold_) {
    throw std::invalid_argument{"ReorderDensityMetric::merge: thresholds differ"};
  }
  if (open_ || o.open_) {
    throw std::invalid_argument{"ReorderDensityMetric::merge: open sequence (call end_sequence)"};
  }
  packets_ += o.packets_;
  for (const auto& [d, count] : o.density_) density_[d] += count;
}

report::Json ReorderDensityMetric::to_json() const {
  report::Json j = report::Json::object();
  j.set("threshold", threshold_);
  j.set("packets", packets_);
  report::Json density = report::Json::array();
  for (const auto& [d, count] : density_) {
    report::Json entry = report::Json::object();
    entry.set("displacement", d);
    entry.set("count", count);
    if (packets_ > 0) {
      entry.set("density", static_cast<double>(count) / static_cast<double>(packets_));
    }
    density.push(std::move(entry));
  }
  j.set("density", std::move(density));
  return j;
}

void ReorderDensityMetric::from_json(const report::Json& j) {
  ReorderDensityMetric restored{j.at("threshold").as_int()};
  restored.packets_ = j.at("packets").as_u64();
  for (const auto& d : j.at("density").items()) {
    restored.density_[d.at("displacement").as_int()] = d.at("count").as_u64();
  }
  *this = std::move(restored);
}

// --------------------------------------------------- BufferDensityMetric

void BufferDensityMetric::observe_arrival(std::uint32_t send_index) {
  open_ = true;
  if (send_index == next_expected_) {
    ++next_expected_;
    while (!held_.empty() && held_.front() == next_expected_) {
      std::pop_heap(held_.begin(), held_.end(), std::greater<>{});
      held_.pop_back();
      ++next_expected_;
    }
  } else if (send_index > next_expected_) {
    held_.push_back(send_index);
    std::push_heap(held_.begin(), held_.end(), std::greater<>{});
  }
  // Duplicates / already-released indices leave the buffer untouched but
  // still contribute an occupancy observation (an arrival happened).
  const auto occupancy = static_cast<std::uint64_t>(held_.size());
  ++density_[occupancy];
  max_occupancy_ = std::max(max_occupancy_, occupancy);
  ++packets_;
}

void BufferDensityMetric::end_sequence() {
  if (!open_) return;
  held_.clear();
  next_expected_ = 0;
  open_ = false;
}

std::uint64_t BufferDensityMetric::count_for(std::uint64_t occupancy) const {
  const auto it = density_.find(occupancy);
  return it == density_.end() ? 0 : it->second;
}

std::unique_ptr<Metric> BufferDensityMetric::snapshot() const {
  return std::make_unique<BufferDensityMetric>(*this);
}

void BufferDensityMetric::merge(const Metric& other) {
  const auto& o = expect<BufferDensityMetric>(other, kName);
  if (open_ || o.open_) {
    throw std::invalid_argument{"BufferDensityMetric::merge: open sequence (call end_sequence)"};
  }
  packets_ += o.packets_;
  max_occupancy_ = std::max(max_occupancy_, o.max_occupancy_);
  for (const auto& [occ, count] : o.density_) density_[occ] += count;
}

report::Json BufferDensityMetric::to_json() const {
  report::Json j = report::Json::object();
  j.set("packets", packets_);
  j.set("max_occupancy", max_occupancy_);
  report::Json density = report::Json::array();
  for (const auto& [occ, count] : density_) {
    report::Json entry = report::Json::object();
    entry.set("occupancy", occ);
    entry.set("count", count);
    if (packets_ > 0) {
      entry.set("density", static_cast<double>(count) / static_cast<double>(packets_));
    }
    density.push(std::move(entry));
  }
  j.set("density", std::move(density));
  return j;
}

void BufferDensityMetric::from_json(const report::Json& j) {
  BufferDensityMetric restored;
  restored.packets_ = j.at("packets").as_u64();
  restored.max_occupancy_ = j.at("max_occupancy").as_u64();
  for (const auto& d : j.at("density").items()) {
    restored.density_[d.at("occupancy").as_u64()] = d.at("count").as_u64();
  }
  *this = std::move(restored);
}

// -------------------------------------------------------- batch feeding

void observe_sequence(MetricSuite& suite, const std::uint32_t* arrival, std::size_t count) {
  suite.observe_arrivals(arrival, count);
  suite.end_sequence();
}

void observe_sequence(Metric& metric, const std::uint32_t* arrival, std::size_t count) {
  metric.observe_arrivals(arrival, count);
  metric.end_sequence();
}

void observe_sequence(MetricSuite& suite, const std::vector<std::uint32_t>& arrival) {
  observe_sequence(suite, arrival.data(), arrival.size());
}

void observe_sequence(Metric& metric, const std::vector<std::uint32_t>& arrival) {
  observe_sequence(metric, arrival.data(), arrival.size());
}

}  // namespace reorder::metrics
