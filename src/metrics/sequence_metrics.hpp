// Sequence-level metrics: one-pass accumulators over arrival sequences
// (streams of send indices in arrival order — the RFC 4737 model; each
// measurement, trace capture, or TCP transfer is one sequence).
//
// Where core::analyze_sequence is the O(n^2) batch oracle, these are the
// streaming production implementations: amortized O(log n) per arrival,
// open-sequence state that grows with the arrivals observed (never with
// the send-index values they carry, which a capture's sender picks), and
// exactly mergeable at sequence boundaries (the engine closes the
// sequence at every measurement event, so shard partitions never split
// one). The new metrics the literature asks for:
//
//   * SequenceExtentMetric — RFC 4737 reordered ratio + reordering
//     extents (max / mean / tail sketch) + inversions;
//   * NReorderingMetric — RFC 5236 n-reordering density: a reordered
//     packet's n is the number of later-sent packets that arrived ahead
//     of it;
//   * ReorderDensityMetric — Piratla's RD: normalized histogram of
//     per-packet displacement (arrival position - send index), the view
//     "Detecting TCP Packet Reordering in the Data Plane" builds on;
//   * BufferDensityMetric — Piratla's RBD: normalized histogram of the
//     hypothetical resequencing-buffer occupancy after each arrival, the
//     receiver-cost view time-sensitive networking cares about
//     (Mohammadpour & Le Boudec).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "metrics/metric.hpp"
#include "metrics/sketch.hpp"

namespace reorder::metrics {

/// RFC 4737 §4/§5: reordered ratio, reordering extents, inversions —
/// streamed. A packet is reordered iff an earlier arrival carried a
/// larger send index; its extent is the distance back (in arrivals) to
/// the earliest such arrival, found by binary search over the running
/// record (prefix-maxima) stack.
///
/// Inversions (pairs that arrived in the opposite order to their send
/// order) are settled at end_sequence(): the open sequence keeps its send
/// indices, and only a sequence with a reordered arrival pays one merge
/// count over them, which skips merges whose halves are already in
/// order — close to linear on the almost-sorted arrivals real paths
/// produce. inversions() therefore reports closed sequences only; an open
/// sequence's pairs join it when the sequence closes.
class SequenceExtentMetric final : public Metric {
 public:
  static constexpr std::string_view kName = "sequence_extent";

  std::string_view name() const override { return kName; }
  void observe_arrival(std::uint32_t send_index) override;
  /// The batched fast path: in-order stretches (send index above the
  /// running maximum) collapse to bulk appends; every other arrival runs
  /// the scalar step. Bit-exact with `count` observe_arrival() calls —
  /// the ingest equivalence tests enforce it over every scenario.
  void observe_arrivals(const std::uint32_t* send_indices, std::size_t count) override;
  void prefetch_state() const override;
  void end_sequence() override;
  std::unique_ptr<Metric> snapshot() const override;
  void merge(const Metric& other) override;
  report::Json to_json() const override;
  void from_json(const report::Json& j) override;

  std::uint64_t packets() const { return packets_; }
  std::uint64_t reordered() const { return reordered_; }
  double ratio() const {
    return packets_ == 0 ? 0.0
                         : static_cast<double>(reordered_) / static_cast<double>(packets_);
  }
  std::uint32_t max_extent() const { return max_extent_; }
  double mean_extent() const {
    return reordered_ == 0 ? 0.0
                           : static_cast<double>(extent_sum_) / static_cast<double>(reordered_);
  }
  /// Over closed sequences; an open sequence's settle at end_sequence().
  std::uint64_t inversions() const { return inversions_; }
  std::uint64_t sequences() const { return sequences_; }
  const TailSketch& extent_tail() const { return extent_tail_; }

 private:
  struct Record {
    std::uint64_t position;   ///< arrival position within the sequence
    std::uint32_t send_index;
  };

  // Closed totals (what merge combines).
  std::uint64_t packets_{0};
  std::uint64_t reordered_{0};
  std::uint64_t extent_sum_{0};
  std::uint32_t max_extent_{0};
  std::uint64_t inversions_{0};
  std::uint64_t sequences_{0};
  TailSketch extent_tail_;

  // Open-sequence state (must be closed before merge/snapshot compare).
  std::vector<Record> records_;     ///< strictly increasing prefix maxima
  std::vector<std::uint32_t> sent_;  ///< send indices in arrival order
  bool disordered_{false};           ///< some arrival was reordered
};

/// RFC 5236 §4: the n-reordering density. For each arrival, n is the
/// number of packets sent after it that arrived before it; the metric
/// reports, for each n >= 1, how many packets were exactly n-reordered.
class NReorderingMetric final : public Metric {
 public:
  static constexpr std::string_view kName = "n_reordering";

  std::string_view name() const override { return kName; }
  void observe_arrival(std::uint32_t send_index) override;
  /// Batched fast path; see SequenceExtentMetric::observe_arrivals.
  void observe_arrivals(const std::uint32_t* send_indices, std::size_t count) override;
  void prefetch_state() const override;
  void end_sequence() override;
  std::unique_ptr<Metric> snapshot() const override;
  void merge(const Metric& other) override;
  report::Json to_json() const override;
  void from_json(const report::Json& j) override;

  std::uint64_t packets() const { return packets_; }
  /// Packets that were exactly n-reordered (0 for unseen n).
  std::uint64_t count_for(std::uint64_t n) const;
  /// Fraction of packets with n-reordering >= 1.
  double reordered_fraction() const;

 private:
  struct Entry {
    std::uint64_t position;
    std::uint32_t send_index;
  };

  std::uint64_t packets_{0};
  std::map<std::uint64_t, std::uint64_t> density_;  ///< n -> packet count
  /// Monotonic stack: increasing position AND send index; the latest
  /// earlier arrival with a smaller send index is found by binary search.
  std::vector<Entry> stack_;
  std::uint64_t position_{0};
  bool open_{false};
};

/// Piratla's reorder density (RD): histogram of per-packet displacement
/// D = arrival position - send index, clamped to [-threshold, threshold].
class ReorderDensityMetric final : public Metric {
 public:
  static constexpr std::string_view kName = "reorder_density";

  explicit ReorderDensityMetric(std::int64_t threshold = 16) : threshold_{threshold} {}

  std::string_view name() const override { return kName; }
  void observe_arrival(std::uint32_t send_index) override;
  void end_sequence() override;
  std::unique_ptr<Metric> snapshot() const override;
  void merge(const Metric& other) override;
  report::Json to_json() const override;
  void from_json(const report::Json& j) override;

  std::uint64_t packets() const { return packets_; }
  std::uint64_t count_for(std::int64_t displacement) const;

 private:
  std::int64_t threshold_;
  std::uint64_t packets_{0};
  std::map<std::int64_t, std::uint64_t> density_;  ///< displacement -> count
  std::uint64_t position_{0};
  bool open_{false};
};

/// Piratla's reorder buffer-occupancy density (RBD): feed arrivals into a
/// hypothetical resequencing buffer that releases packets in send order;
/// histogram of the buffer occupancy observed after each arrival.
class BufferDensityMetric final : public Metric {
 public:
  static constexpr std::string_view kName = "buffer_density";

  std::string_view name() const override { return kName; }
  void observe_arrival(std::uint32_t send_index) override;
  void end_sequence() override;
  std::unique_ptr<Metric> snapshot() const override;
  void merge(const Metric& other) override;
  report::Json to_json() const override;
  void from_json(const report::Json& j) override;

  std::uint64_t packets() const { return packets_; }
  std::uint64_t count_for(std::uint64_t occupancy) const;
  std::uint64_t max_occupancy() const { return max_occupancy_; }

 private:
  std::uint64_t packets_{0};
  std::map<std::uint64_t, std::uint64_t> density_;  ///< occupancy -> count
  std::uint64_t max_occupancy_{0};

  // Open-sequence resequencing state.
  std::uint32_t next_expected_{0};
  std::vector<std::uint32_t> held_;  ///< min-heap of buffered send indices
  bool open_{false};
};

/// Feeds one whole arrival sequence through a suite (or single metric)
/// and closes it — the batch entry point benches and trace analysis use.
/// The pointer+length forms are the copy-free view the ingest path and
/// trace replay feed; the vector forms forward to them.
void observe_sequence(MetricSuite& suite, const std::uint32_t* arrival, std::size_t count);
void observe_sequence(Metric& metric, const std::uint32_t* arrival, std::size_t count);
void observe_sequence(MetricSuite& suite, const std::vector<std::uint32_t>& arrival);
void observe_sequence(Metric& metric, const std::vector<std::uint32_t>& arrival);

}  // namespace reorder::metrics
