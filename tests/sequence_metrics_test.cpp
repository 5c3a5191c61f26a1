// Golden tests for the sequence metrics against worked examples: RFC 4737
// (reordered ratio and extents), RFC 5236 (n-reordering), and Piratla's
// RD / RBD density examples, all hand-checked.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "metrics/sequence_metrics.hpp"
#include "trace/analyzer.hpp"

namespace reorder {
namespace {

using metrics::observe_sequence;

// RFC 4737 §4.2's style of example: packets sent 0..5, received
// 0, 1, 3, 4, 2, 5. Packet 2 arrives after 3 and 4: it is the only
// reordered packet, with extent 2 (the earliest larger-index arrival, 3,
// came two positions before it).
TEST(SequenceExtentGolden, Rfc4737WorkedExample) {
  metrics::SequenceExtentMetric m;
  observe_sequence(m, {0, 1, 3, 4, 2, 5});
  EXPECT_EQ(m.packets(), 6u);
  EXPECT_EQ(m.reordered(), 1u);
  EXPECT_DOUBLE_EQ(m.ratio(), 1.0 / 6.0);
  EXPECT_EQ(m.max_extent(), 2u);
  EXPECT_DOUBLE_EQ(m.mean_extent(), 2.0);
  // Two pairs are inverted: (3,2) and (4,2).
  EXPECT_EQ(m.inversions(), 2u);
  EXPECT_EQ(m.sequences(), 1u);
}

TEST(SequenceExtentGolden, InOrderAndFullyReversed) {
  metrics::SequenceExtentMetric in_order;
  observe_sequence(in_order, {0, 1, 2, 3, 4});
  EXPECT_EQ(in_order.reordered(), 0u);
  EXPECT_EQ(in_order.max_extent(), 0u);
  EXPECT_EQ(in_order.inversions(), 0u);

  // 4,3,2,1,0: every packet after the first is reordered; packet at
  // position i has extent i (the first arrival, 4, overtook them all).
  metrics::SequenceExtentMetric reversed;
  observe_sequence(reversed, {4, 3, 2, 1, 0});
  EXPECT_EQ(reversed.packets(), 5u);
  EXPECT_EQ(reversed.reordered(), 4u);
  EXPECT_EQ(reversed.max_extent(), 4u);
  EXPECT_DOUBLE_EQ(reversed.mean_extent(), (1.0 + 2.0 + 3.0 + 4.0) / 4.0);
  EXPECT_EQ(reversed.inversions(), 10u);  // C(5,2): every pair inverted
}

// RFC 5236 §4: a packet is n-reordered when the n arrivals immediately
// before it were all sent after it. Sent 0..4, received 2, 3, 0, 1, 4:
//   packet 0 (3rd arrival): preceded by 3, 2 — both later-sent -> n = 2;
//   packet 1 (4th arrival): preceded by 0 (earlier-sent) -> run stops,
//     but 0 < 1 means the run is 0... preceded immediately by 0, which
//     was sent earlier, so packet 1 is NOT n-reordered for any n >= 1.
TEST(NReorderingGolden, Rfc5236WorkedExample) {
  metrics::NReorderingMetric m;
  observe_sequence(m, {2, 3, 0, 1, 4});
  EXPECT_EQ(m.packets(), 5u);
  EXPECT_EQ(m.count_for(2), 1u);  // packet 0 is 2-reordered
  EXPECT_EQ(m.count_for(1), 0u);
  EXPECT_EQ(m.count_for(3), 0u);
  EXPECT_DOUBLE_EQ(m.reordered_fraction(), 1.0 / 5.0);
}

TEST(NReorderingGolden, AdjacentSwapIsOneReordering) {
  // 1, 0: packet 0 is preceded by exactly one later-sent packet.
  metrics::NReorderingMetric m;
  observe_sequence(m, {1, 0});
  EXPECT_EQ(m.count_for(1), 1u);
  EXPECT_DOUBLE_EQ(m.reordered_fraction(), 0.5);

  // 3, 2, 1, 0 arrivals: packet 2 is 1-reordered (preceded by 3), packet
  // 1 is 2-reordered, packet 0 is 3-reordered.
  metrics::NReorderingMetric reversed;
  observe_sequence(reversed, {3, 2, 1, 0});
  EXPECT_EQ(reversed.count_for(1), 1u);
  EXPECT_EQ(reversed.count_for(2), 1u);
  EXPECT_EQ(reversed.count_for(3), 1u);
}

TEST(NReorderingGolden, RunMustBeContiguous) {
  // 2, 0, 3, 1: packet 1 (last) is preceded by 3 (later-sent) then 0
  // (earlier-sent) — the contiguous later-sent run is length 1, even
  // though TWO later-sent packets (2 and 3) arrived before it.
  metrics::NReorderingMetric m;
  observe_sequence(m, {2, 0, 3, 1});
  EXPECT_EQ(m.count_for(1), 2u);  // packets 0 and 1 are both 1-reordered
  EXPECT_EQ(m.count_for(2), 0u);
}

// Piratla's reorder density: displacement D = arrival position - send
// index. Received 1, 0, 2: packet 1 arrives early (D = -1), packet 0
// late (D = +1), packet 2 on time (D = 0).
TEST(ReorderDensityGolden, AdjacentSwapDensities) {
  metrics::ReorderDensityMetric m;
  observe_sequence(m, {1, 0, 2});
  EXPECT_EQ(m.packets(), 3u);
  EXPECT_EQ(m.count_for(-1), 1u);
  EXPECT_EQ(m.count_for(0), 1u);
  EXPECT_EQ(m.count_for(1), 1u);
}

TEST(ReorderDensityGolden, DisplacementsClampAtThreshold) {
  metrics::ReorderDensityMetric m{/*threshold=*/2};
  // Packet 5 arrives first: displacement -5, clamped to -2.
  observe_sequence(m, {5, 0, 1, 2, 3, 4});
  EXPECT_EQ(m.count_for(-2), 1u);
  // Packets 0..4 each arrive one position late: displacement +1.
  EXPECT_EQ(m.count_for(1), 5u);
}

// Piratla's RBD: occupancy of a hypothetical resequencing buffer after
// each arrival. Received 2, 0, 1, 3:
//   2 -> buffered (occupancy 1); 0 -> released (1); 1 -> releases 1 and
//   the buffered 2 (0); 3 -> released (0).
TEST(BufferDensityGolden, ResequencingBufferOccupancy) {
  metrics::BufferDensityMetric m;
  observe_sequence(m, {2, 0, 1, 3});
  EXPECT_EQ(m.packets(), 4u);
  EXPECT_EQ(m.count_for(0), 2u);
  EXPECT_EQ(m.count_for(1), 2u);
  EXPECT_EQ(m.max_occupancy(), 1u);
}

TEST(BufferDensityGolden, DeepHoldback) {
  // 3, 2, 1, 0: three packets buffer up waiting for 0, then all flush.
  metrics::BufferDensityMetric m;
  observe_sequence(m, {3, 2, 1, 0});
  EXPECT_EQ(m.count_for(1), 1u);
  EXPECT_EQ(m.count_for(2), 1u);
  EXPECT_EQ(m.count_for(3), 1u);
  EXPECT_EQ(m.count_for(0), 1u);  // after 0 arrives, everything drains
  EXPECT_EQ(m.max_occupancy(), 3u);
}

// In-engine pair streams: each usable two-packet sample is the
// degenerate length-2 sequence, so a swapped pair is 1-reordering with
// extent 1 — the RFC metrics collapse onto the paper's pair metric.
TEST(SequenceMetrics, PairStreamCollapsesToPairMetric) {
  metrics::SequenceExtentMetric extent;
  metrics::NReorderingMetric n;
  for (int i = 0; i < 10; ++i) {
    const bool swapped = i % 3 == 0;  // 4 of 10 pairs
    if (swapped) {
      observe_sequence(extent, {1, 0});
      observe_sequence(n, {1, 0});
    } else {
      observe_sequence(extent, {0, 1});
      observe_sequence(n, {0, 1});
    }
  }
  EXPECT_EQ(extent.sequences(), 10u);
  EXPECT_EQ(extent.reordered(), 4u);
  EXPECT_EQ(extent.max_extent(), 1u);
  EXPECT_EQ(n.count_for(1), 4u);
}

// ------------------------------------------------ inversions vs oracle

// The oracle is trace::count_inversions, the O(n^2) definition: pairs
// that arrived in the opposite order to their send order (equal send
// indices are not inverted).
using trace::count_inversions;

std::uint64_t streamed_inversions(const std::vector<std::uint32_t>& arrival) {
  metrics::SequenceExtentMetric m;
  observe_sequence(m, arrival);
  return m.inversions();
}

TEST(SequenceExtentInversions, MatchOracleOnSeededSequencesWithDuplicates) {
  std::mt19937_64 rng{20021106};
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = rng() % 300;
    // A narrow value range forces duplicates; a wide one mostly avoids them.
    const std::uint32_t range = trial % 2 == 0 ? 8 : 1u << 31;
    std::vector<std::uint32_t> arrival(n);
    for (std::uint32_t& s : arrival) s = static_cast<std::uint32_t>(rng() % range);
    if (trial % 4 == 1) {
      // Almost sorted: a few adjacent swaps over an ascending base.
      std::sort(arrival.begin(), arrival.end());
      for (std::size_t i = 0; i + 1 < n; ++i) {
        if (rng() % 16 == 0) std::swap(arrival[i], arrival[i + 1]);
      }
    }
    EXPECT_EQ(streamed_inversions(arrival), count_inversions(arrival)) << "trial " << trial;
  }
}

TEST(SequenceExtentInversions, EmptySingleAndAllEqualSequences) {
  metrics::SequenceExtentMetric empty;
  observe_sequence(empty, std::vector<std::uint32_t>{});
  EXPECT_EQ(empty.inversions(), 0u);
  EXPECT_EQ(empty.sequences(), 0u);  // nothing arrived, nothing to close

  EXPECT_EQ(streamed_inversions({7}), 0u);
  EXPECT_EQ(streamed_inversions(std::vector<std::uint32_t>(100, 42)), 0u);
  EXPECT_EQ(streamed_inversions({3, 3, 1, 1}), 4u);  // each 3 before each 1
}

TEST(SequenceExtentInversions, ReversedSequenceInvertsEveryPair) {
  std::vector<std::uint32_t> reversed(4096);
  for (std::uint32_t i = 0; i < 4096; ++i) reversed[i] = 4095 - i;
  EXPECT_EQ(streamed_inversions(reversed), 4096u * 4095u / 2);
}

TEST(SequenceExtentInversions, ChunkedArrivalsMatchScalarArrivals) {
  std::mt19937_64 rng{7};
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint32_t> arrival(1 + rng() % 500);
    for (std::size_t i = 0; i < arrival.size(); ++i) {
      arrival[i] = static_cast<std::uint32_t>(i);
      if (i > 0 && rng() % 8 == 0) std::swap(arrival[i], arrival[i - 1 - rng() % i]);
    }
    metrics::SequenceExtentMetric scalar;
    metrics::SequenceExtentMetric chunked;
    for (const std::uint32_t s : arrival) scalar.observe_arrival(s);
    for (std::size_t i = 0; i < arrival.size();) {
      const std::size_t len = std::min<std::size_t>(1 + rng() % 40, arrival.size() - i);
      chunked.observe_arrivals(arrival.data() + i, len);
      i += len;
    }
    scalar.end_sequence();
    chunked.end_sequence();
    EXPECT_EQ(scalar.to_json().dump(), chunked.to_json().dump()) << "trial " << trial;
    EXPECT_EQ(chunked.inversions(), count_inversions(arrival)) << "trial " << trial;
  }
}

// An open sequence's inversions settle when it closes: inversions()
// reports closed sequences only, and a snapshot closed on its own settles
// the same pairs the original does.
TEST(SequenceExtentInversions, OpenSequenceSettlesAtClose) {
  metrics::SequenceExtentMetric m;
  observe_sequence(m, {1, 0});  // one closed sequence, one inversion
  m.observe_arrivals(std::vector<std::uint32_t>{5, 4, 3}.data(), 3);
  EXPECT_EQ(m.inversions(), 1u);
  EXPECT_EQ(m.reordered(), 3u);  // the per-arrival counts stream as before

  const std::unique_ptr<metrics::Metric> copy = m.snapshot();
  copy->end_sequence();
  m.end_sequence();
  EXPECT_EQ(m.inversions(), 4u);
  EXPECT_EQ(copy->to_json().dump(), m.to_json().dump());
}

}  // namespace
}  // namespace reorder
