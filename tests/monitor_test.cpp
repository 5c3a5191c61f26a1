// The always-on monitor's contracts, enforced:
//
//   * golden RFC 4737 / RFC 5236 sequences through the bounded detectors
//     at a generous budget reproduce the textbook numbers;
//   * with the budget above what a flow needs, every detector is EXACTLY
//     the unbounded metric (same counts, extents, densities) on random
//     locally-shuffled traffic;
//   * the saturating rate counter decays instead of wedging at a tiny
//     budget and still lands on the true rate;
//   * FlowTable eviction is a pure function of (config, seed, key order);
//   * merging per-partition MonitorEngines is bit-identical (same
//     to_json().dump()) to one engine having seen every flow;
//   * the differential harness's FP/FN bounds: clean traffic never
//     false-positives at ANY budget, the one-sided detectors never
//     false-positive anywhere, evade-window defeats exactly the window
//     sketch at small K, flood-flows defeats exactly the small table;
//   * monitor snapshots ride the survey service: per-worker engines
//     merged over {1, 2, 8} workers emit byte-identical JSONL.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics/sequence_metrics.hpp"
#include "monitor/detectors.hpp"
#include "monitor/differential.hpp"
#include "monitor/engine.hpp"
#include "service/survey_service.hpp"
#include "util/random.hpp"

namespace reorder::monitor {
namespace {

constexpr std::size_t kBigBudget = 1u << 16;  // exceeds every test flow's needs

std::vector<std::uint32_t> locally_shuffled(std::size_t n, util::Rng& rng) {
  std::vector<std::uint32_t> arr(n);
  for (std::size_t i = 0; i < n; ++i) arr[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (rng.bernoulli(0.3)) {
      const std::size_t j = std::min(n - 1, i + 1 + rng.below(6));
      std::swap(arr[i], arr[j]);
    }
  }
  return arr;
}

// ------------------------------------------------------------- detectors

TEST(WindowSketchDetector, GoldenRfc4737Extent) {
  // RFC 4737's running example: send 2 arrives after 3 and 4 — one
  // reordered packet, extent 2 (the earliest larger arrival, 3, is two
  // arrivals back).
  WindowSketchDetector d{kBigBudget};
  for (const std::uint32_t s : {0u, 1u, 3u, 4u}) EXPECT_FALSE(d.observe_arrival(s));
  EXPECT_TRUE(d.observe_arrival(2));
  EXPECT_FALSE(d.observe_arrival(5));
  d.end_flow();
  EXPECT_EQ(d.packets(), 6u);
  EXPECT_EQ(d.flagged(), 1u);
  EXPECT_EQ(d.max_extent(), 2u);
  EXPECT_DOUBLE_EQ(d.mean_extent(), 2.0);
  EXPECT_EQ(d.flows(), 1u);
}

TEST(BoundedNReorderingDetector, GoldenRfc5236Density) {
  // {2,3,0,1,4}: packet 0 is 2-reordered (2 and 3 sent later, arrived
  // earlier, consecutively before it); packet 1 is NOT n-reordered — the
  // arrival immediately before it (0) was sent earlier.
  BoundedNReorderingDetector d{kBigBudget};
  EXPECT_FALSE(d.observe_arrival(2));
  EXPECT_FALSE(d.observe_arrival(3));
  EXPECT_TRUE(d.observe_arrival(0));
  EXPECT_FALSE(d.observe_arrival(1));
  EXPECT_FALSE(d.observe_arrival(4));
  d.end_flow();
  EXPECT_EQ(d.flagged(), 1u);
  EXPECT_EQ(d.count_for(2), 1u);
  EXPECT_EQ(d.count_for(1), 0u);
  EXPECT_EQ(d.saturated(), 0u);
  EXPECT_DOUBLE_EQ(d.mean_n(), 2.0);
}

TEST(Detectors, LargeBudgetEqualsExactMetrics) {
  util::Rng rng{2026};
  WindowSketchDetector window{kBigBudget};
  RateEstimateDetector rate{kBigBudget};
  BoundedNReorderingDetector bounded{kBigBudget};
  metrics::SequenceExtentMetric extent;
  metrics::NReorderingMetric nreo;
  for (int seq = 0; seq < 5; ++seq) {
    for (const std::uint32_t s : locally_shuffled(400, rng)) {
      window.observe_arrival(s);
      rate.observe_arrival(s);
      bounded.observe_arrival(s);
      extent.observe_arrival(s);
      nreo.observe_arrival(s);
    }
    window.end_flow();
    rate.end_flow();
    bounded.end_flow();
    extent.end_sequence();
    nreo.end_sequence();
  }
  ASSERT_GT(extent.reordered(), 0u);
  // Window sketch == SequenceExtentMetric: same flags, same extents.
  EXPECT_EQ(window.flagged(), extent.reordered());
  EXPECT_EQ(window.packets(), extent.packets());
  EXPECT_EQ(window.max_extent(), extent.max_extent());
  EXPECT_DOUBLE_EQ(window.mean_extent(), extent.mean_extent());
  // Saturating counters never saturated: exact reordered count and rate.
  EXPECT_EQ(rate.reordered(), extent.reordered());
  EXPECT_EQ(rate.usable(), extent.packets());
  EXPECT_EQ(rate.decays(), 0u);
  // Bounded n == NReorderingMetric: full density, no saturation.
  EXPECT_EQ(bounded.saturated(), 0u);
  EXPECT_DOUBLE_EQ(bounded.reordered_fraction(), nreo.reordered_fraction());
  for (std::uint64_t n = 1; n <= 12; ++n) EXPECT_EQ(bounded.count_for(n), nreo.count_for(n));
}

TEST(RateEstimateDetector, TinyBudgetDecaysButTracksRate) {
  // 6 bytes -> 1-byte saturating counters (cap 255). 600 alternating
  // swaps must trip the halving decay yet keep the rate pinned at 1/2.
  RateEstimateDetector d{6};
  for (std::uint32_t i = 0; i < 600; i += 2) {
    d.observe_arrival(i + 1);
    d.observe_arrival(i);
  }
  d.end_flow();
  EXPECT_GE(d.decays(), 1u);
  EXPECT_NEAR(d.rate(), 0.5, 0.02);
}

TEST(Detectors, MergeRejectsMismatchedBudgets) {
  WindowSketchDetector a{256};
  WindowSketchDetector b{1024};
  EXPECT_THROW(a.merge(b), std::invalid_argument);
  RateEstimateDetector r{256};
  EXPECT_THROW(a.merge(r), std::invalid_argument);
  WindowSketchDetector open{256};
  open.observe_arrival(3);
  EXPECT_THROW(a.merge(open), std::invalid_argument);
}

// ------------------------------------------------------------- flow table

TEST(FlowTable, EvictionIsDeterministic) {
  const auto run = [] {
    FlowTableConfig cfg;
    cfg.slots = 16;
    cfg.ways = 4;
    cfg.seed = 99;
    FlowTable table{cfg};
    util::Rng rng{7};
    std::vector<std::pair<std::uint64_t, std::size_t>> evictions;
    for (int i = 0; i < 4000; ++i) {
      const std::uint64_t key = rng.below(200);
      const FlowTable::Ref ref = table.lookup(key);
      if (ref.evicted) evictions.emplace_back(ref.evicted_key, ref.slot);
    }
    return std::make_pair(evictions, table.counters());
  };
  const auto [ev1, c1] = run();
  const auto [ev2, c2] = run();
  EXPECT_FALSE(ev1.empty());
  EXPECT_EQ(ev1, ev2);
  EXPECT_EQ(c1.lookups, 4000u);
  EXPECT_EQ(c1.hits + c1.insertions, c1.lookups);
  EXPECT_EQ(c1.evictions, c2.evictions);
}

TEST(FlowTable, FindDoesNotTouchLru) {
  FlowTableConfig cfg;
  cfg.slots = 4;
  cfg.ways = 4;
  FlowTable table{cfg};
  for (std::uint64_t k = 0; k < 4; ++k) table.lookup(k);
  // find() must not refresh key 0; the next conflicting insert evicts it.
  EXPECT_GE(table.find(0), 0);
  const FlowTable::Ref ref = table.lookup(100);
  ASSERT_TRUE(ref.evicted);
  EXPECT_EQ(ref.evicted_key, 0u);
  EXPECT_EQ(table.find(0), -1);
}

// ---------------------------------------------------------------- engine

TEST(MonitorEngine, IngestSequenceEqualsManualIngest) {
  MonitorConfig cfg;
  cfg.table.slots = 64;
  MonitorEngine a{cfg};
  MonitorEngine b{cfg};
  const std::vector<std::uint32_t> seq{0, 2, 1, 3, 4};
  a.ingest_sequence(77, seq);
  for (const std::uint32_t s : seq) b.ingest(77, s);
  b.end_flow(77);
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
}

TEST(MonitorEngine, MergeOfFlowPartitionsEqualsBatch) {
  const std::vector<MonitorArrival> arrivals = scenario_arrivals("swap-shaper", 11);
  MonitorConfig cfg;
  cfg.table.slots = 4096;  // provisioned: no evictions, the merge contract's precondition
  MonitorEngine batch{cfg};
  MonitorEngine left{cfg};
  MonitorEngine right{cfg};
  for (const MonitorArrival& a : arrivals) {
    batch.ingest(a.flow, a.send_index);
    (a.flow % 2 == 0 ? left : right).ingest(a.flow, a.send_index);
  }
  EXPECT_EQ(batch.table().counters().evictions, 0u);
  left.merge(right);
  EXPECT_EQ(left.to_json().dump(), batch.to_json().dump());
  EXPECT_EQ(left.arrivals(), arrivals.size());
}

TEST(MonitorSink, GatesInadmissibleMeasurements) {
  MonitorEngine engine{};
  MonitorSink sink{engine};

  core::TestRunResult bad;
  bad.test_name = "syn";
  bad.admissible = false;
  core::SampleResult sample;
  sample.forward = core::Ordering::kReordered;
  bad.samples.push_back(sample);
  core::publish_result(sink, "host-a", "syn", util::TimePoint{}, bad);
  EXPECT_EQ(engine.measurements(), 1u);
  EXPECT_EQ(engine.admissible(), 0u);
  EXPECT_EQ(engine.arrivals(), 0u);

  core::TestRunResult good;
  good.test_name = "syn";
  good.admissible = true;
  good.samples.push_back(sample);          // reordered -> pair {1, 0}
  sample.forward = core::Ordering::kInOrder;
  good.samples.push_back(sample);          // in order  -> pair {0, 1}
  sample.forward = core::Ordering::kLost;
  good.samples.push_back(sample);          // unusable  -> nothing
  core::publish_result(sink, "host-a", "syn", util::TimePoint{}, good);
  EXPECT_EQ(engine.measurements(), 2u);
  EXPECT_EQ(engine.admissible(), 1u);
  EXPECT_EQ(engine.arrivals(), 4u);
  const DetectorSuite snap = engine.snapshot();
  const auto* window = snap.get<WindowSketchDetector>(WindowSketchDetector::kName);
  ASSERT_NE(window, nullptr);
  EXPECT_EQ(window->flagged(), 1u);
  EXPECT_EQ(window->flows(), 2u);
}

// ---------------------------------------------------- differential bounds

TEST(Differential, AccuracyBoundsAcrossTheSweep) {
  DifferentialConfig config;
  config.scenarios = {"clean-path", "lossy", "swap-shaper", "evade-window", "flood-flows"};
  config.traffic.flows = 8;
  const std::vector<AccuracyRecord> records = run_differential(config);
  ASSERT_EQ(records.size(), 5u * 3u * 3u * 2u);

  const auto rec = [&records](const std::string& scenario, const std::string& detector,
                              std::size_t budget, std::size_t slots) -> const AccuracyRecord& {
    for (const AccuracyRecord& r : records) {
      if (r.scenario == scenario && r.detector == detector && r.budget_bytes == budget &&
          r.table_slots == slots) {
        return r;
      }
    }
    throw std::logic_error{"record not found"};
  };

  for (const AccuracyRecord& r : records) {
    // One-sided by construction: a bounded detector can forget a
    // reordering, never invent one.
    EXPECT_EQ(r.false_positives, 0u) << r.scenario << " " << r.detector;
    // Clean and loss-only traffic must be perfectly reported everywhere —
    // at EVERY budget and table size (the CI smoke gate's invariant).
    if (r.scenario == "clean-path" || r.scenario == "lossy") {
      EXPECT_EQ(r.false_negatives, 0u) << r.detector;
      EXPECT_EQ(r.flagged, 0u) << r.detector;
      EXPECT_DOUBLE_EQ(r.abs_error, 0.0) << r.detector;
    }
    // Budget above the flow's needs + table above the flow count: exact.
    if (r.scenario != "flood-flows" && r.budget_bytes == 16384 && r.table_slots == 1024) {
      EXPECT_EQ(r.false_negatives, 0u) << r.scenario << " " << r.detector;
      EXPECT_DOUBLE_EQ(r.abs_error, 0.0) << r.scenario << " " << r.detector;
    }
  }

  // evade-window defeats exactly the window sketch, and only below K =
  // displacement: FN at 256 B (K=64) and 1 KiB (K=256), exact at 16 KiB.
  EXPECT_GT(rec("evade-window", "window_sketch", 256, 1024).false_negatives, 0u);
  EXPECT_GT(rec("evade-window", "window_sketch", 1024, 1024).false_negatives, 0u);
  EXPECT_GT(rec("evade-window", "window_sketch", 256, 1024).false_negatives,
            rec("evade-window", "window_sketch", 1024, 1024).false_negatives);
  EXPECT_EQ(rec("evade-window", "window_sketch", 16384, 1024).false_negatives, 0u);
  EXPECT_EQ(rec("evade-window", "approx_rate", 256, 1024).false_negatives, 0u);
  EXPECT_EQ(rec("evade-window", "bounded_n", 256, 1024).false_negatives, 0u);

  // flood-flows defeats exactly the small table: 2048 churned flows
  // against 64 slots force evictions and misses at every budget; a table
  // that covers the active set stays exact.
  for (const std::size_t budget : config.budgets) {
    const AccuracyRecord& small = rec("flood-flows", "approx_rate", budget, 64);
    EXPECT_GT(small.evictions, 0u);
    EXPECT_GT(small.false_negatives, 0u);
    const AccuracyRecord& big = rec("flood-flows", "approx_rate", budget, 1024);
    EXPECT_EQ(big.false_negatives, 0u);
    EXPECT_LT(big.evictions, small.evictions);
  }
}

// ------------------------------------------------------ worker invariance

std::vector<core::SurveyTargetConfig> monitor_fleet() {
  std::vector<core::SurveyTargetConfig> targets;
  for (int i = 0; i < 6; ++i) {
    core::SurveyTargetConfig target;
    target.name = "host-" + std::to_string(i);
    target.forward.swap_probability = (i % 3) * 0.12;
    target.remote.behavior.immediate_ack_on_hole_fill = true;
    target.tests = {core::TestSpec{"single-connection"}, core::TestSpec{"syn"}};
    targets.push_back(std::move(target));
  }
  return targets;
}

/// The fleet surveyed on `workers` service workers, its measurements fed
/// to one monitor engine per worker (each target's stream to the engine
/// of the worker its admission round-robins to), the engines merged.
std::string monitor_jsonl_for_workers(std::size_t workers) {
  service::SurveyServiceConfig cfg;
  cfg.seed = 21;
  cfg.workers = workers;
  cfg.run.samples = 6;
  cfg.rounds = 2;
  cfg.between = util::Duration::millis(500);
  service::SurveyService survey{cfg};
  const std::vector<core::SurveyTargetConfig> fleet = monitor_fleet();
  const std::vector<std::size_t> indices = survey.admit(fleet);
  survey.drain();

  std::map<std::string, std::size_t> owner;
  for (std::size_t i = 0; i < fleet.size(); ++i) owner[fleet[i].name] = indices[i] % workers;
  MonitorConfig mc;
  mc.table.slots = 1024;  // >= the fleet's (target, test) flow count: no evictions
  std::vector<MonitorEngine> engines;
  std::vector<std::size_t> published(workers, 0);
  for (std::size_t w = 0; w < workers; ++w) engines.emplace_back(mc);
  for (const core::Measurement& m : survey.measurements()) {
    const std::size_t w = owner.at(m.target);
    MonitorSink sink{engines[w]};
    core::publish_result(sink, m.target, m.test, m.at, m.result, published[w]++);
  }
  for (std::size_t i = 1; i < engines.size(); ++i) engines.front().merge(engines[i]);
  std::ostringstream text;
  report::JsonlWriter writer{text};
  engines.front().emit_jsonl(writer);
  return text.str();
}

TEST(MonitorEngine, WorkerCountCannotLeakIntoSnapshots) {
  const std::string one = monitor_jsonl_for_workers(1);
  ASSERT_NE(one.find("\"type\":\"monitor\""), std::string::npos);
  EXPECT_EQ(monitor_jsonl_for_workers(2), one);
  EXPECT_EQ(monitor_jsonl_for_workers(8), one);
}

}  // namespace
}  // namespace reorder::monitor
