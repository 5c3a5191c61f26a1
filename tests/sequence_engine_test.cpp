// SequenceEngine's flow index and fold: exact bookkeeping over many flows
// (including flow sets that one shard of the parallel pipeline sees), a
// fold byte-identical to a reference fold over an ordered map of suites,
// and per-flow memory that grows with arrivals, not with the send-index
// values a sender picks.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <vector>

#include "ingest/arrival_batch.hpp"
#include "ingest/parallel_pipeline.hpp"
#include "ingest/pipeline.hpp"
#include "metrics/sequence_metrics.hpp"

namespace reorder {
namespace {

using ingest::ArrivalBatch;
using ingest::SequenceEngine;

/// Flow k's arrivals: short sequences, every third one reordered.
std::vector<std::uint32_t> arrivals_of(std::size_t k) {
  if (k % 3 == 0) return {1, 0, 2};
  return {0, 1, 2, 3};
}

/// Feeds every flow's arrivals through ingest_batch, two flows
/// interleaved run by run so runs split and resume across batches.
void feed(SequenceEngine& engine, const std::vector<std::uint64_t>& ids) {
  ArrivalBatch batch{61};
  const auto push = [&](std::uint64_t flow, std::uint32_t send) {
    if (!batch.push(flow, send, 0)) {
      engine.ingest_batch(batch);
      batch.clear();
      batch.push(flow, send, 0);
    }
  };
  for (std::size_t k = 0; k + 1 < ids.size(); k += 2) {
    const std::vector<std::uint32_t> a = arrivals_of(k);
    const std::vector<std::uint32_t> b = arrivals_of(k + 1);
    push(ids[k], a[0]);
    push(ids[k + 1], b[0]);
    for (std::size_t i = 1; i < a.size(); ++i) push(ids[k], a[i]);
    for (std::size_t i = 1; i < b.size(); ++i) push(ids[k + 1], b[i]);
  }
  if (ids.size() % 2 == 1) {
    for (const std::uint32_t s : arrivals_of(ids.size() - 1)) push(ids.back(), s);
  }
  engine.ingest_batch(batch);
}

/// The fold SequenceEngine::to_json() must equal: suites kept in an
/// ordered map, each merged as an end_sequence()'d copy in key order.
report::Json reference_json(const std::map<std::uint64_t, metrics::MetricSuite>& suites,
                            std::uint64_t arrivals) {
  metrics::MetricSuite out = SequenceEngine::default_suite();
  for (const auto& [id, suite] : suites) {
    metrics::MetricSuite copy = suite.snapshot();
    copy.end_sequence();
    out.merge(copy);
  }
  report::Json j = report::Json::object();
  j.set("arrivals", arrivals);
  j.set("flows", static_cast<std::uint64_t>(suites.size()));
  j.set("metrics", out.to_json());
  return j;
}

void check_index_and_fold(const std::vector<std::uint64_t>& ids) {
  SequenceEngine engine;
  feed(engine, ids);
  std::map<std::uint64_t, metrics::MetricSuite> reference;
  std::uint64_t arrivals = 0;
  for (std::size_t k = 0; k < ids.size(); ++k) {
    metrics::MetricSuite suite = SequenceEngine::default_suite();
    const std::vector<std::uint32_t> a = arrivals_of(k);
    suite.observe_arrivals(a.data(), a.size());
    arrivals += a.size();
    reference.emplace(ids[k], std::move(suite));
  }

  ASSERT_EQ(engine.flow_count(), ids.size());
  EXPECT_EQ(engine.arrivals(), arrivals);
  std::vector<std::uint64_t> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(engine.flow_ids(), sorted);
  for (std::size_t k = 0; k < ids.size(); ++k) {
    const metrics::MetricSuite* suite = engine.flow_suite(ids[k]);
    ASSERT_NE(suite, nullptr) << ids[k];
    const auto* extent =
        suite->get<metrics::SequenceExtentMetric>(metrics::SequenceExtentMetric::kName);
    ASSERT_NE(extent, nullptr);
    ASSERT_EQ(extent->packets(), arrivals_of(k).size()) << ids[k];
  }
  for (const std::uint64_t absent :
       {std::uint64_t{0}, sorted.back() + 1, std::numeric_limits<std::uint64_t>::max()}) {
    if (!std::binary_search(sorted.begin(), sorted.end(), absent)) {
      EXPECT_EQ(engine.flow_suite(absent), nullptr) << absent;
    }
  }
  // Every third id closed early; the rest stay open for the first fold.
  for (std::size_t k = 0; k < ids.size(); k += 3) {
    engine.end_flow(ids[k]);
    reference.at(ids[k]).end_sequence();
  }
  EXPECT_EQ(engine.to_json().dump(), reference_json(reference, arrivals).dump());

  engine.flush();
  for (auto& [id, suite] : reference) suite.end_sequence();
  const std::string flushed = engine.to_json().dump();
  EXPECT_EQ(flushed, reference_json(reference, arrivals).dump());
  EXPECT_EQ(engine.to_json().dump(), flushed);  // folding leaves the state as it was
}

TEST(SequenceEngineIndex, OneShardsIdsAreExactAndFoldLikeAnOrderedMap) {
  // Every id lands on shard 0 of 2: the splitmix64 low bit is the same
  // for all of them, which an index hashed on those bits would collide on.
  std::mt19937_64 rng{1402};
  std::vector<std::uint64_t> ids;
  while (ids.size() < 100000) {
    const std::uint64_t id = rng();
    if (ingest::shard_of(id, 2) == 0) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::shuffle(ids.begin(), ids.end(), rng);
  ASSERT_GT(ids.size(), 99990u);
  check_index_and_fold(ids);
}

TEST(SequenceEngineIndex, SequentialIdsFromZeroAreExact) {
  std::vector<std::uint64_t> ids(5000);
  for (std::uint64_t k = 0; k < ids.size(); ++k) ids[k] = k;
  check_index_and_fold(ids);
}

// ------------------------------------------------ value-sized memory

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define REORDER_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define REORDER_SANITIZED 1
#endif
#endif

#ifndef REORDER_SANITIZED
std::uint64_t inversions_of(const SequenceEngine& engine, std::uint64_t flow) {
  const metrics::MetricSuite* suite = engine.flow_suite(flow);
  if (suite == nullptr) return ~std::uint64_t{0};
  const auto* extent =
      suite->get<metrics::SequenceExtentMetric>(metrics::SequenceExtentMetric::kName);
  return extent == nullptr ? ~std::uint64_t{0} : extent->inversions();
}

/// Runs in the death-test child: under a 1 GiB address-space limit, feeds
/// flows whose send indices sit near 2^32 through both engine paths.
/// State sized by the largest send index would need tens of GB and die
/// of bad_alloc; state sized by arrivals needs a few bytes.
int value_sized_child() {
  rlimit limit{};
  if (getrlimit(RLIMIT_AS, &limit) != 0) return 3;
  limit.rlim_cur = rlim_t{1} << 30;
  if (setrlimit(RLIMIT_AS, &limit) != 0) return 3;

  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  const std::vector<std::uint32_t> far{4000000000u, 0};
  const std::vector<std::uint32_t> edges{kMax, 1, kMax - 1, 0};
  SequenceEngine scalar;
  SequenceEngine batched;
  ArrivalBatch batch{16};
  for (const std::uint32_t s : far) {
    scalar.observe(1, s);
    batch.push(1, s, 0);
  }
  for (const std::uint32_t s : edges) {
    scalar.observe(2, s);
    batch.push(2, s, 0);
  }
  batched.ingest_batch(batch);
  scalar.flush();
  batched.flush();
  for (const SequenceEngine* engine : {&scalar, &batched}) {
    if (inversions_of(*engine, 1) != 1 || inversions_of(*engine, 2) != 5) return 1;
  }
  return 0;
}
#endif

TEST(SequenceEngineMemory, HugeSendIndicesFitUnderAOneGibAddressLimit) {
#ifdef REORDER_SANITIZED
  // ASan and TSan reserve terabytes of shadow address space up front, so
  // no address-space limit can hold under them.
  GTEST_SKIP() << "address-space limits do not apply under ASan/TSan";
#else
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(_exit(value_sized_child()), ::testing::ExitedWithCode(0), "");
#endif
}

}  // namespace
}  // namespace reorder
