// The line-rate ingest pipeline (ROADMAP item 3): a producer thread
// renders an arrival stream into SoA ArrivalBatches and pushes them
// through an SpscRing to a consumer thread that drains each batch into
// the analytics engines over their batched fast paths —
// SequenceEngine (per-flow exact metrics::MetricSuite, fed one
// observe_arrivals() span per same-flow run) and
// monitor::MonitorEngine::ingest_batch() (one FlowTable::lookup_run per
// run). Both paths are bit-exact with their scalar equivalents; batching
// buys only the amortization, never the answer.
//
// Backpressure is explicit policy: kSpin blocks the producer (counting
// spin rounds), kDrop sheds whole batches (counting drops). Either way
// the ring's transfer counters surface in to_json(), so saturation is
// visible in the JSONL record, not silently absorbed.
//
// A second ring runs the other way, recycling emptied batches to the
// producer's builder: steady state allocates nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "ingest/arrival_batch.hpp"
#include "ingest/spsc_ring.hpp"
#include "metrics/metric.hpp"
#include "monitor/differential.hpp"
#include "monitor/engine.hpp"
#include "report/jsonl.hpp"
#include "util/time.hpp"

namespace reorder::ingest {

/// What the producer does when the ring is full.
enum class Backpressure {
  kSpin,  ///< block spinning until the consumer frees a slot
  kDrop,  ///< shed the batch, count it, keep going
};

/// The exact per-flow sequence analytics on the consumer side of the
/// ring: one metrics::MetricSuite per flow id, fed through the batched
/// observe_arrivals() span path (scalar observe() is the bit-exactness
/// comparator the tests drive).
///
/// Flows live in one dense vector in first-arrival order, each with an
/// `open` bit (observed since its sequence last closed), found through an
/// open-addressing index of (id, position) slots probed from the high bits
/// of a multiplicative hash — independent of the splitmix64 low bits
/// shard_of() uses, which are constant within one shard. Memory and work
/// grow with flows and arrivals only. flush() touches only open flows;
/// merged() folds in ascending flow-id order, so the JSON is byte-stable
/// whatever the arrival order, and merges a closed suite as it is: only an
/// open one goes through an end_sequence()'d snapshot.
class SequenceEngine {
 public:
  using SuiteFactory = std::function<metrics::MetricSuite()>;

  /// One flow's state.
  struct Flow {
    std::uint64_t id;
    bool open;  ///< observed since its sequence last closed
    metrics::MetricSuite suite;
  };

  /// The line-rate default: sequence_extent + n_reordering (the
  /// O(log n)-per-arrival pair; the density metrics are survey-side).
  static metrics::MetricSuite default_suite();

  explicit SequenceEngine(SuiteFactory factory = {});

  /// Scalar path: one arrival on `flow` (one index probe per arrival).
  void observe(std::uint64_t flow, std::uint32_t send_index);
  /// Batched path: a run of consecutive same-flow arrivals (one index
  /// probe and one virtual fan-in per member per run).
  void observe_run(std::uint64_t flow, const std::uint32_t* send_indices, std::size_t count);
  /// Splits a batch into maximal same-flow runs through observe_run().
  void ingest_batch(const ArrivalBatch& batch);
  /// Closes `flow`'s open sequence (the suite stays, ready for more).
  void end_flow(std::uint64_t flow);
  /// Closes every open flow's sequence.
  void flush();

  std::uint64_t arrivals() const { return arrivals_; }
  std::size_t flow_count() const { return flows_.size(); }

  /// The fold of every flow's suite, each closed, in ascending flow-id
  /// order (deterministic bytes).
  metrics::MetricSuite merged() const;

  /// Every flow, in first-arrival order.
  const std::vector<Flow>& flows() const { return flows_; }
  /// Every live flow id, ascending — merged()'s fold order.
  std::vector<std::uint64_t> flow_ids() const;
  /// The flow's live suite, or nullptr; no insertion.
  const metrics::MetricSuite* flow_suite(std::uint64_t flow) const;
  const SuiteFactory& factory() const { return factory_; }

  /// merged()'s fold over any set of flows with distinct ids — the
  /// parallel pipeline passes every shard's, so its bytes match one
  /// engine's: sorts `flows` by id, then merges each suite into `out`,
  /// a closed one directly and an open one as an end_sequence()'d
  /// snapshot.
  static void fold(metrics::MetricSuite& out,
                   std::vector<std::pair<std::uint64_t, const Flow*>>& flows);

  /// {"arrivals":..,"flows":..,"metrics":{<merged suite>}}
  report::Json to_json() const;

 private:
  struct Slot {
    std::uint64_t id;
    std::uint32_t flow;  ///< position in flows_, or kEmpty
  };
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

  struct ResolvedRun {
    std::uint32_t flow;  ///< a position, not a pointer: flows_ may grow
    const std::uint32_t* send;
    std::size_t count;
  };

  /// The flow's position in flows_, creating it on first sight.
  std::uint32_t resolve(std::uint64_t flow);
  /// The index slot holding `flow`, or the empty slot where it would go.
  std::size_t probe(std::uint64_t flow) const;
  std::size_t home(std::uint64_t flow) const {
    return static_cast<std::size_t>((flow * 0x9E3779B97F4A7C15ULL) >> shift_);
  }
  void grow_index();

  SuiteFactory factory_;
  std::vector<Flow> flows_;
  std::vector<Slot> index_ = std::vector<Slot>(16, Slot{0, kEmpty});  ///< at most half full
  unsigned shift_{60};  ///< 64 - log2(index_.size())
  std::vector<ResolvedRun> scratch_;  ///< ingest_batch working set, reused
  std::uint64_t arrivals_{0};
};

struct PipelineConfig {
  /// Arrivals per batch (the amortization grain).
  std::size_t batch_capacity{1024};
  /// Ring capacity in batches; rounded up to a power of two.
  std::size_t ring_batches{64};
  Backpressure backpressure{Backpressure::kSpin};
  /// Saturation knob for tests/benches: the consumer busy-waits this long
  /// after each batch, forcing the producer into its backpressure policy.
  util::Duration consumer_stall{util::Duration::nanos(0)};
};

/// One run()'s transfer accounting. consumed + dropped == produced.
struct PipelineStats {
  std::uint64_t arrivals_produced{0};
  std::uint64_t arrivals_consumed{0};
  std::uint64_t arrivals_dropped{0};
  std::uint64_t batches_produced{0};
  std::uint64_t batches_consumed{0};
  std::uint64_t batches_dropped{0};
  std::uint64_t spin_waits{0};  ///< producer spin rounds (kSpin)
  std::int64_t wall_ns{0};      ///< producer start -> consumer drained
};

class IngestPipeline {
 public:
  /// Bulk arrival source, called on the producer thread: fill up to `max`
  /// arrivals into `out`, return how many; 0 ends the stream.
  using Source = std::function<std::size_t(Arrival* out, std::size_t max)>;

  /// Either engine may be null (that side is skipped).
  IngestPipeline(PipelineConfig config, SequenceEngine* sequences,
                 monitor::MonitorEngine* monitor);

  /// Runs one producer and one consumer thread until `source` is
  /// exhausted and the ring is drained; returns the run's stats.
  const PipelineStats& run(Source source);
  /// Replays a pre-rendered stream (simulation replay / synthetic
  /// generator output) through run(Source).
  const PipelineStats& run(const Arrival* arrivals, std::size_t count);
  const PipelineStats& run(const std::vector<Arrival>& arrivals);

  const PipelineStats& stats() const { return stats_; }
  const SpscRingCounters& ring_counters() const { return ring_counters_; }

  /// {"backpressure":..,"batch_capacity":..,"ring_batches":..,
  ///  "arrivals_produced":..,...,"wall_ns":..,"arrivals_per_sec":..,
  ///  "ring":{"pushed":..,"popped":..,"dropped":..,"spin_waits":..}}
  report::Json to_json() const;
  /// One {"type":"ingest",...} JSONL record of to_json().
  void emit_jsonl(report::JsonlWriter& out) const;

 private:
  PipelineConfig config_;
  SequenceEngine* sequences_;
  monitor::MonitorEngine* monitor_;
  PipelineStats stats_;
  SpscRingCounters ring_counters_;
};

/// ingest-side view of a monitor-level arrival stream: timestamps are
/// synthesized as the stream index (the models are virtual-time).
std::vector<Arrival> from_monitor(const std::vector<monitor::MonitorArrival>& arrivals);

}  // namespace reorder::ingest
