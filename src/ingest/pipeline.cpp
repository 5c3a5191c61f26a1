#include "ingest/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "metrics/sequence_metrics.hpp"
#include "monitor/differential.hpp"

namespace reorder::ingest {

// ----------------------------------------------------------- SequenceEngine

metrics::MetricSuite SequenceEngine::default_suite() {
  metrics::MetricSuite suite;
  suite.add(std::make_unique<metrics::SequenceExtentMetric>());
  suite.add(std::make_unique<metrics::NReorderingMetric>());
  return suite;
}

SequenceEngine::SequenceEngine(SuiteFactory factory)
    : factory_{factory ? std::move(factory) : &SequenceEngine::default_suite} {}

std::size_t SequenceEngine::probe(std::uint64_t flow) const {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = home(flow);
  while (index_[i].flow != kEmpty && index_[i].id != flow) i = (i + 1) & mask;
  return i;
}

std::uint32_t SequenceEngine::resolve(std::uint64_t flow) {
  std::size_t i = probe(flow);
  if (index_[i].flow != kEmpty) return index_[i].flow;
  if (flows_.size() >= kEmpty) throw std::length_error{"SequenceEngine: too many flows"};
  if (2 * (flows_.size() + 1) > index_.size()) {
    grow_index();
    i = probe(flow);
  }
  const auto position = static_cast<std::uint32_t>(flows_.size());
  flows_.push_back(Flow{flow, false, factory_()});
  index_[i] = Slot{flow, position};
  return position;
}

void SequenceEngine::grow_index() {
  std::vector<Slot> old(index_.size() * 2, Slot{0, kEmpty});
  old.swap(index_);
  --shift_;
  const std::size_t mask = index_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.flow == kEmpty) continue;
    std::size_t i = home(slot.id);
    while (index_[i].flow != kEmpty) i = (i + 1) & mask;
    index_[i] = slot;
  }
}

void SequenceEngine::observe(std::uint64_t flow, std::uint32_t send_index) {
  Flow& f = flows_[resolve(flow)];
  ++arrivals_;
  f.open = true;
  f.suite.observe_arrival(send_index);
}

void SequenceEngine::observe_run(std::uint64_t flow, const std::uint32_t* send_indices,
                                 std::size_t count) {
  if (count == 0) return;
  Flow& f = flows_[resolve(flow)];
  arrivals_ += count;
  f.open = true;
  f.suite.observe_arrivals(send_indices, count);
}

void SequenceEngine::ingest_batch(const ArrivalBatch& batch) {
  // Two phases so the per-flow state misses overlap instead of
  // serializing: resolve every run's flow first — issuing prefetches for
  // the metric objects behind it — then observe. On wide flow sets
  // (thousands of flows, state long evicted) the observe loop then runs
  // against lines already in flight, which is most of the batched speedup
  // beyond the amortized lookup itself. Runs keep positions, not
  // pointers: a new flow can move flows_ mid-batch (the metric objects
  // the prefetches name are heap-owned and stay put).
  scratch_.clear();
  batch.for_each_run([this](const ArrivalBatch::Run& run) {
    const std::uint32_t flow = resolve(run.flow);
    arrivals_ += run.count;
    flows_[flow].suite.prefetch();
    scratch_.push_back(ResolvedRun{flow, run.send, run.count});
  });
  // Second prefetch stage: the suites' object headers are in flight from
  // phase one, so their tail-state addresses can now be hinted too.
  for (const ResolvedRun& run : scratch_) flows_[run.flow].suite.prefetch_state();
  for (const ResolvedRun& run : scratch_) {
    Flow& f = flows_[run.flow];
    f.open = true;
    f.suite.observe_arrivals(run.send, run.count);
  }
}

void SequenceEngine::end_flow(std::uint64_t flow) {
  const std::uint32_t position = index_[probe(flow)].flow;
  if (position == kEmpty) return;
  Flow& f = flows_[position];
  if (!f.open) return;
  f.suite.end_sequence();
  f.open = false;
}

void SequenceEngine::flush() {
  for (Flow& f : flows_) {
    if (!f.open) continue;
    f.suite.end_sequence();
    f.open = false;
  }
}

void SequenceEngine::fold(metrics::MetricSuite& out,
                          std::vector<std::pair<std::uint64_t, const Flow*>>& flows) {
  std::sort(flows.begin(), flows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [id, flow] : flows) {
    if (flow->open) {
      metrics::MetricSuite copy = flow->suite.snapshot();
      copy.end_sequence();
      out.merge(copy);
    } else {
      out.merge(flow->suite);
    }
  }
}

metrics::MetricSuite SequenceEngine::merged() const {
  std::vector<std::pair<std::uint64_t, const Flow*>> order;
  order.reserve(flows_.size());
  for (const Flow& f : flows_) order.emplace_back(f.id, &f);
  metrics::MetricSuite out = factory_();
  fold(out, order);
  return out;
}

std::vector<std::uint64_t> SequenceEngine::flow_ids() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(flows_.size());
  for (const Flow& f : flows_) ids.push_back(f.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

const metrics::MetricSuite* SequenceEngine::flow_suite(std::uint64_t flow) const {
  const std::uint32_t position = index_[probe(flow)].flow;
  return position == kEmpty ? nullptr : &flows_[position].suite;
}

report::Json SequenceEngine::to_json() const {
  report::Json j = report::Json::object();
  j.set("arrivals", arrivals_);
  j.set("flows", static_cast<std::uint64_t>(flows_.size()));
  j.set("metrics", merged().to_json());
  return j;
}

// ----------------------------------------------------------- IngestPipeline

IngestPipeline::IngestPipeline(PipelineConfig config, SequenceEngine* sequences,
                               monitor::MonitorEngine* monitor)
    : config_{std::move(config)}, sequences_{sequences}, monitor_{monitor} {
  if (config_.batch_capacity == 0) config_.batch_capacity = 1;
  if (config_.ring_batches == 0) config_.ring_batches = 1;
}

const PipelineStats& IngestPipeline::run(Source source) {
  stats_ = PipelineStats{};
  SpscRing<ArrivalBatch> ring{config_.ring_batches};
  // The return direction: the consumer recycles emptied batches so the
  // producer's builder runs allocation-free once warm.
  SpscRing<ArrivalBatch> free_ring{config_.ring_batches};
  std::atomic<bool> done{false};

  // Producer-/consumer-owned halves of the stats; folded after join.
  PipelineStats produced{};
  PipelineStats consumed{};

  const auto started = std::chrono::steady_clock::now();

  std::thread producer{[&] {
    ArrivalBatchBuilder builder{config_.batch_capacity};
    std::vector<Arrival> scratch(config_.batch_capacity);
    const auto ship = [&] {
      ArrivalBatch recycled;
      while (free_ring.try_pop(recycled)) builder.recycle(std::move(recycled));
      ArrivalBatch batch = builder.take();
      if (batch.empty()) return;
      ++produced.batches_produced;
      produced.arrivals_produced += batch.size();
      if (config_.backpressure == Backpressure::kSpin) {
        ring.push_spin(std::move(batch));
      } else if (!ring.push_or_drop(batch)) {
        ++produced.batches_dropped;
        produced.arrivals_dropped += batch.size();
        builder.recycle(std::move(batch));
      }
    };
    for (;;) {
      const std::size_t n = source(scratch.data(), scratch.size());
      if (n == 0) break;
      for (std::size_t i = 0; i < n; ++i) {
        if (builder.push(scratch[i])) ship();
      }
    }
    if (builder.size() > 0) ship();
    done.store(true, std::memory_order_release);
  }};

  std::thread consumer{[&] {
    const std::int64_t stall_ns = config_.consumer_stall.ns();
    ArrivalBatch batch;
    const auto consume = [&] {
      if (sequences_ != nullptr) sequences_->ingest_batch(batch);
      if (monitor_ != nullptr) monitor_->ingest_batch(batch);
      ++consumed.batches_consumed;
      consumed.arrivals_consumed += batch.size();
      if (stall_ns > 0) {
        const auto until = std::chrono::steady_clock::now() + std::chrono::nanoseconds{stall_ns};
        while (std::chrono::steady_clock::now() < until) {
        }
      }
      batch.clear();
      ArrivalBatch recycled = std::move(batch);
      free_ring.push_or_drop(recycled);  // full free ring: let it deallocate
      batch = std::move(recycled);       // no-op if the push took it
    };
    for (;;) {
      if (ring.try_pop(batch)) {
        consume();
        continue;
      }
      if (done.load(std::memory_order_acquire)) {
        // The producer finished: one final drain settles the race between
        // its last publish and our failed pop.
        while (ring.try_pop(batch)) consume();
        break;
      }
      std::this_thread::yield();
    }
  }};

  producer.join();
  consumer.join();

  stats_ = produced;
  stats_.arrivals_consumed = consumed.arrivals_consumed;
  stats_.batches_consumed = consumed.batches_consumed;
  ring_counters_ = ring.counters();
  stats_.spin_waits = ring_counters_.spin_waits;
  stats_.wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - started)
                       .count();
  return stats_;
}

const PipelineStats& IngestPipeline::run(const Arrival* arrivals, std::size_t count) {
  std::size_t next = 0;
  return run([arrivals, count, next](Arrival* out, std::size_t max) mutable {
    const std::size_t n = std::min(max, count - next);
    std::copy(arrivals + next, arrivals + next + n, out);
    next += n;
    return n;
  });
}

const PipelineStats& IngestPipeline::run(const std::vector<Arrival>& arrivals) {
  return run(arrivals.data(), arrivals.size());
}

report::Json IngestPipeline::to_json() const {
  report::Json j = report::Json::object();
  j.set("backpressure",
        std::string{config_.backpressure == Backpressure::kSpin ? "spin" : "drop"});
  j.set("batch_capacity", static_cast<std::uint64_t>(config_.batch_capacity));
  j.set("ring_batches", static_cast<std::uint64_t>(config_.ring_batches));
  j.set("arrivals_produced", stats_.arrivals_produced);
  j.set("arrivals_consumed", stats_.arrivals_consumed);
  j.set("arrivals_dropped", stats_.arrivals_dropped);
  j.set("batches_produced", stats_.batches_produced);
  j.set("batches_consumed", stats_.batches_consumed);
  j.set("batches_dropped", stats_.batches_dropped);
  j.set("spin_waits", stats_.spin_waits);
  j.set("wall_ns", static_cast<std::uint64_t>(stats_.wall_ns));
  const double secs = static_cast<double>(stats_.wall_ns) / 1e9;
  j.set("arrivals_per_sec",
        secs > 0.0 ? static_cast<double>(stats_.arrivals_consumed) / secs : 0.0);
  report::Json ring = report::Json::object();
  ring.set("pushed", ring_counters_.pushed);
  ring.set("popped", ring_counters_.popped);
  ring.set("dropped", ring_counters_.dropped);
  ring.set("spin_waits", ring_counters_.spin_waits);
  j.set("ring", std::move(ring));
  return j;
}

void IngestPipeline::emit_jsonl(report::JsonlWriter& out) const {
  report::Json j = report::Json::object();
  j.set("type", "ingest");
  const report::Json body = to_json();
  for (const auto& [key, value] : body.members()) j.set(key, value);
  out.write(j);
}

std::vector<Arrival> from_monitor(const std::vector<monitor::MonitorArrival>& arrivals) {
  std::vector<Arrival> out;
  out.reserve(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    out.push_back(Arrival{arrivals[i].flow, arrivals[i].send_index,
                          static_cast<std::int64_t>(i)});
  }
  return out;
}

}  // namespace reorder::ingest
