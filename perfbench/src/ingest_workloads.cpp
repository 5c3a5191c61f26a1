// The two line-rate ingest workloads: ingest-coalesced (long-lived flows,
// warm pipeline) and ingest-churn (short-lived reordered flows, cold
// pipeline per pass). Both run ParallelIngestPipeline at 2 shards: two
// consumer threads plus the dispatcher on the calling thread, 3 busy
// threads on a 4-vCPU host.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "ingest/parallel_pipeline.hpp"
#include "ingest/pipeline.hpp"
#include "monitor/engine.hpp"
#include "util/fault_injector.hpp"

namespace perfbench {
namespace {

using reorder::ingest::Arrival;
using reorder::ingest::ArrivalBatch;
using reorder::ingest::ArrivalBatchBuilder;
using reorder::ingest::ParallelIngestPipeline;
using reorder::ingest::ParallelPipelineConfig;
using reorder::ingest::ParallelPipelineStats;
using reorder::ingest::SequenceEngine;
using reorder::monitor::MonitorConfig;
using reorder::monitor::MonitorEngine;
using reorder::util::fnv1a64;

constexpr std::size_t kShards = 2;
constexpr std::size_t kBatch = 1024;
constexpr std::size_t kRingBatches = 64;

// ------------------------------------------------------------- traffic

/// 4096 long-lived flows, interrupt-coalescing shaped (arXiv 1008.4931):
/// each flow's packets arrive in bursts of 12-20 frames, flows interleave
/// burst by burst, and inside a burst adjacent frames swap with
/// probability 0.05 (a swapped pair is not swapped again), so no frame
/// leaves its burst. The swap rate is kept light so the per-arrival metric
/// work stays small beside the dispatcher and ring.
std::vector<Arrival> render_coalesced(std::uint64_t seed, std::size_t flows,
                                      std::uint32_t packets) {
  Rng rng{mix64(seed ^ 0xc0a1e5cedULL)};
  std::vector<std::uint64_t> ids(flows);
  for (std::size_t f = 0; f < flows; ++f) ids[f] = mix64(seed * 0x100000001b3ULL + f);
  std::vector<std::uint32_t> next(flows, 0);
  std::vector<std::size_t> order(flows);
  for (std::size_t f = 0; f < flows; ++f) order[f] = f;
  std::vector<Arrival> out;
  out.reserve(flows * packets);
  std::vector<std::uint32_t> burst;
  bool more = true;
  while (more) {
    more = false;
    for (std::size_t i = flows; i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
    for (const std::size_t f : order) {
      if (next[f] >= packets) continue;
      const std::uint32_t len = std::min<std::uint32_t>(
          12 + static_cast<std::uint32_t>(rng.below(9)), packets - next[f]);
      burst.clear();
      for (std::uint32_t k = 0; k < len; ++k) burst.push_back(next[f] + k);
      for (std::size_t k = 0; k + 1 < burst.size();) {
        if (rng.bernoulli(0.05)) {
          std::swap(burst[k], burst[k + 1]);
          k += 2;
        } else {
          ++k;
        }
      }
      for (const std::uint32_t s : burst) {
        out.push_back(Arrival{ids[f], s, static_cast<std::int64_t>(out.size())});
      }
      next[f] += len;
      more = more || next[f] < packets;
    }
  }
  return out;
}

/// One short flow's send indices in arrival order: even flows cross a
/// two-link stripe whose second link lags by 1-3 packets, odd flows pass
/// an adjacent-swap shaper (p = 0.25).
std::vector<std::uint32_t> churn_flow(std::size_t flow, std::uint32_t n, Rng& rng) {
  std::vector<std::uint32_t> seq(n);
  for (std::uint32_t i = 0; i < n; ++i) seq[i] = i;
  if (flow % 2 == 0) {
    const std::uint32_t lag = 1 + static_cast<std::uint32_t>(rng.below(3));
    std::stable_sort(seq.begin(), seq.end(), [lag](std::uint32_t a, std::uint32_t b) {
      return a + (a % 2) * lag < b + (b % 2) * lag;
    });
  } else {
    for (std::uint32_t i = 0; i + 1 < n;) {
      if (rng.bernoulli(0.25)) {
        std::swap(seq[i], seq[i + 1]);
        i += 2;
      } else {
        ++i;
      }
    }
  }
  return seq;
}

/// `flows` short-lived flows of 16-48 packets, `active` of them live at any
/// moment: each step emits a run of 1-4 packets of a random live flow, and
/// a finished flow's place goes to the next new one.
std::vector<Arrival> render_churn(std::uint64_t seed, std::size_t flows, std::size_t active) {
  Rng rng{mix64(seed ^ 0xc4a2cULL)};
  struct Live {
    std::uint64_t id;
    std::vector<std::uint32_t> seq;
    std::size_t pos;
  };
  std::vector<Live> live;
  std::size_t started = 0;
  const auto start_flow = [&] {
    const std::uint32_t n = 16 + static_cast<std::uint32_t>(rng.below(33));
    Live l{mix64(seed * 0x9e3779b97f4a7c15ULL + started), churn_flow(started, n, rng), 0};
    ++started;
    return l;
  };
  while (live.size() < active && started < flows) live.push_back(start_flow());
  std::vector<Arrival> out;
  out.reserve(flows * 48);  // the longest flows: no reallocation mid-render
  while (!live.empty()) {
    const std::size_t slot = rng.below(live.size());
    Live& l = live[slot];
    const std::size_t run = std::min<std::size_t>(1 + rng.below(4), l.seq.size() - l.pos);
    for (std::size_t k = 0; k < run; ++k) {
      out.push_back(Arrival{l.id, l.seq[l.pos++], static_cast<std::int64_t>(out.size())});
    }
    if (l.pos == l.seq.size()) {
      if (started < flows) {
        l = start_flow();
      } else {
        l = std::move(live.back());
        live.pop_back();
      }
    }
  }
  return out;
}

// ------------------------------------------------------------ wrappers

struct Shape {
  const char* name;
  /// coalesced: one pipeline, warm across passes; churn: a fresh one per pass.
  bool reuse_pipeline;
  MonitorConfig monitor;
};

ParallelPipelineConfig pipeline_config(std::size_t shards, const MonitorConfig& monitor) {
  ParallelPipelineConfig cfg;
  cfg.shards = shards;
  cfg.batch_capacity = kBatch;
  cfg.ring_batches = kRingBatches;
  cfg.backpressure = reorder::ingest::Backpressure::kSpin;
  cfg.sequences = true;
  cfg.monitor = true;
  cfg.monitor_config = monitor;
  // Runs on the consumer threads: counted and timed per call when traced.
  cfg.suite_factory = [] {
    Tracer& t = Tracer::instance();
    if (!t.enabled()) return SequenceEngine::default_suite();
    const std::int64_t start = now_ns();
    reorder::metrics::MetricSuite suite = SequenceEngine::default_suite();
    t.tally("metrics.suite_create", now_ns() - start);
    return suite;
  };
  return cfg;
}

struct Fold {
  reorder::report::Json sequences;
  MonitorEngine monitor;
};

struct PassRecord {
  double seconds{0.0};
  /// Process CPU seconds over the same span. Every pipeline thread is
  /// always runnable (working or spinning), so this is about the thread
  /// count times the pass's wall time less what the hypervisor stole:
  /// steal slows the pass without moving it.
  double cpu_s{0.0};
  ParallelPipelineStats stats;
  std::uint64_t evictions{0};
  Tally suite_create;
};

/// One pass: the whole stream through run(), then flush and both folds.
/// The clock covers all of it, so work moved from the consumers into the
/// fold still counts.
PassRecord ingest_pass(ParallelIngestPipeline& pipeline, const std::vector<Arrival>& stream,
                       Fold& fold) {
  ScopedSpan pass{"pass"};
  std::size_t cursor = 0;
  const ParallelIngestPipeline::Source source = [&](Arrival* out, std::size_t max) {
    ScopedSpan span{"ingest.source"};
    const std::size_t n = std::min(max, stream.size() - cursor);
    std::copy_n(stream.data() + cursor, n, out);
    cursor += n;
    return n;
  };
  PassRecord rec;
  const std::int64_t start = now_ns();
  const double cpu0 = process_cpu_s();
  {
    ScopedSpan span{"ingest.run"};
    pipeline.run(source);
  }
  {
    ScopedSpan span{"ingest.flush"};
    pipeline.flush();
  }
  {
    ScopedSpan span{"metrics.fold"};
    fold.sequences = pipeline.sequences_json();
  }
  {
    ScopedSpan span{"monitor.fold"};
    fold.monitor = pipeline.merged_monitor();
  }
  rec.seconds = wall_s_since(start);
  rec.cpu_s = process_cpu_s() - cpu0;
  rec.stats = pipeline.stats();
  rec.evictions = fold.monitor.table().counters().evictions;
  rec.suite_create = Tracer::instance().take_tally("metrics.suite_create");
  return rec;
}

std::vector<ArrivalBatch> to_batches(const std::vector<Arrival>& stream) {
  std::vector<ArrivalBatch> out;
  ArrivalBatchBuilder builder{kBatch};
  for (const Arrival& a : stream) {
    if (builder.push(a)) out.push_back(builder.take());
  }
  if (builder.size() > 0) out.push_back(builder.take());
  return out;
}

/// Arrivals/s of `engine_pass` (one whole-stream pass on one thread),
/// median of `passes` after one untimed warm-up pass.
template <typename EnginePass>
double single_thread_rate(std::size_t arrivals, int passes, EnginePass&& engine_pass) {
  engine_pass();
  std::vector<double> rates;
  for (int i = 0; i < passes; ++i) {
    const std::int64_t start = now_ns();
    engine_pass();
    rates.push_back(static_cast<double>(arrivals) / wall_s_since(start));
  }
  return median(rates);
}

// ------------------------------------------------------------- workload

using Render = std::vector<Arrival> (*)(std::uint64_t seed, bool tiny);

Outcome run_ingest(const Options& opt, const Shape& shape, Render render) {
  Outcome out;
  Tracer& tracer = Tracer::instance();

  // ---- set-up: the stream, the pipeline and one warm-up pass, timed in
  // fresh processes, then done once more here for the timed phase.
  std::vector<Arrival> stream;
  std::vector<Arrival> corrupted;
  std::optional<ParallelIngestPipeline> pipeline;
  Fold fold;
  const auto set_up = [&] {
    stream = render(opt.seed, opt.tiny);
    if (opt.corrupt) {
      // One send index with a flipped bit, seen by the pipeline and not the
      // oracle. A high bit: flipping bit 0 can turn k into a duplicate of
      // k + 1 that neither sequence metric distinguishes.
      corrupted = stream;
      corrupted[corrupted.size() / 2].send_index ^= 1u << 16;
    }
    pipeline.emplace(pipeline_config(kShards, shape.monitor));
    ingest_pass(*pipeline, opt.corrupt ? corrupted : stream, fold);  // warm-up
  };
  out.setup_s = forked_setup_s(set_up);
  set_up();
  const std::vector<Arrival>& fed = opt.corrupt ? corrupted : stream;
  int pipeline_passes = 1;  // the kept pipeline's warm-up

  std::vector<std::uint64_t> churn_seq_hashes;
  std::vector<std::uint64_t> churn_mon_hashes;
  const auto timed_pass = [&](std::vector<PassRecord>& records) {
    if (!shape.reuse_pipeline) pipeline.emplace(pipeline_config(kShards, shape.monitor));
    records.push_back(ingest_pass(*pipeline, fed, fold));
    ++pipeline_passes;
    if (!shape.reuse_pipeline) {
      churn_seq_hashes.push_back(fnv1a64(fold.sequences.dump()));
      churn_mon_hashes.push_back(fnv1a64(fold.monitor.to_json().dump()));
    }
  };
  const auto cpu_rates = [&](const std::vector<PassRecord>& records) {
    std::vector<double> r;
    for (const PassRecord& p : records) r.push_back(static_cast<double>(fed.size()) / p.cpu_s);
    return r;
  };
  const auto wall_rates = [&](const std::vector<PassRecord>& records) {
    std::vector<double> r;
    for (const PassRecord& p : records) r.push_back(static_cast<double>(fed.size()) / p.seconds);
    return r;
  };

  // ---- timed phase (untraced).
  // Each pass's own peak resident set; their median is the run's figure.
  std::vector<PassRecord> untraced;
  std::vector<double> rss;
  const double cpu0 = process_cpu_s();
  run_passes(opt.trace ? opt.seconds / 2 : opt.seconds, [&] {
    reset_peak_rss();
    timed_pass(untraced);
    rss.push_back(peak_rss_mb());
  });
  const double cpu_s = process_cpu_s() - cpu0;
  out.throughput_per_s = median(cpu_rates(untraced));
  out.peak_rss_mb = median(rss);
  std::fprintf(stderr,
               "%s: per-pass arrivals per CPU second q1 %.6g, median %.6g, q3 %.6g; "
               "per wall second median %.6g; %zu passes\n",
               shape.name, quantile(cpu_rates(untraced), 0.25), out.throughput_per_s,
               quantile(cpu_rates(untraced), 0.75), median(wall_rates(untraced)),
               untraced.size());

  // ---- traced phase and single-layer probes.
  std::vector<PassRecord> traced;
  if (opt.trace) {
    tracer.set_enabled(true);
    run_passes(opt.seconds / 2, [&] { timed_pass(traced); });
    tracer.set_enabled(false);
    const std::vector<Span> spans = tracer.spans();
    const auto per_pass = [&](const char* name) {
      return per_pass_seconds(spans, "pass", name);
    };
    const std::vector<double> run_s = per_pass("ingest.run");
    const std::vector<double> source_s = per_pass("ingest.source");
    std::vector<double> wait_s;
    for (std::size_t i = 0; i < run_s.size(); ++i) wait_s.push_back(run_s[i] - source_s[i]);

    double spin = 0, sub = 0, full = 0, arrivals = 0;
    std::vector<double> imbalance, evictions, creates, create_s;
    for (const PassRecord& p : traced) {
      spin += static_cast<double>(p.stats.spin_waits);
      sub += static_cast<double>(p.stats.dispatcher.sub_batches);
      full += static_cast<double>(p.stats.dispatcher.fill_hist[7]);
      imbalance.push_back(p.stats.dispatcher.imbalance_ratio);
      evictions.push_back(static_cast<double>(p.evictions));
      creates.push_back(static_cast<double>(p.suite_create.count));
      create_s.push_back(static_cast<double>(p.suite_create.total_ns) / 1e9);
    }
    for (const PassRecord& p : untraced) {
      arrivals += static_cast<double>(p.stats.arrivals_produced);
    }

    // shards:1 on the same stream and pass shape: the single-thread
    // baseline the scaling figure is quoted against.
    std::vector<PassRecord> one_shard;
    {
      ParallelIngestPipeline single{pipeline_config(1, shape.monitor)};
      Fold f;
      ingest_pass(single, fed, f);
      for (int i = 0; i < 5; ++i) {
        if (shape.reuse_pipeline) {
          one_shard.push_back(ingest_pass(single, fed, f));
        } else {
          ParallelIngestPipeline fresh{pipeline_config(1, shape.monitor)};
          one_shard.push_back(ingest_pass(fresh, fed, f));
        }
      }
    }

    // Consumer work with no threads: the same batches into one engine.
    const std::vector<ArrivalBatch> batches = to_batches(fed);
    std::optional<SequenceEngine> seq;
    const double observe_rate = single_thread_rate(fed.size(), 5, [&] {
      if (!seq || !shape.reuse_pipeline) seq.emplace();
      for (const ArrivalBatch& b : batches) seq->ingest_batch(b);
      seq->flush();
    });
    std::optional<MonitorEngine> mon;
    const double monitor_rate = single_thread_rate(fed.size(), 5, [&] {
      if (!mon || !shape.reuse_pipeline) mon.emplace(shape.monitor);
      for (const ArrivalBatch& b : batches) mon->ingest_batch(b);
      mon->flush();
    });

    auto& L = out.layer;
    L["ingest.run_s"] = median(run_s);
    L["ingest.source_s"] = median(source_s);
    L["ingest.dispatch_wait_s"] = median(wait_s);
    L["ingest.spin_waits_per_batch"] = sub > 0 ? spin / sub : 0.0;
    L["ingest.fill_full_share"] = sub > 0 ? full / sub : 0.0;
    L["ingest.imbalance_ratio"] = median(imbalance);
    L["ingest.cpu_s_per_m_arrivals"] = arrivals > 0 ? cpu_s / (arrivals / 1e6) : 0.0;
    L["ingest.scaling_vs_1shard"] = median(wall_rates(untraced)) / median(wall_rates(one_shard));
    L["ingest.flush_s"] = median(per_pass("ingest.flush"));
    L["metrics.suite_create_count"] = median(creates);
    L["metrics.suite_create_s"] = median(create_s);
    L["metrics.batched_observe_per_s"] = observe_rate;
    L["metrics.fold_s"] = median(per_pass("metrics.fold"));
    L["monitor.ingest_batch_per_s"] = monitor_rate;
    L["monitor.evictions"] = median(evictions);
    L["monitor.fold_s"] = median(per_pass("monitor.fold"));
    L["pass.wall_throughput_per_s"] = median(wall_rates(untraced));
    L["trace.throughput_delta_per_s"] = median(cpu_rates(traced)) - out.throughput_per_s;
  }

  // ---- verification: after the clock, counts toward no metric.
  bool conserved = true;
  for (const std::vector<PassRecord>* records : {&untraced, &traced}) {
    for (const PassRecord& p : *records) {
      out.attempted += p.stats.arrivals_produced;
      out.failed += p.stats.arrivals_dropped;
      conserved = conserved && p.stats.arrivals_produced == fed.size() &&
                  p.stats.arrivals_consumed == p.stats.arrivals_produced &&
                  p.stats.arrivals_dropped == 0;
    }
  }
  if (!conserved) out.errors.push_back("a pass broke consumed + dropped == produced, dropped == 0");

  // The oracle: one scalar SequenceEngine::observe per arrival on this
  // thread, over the pristine stream, with the pipeline's flush pattern;
  // beside it one MonitorEngine fed the stream's maximal same-flow runs.
  const int oracle_passes = shape.reuse_pipeline ? pipeline_passes : 1;
  SequenceEngine seq_oracle;
  std::optional<MonitorEngine> mon_oracle;
  std::jthread monitor_thread;
  if (shape.reuse_pipeline) {
    mon_oracle.emplace(shape.monitor);
    monitor_thread = std::jthread{[&] {
      std::vector<std::uint32_t> sends(stream.size());
      for (std::size_t i = 0; i < stream.size(); ++i) sends[i] = stream[i].send_index;
      for (int p = 0; p < oracle_passes; ++p) {
        for (std::size_t i = 0; i < stream.size();) {
          std::size_t j = i + 1;
          while (j < stream.size() && stream[j].flow == stream[i].flow) ++j;
          mon_oracle->ingest_run(stream[i].flow, sends.data() + i, j - i);
          i = j;
        }
        mon_oracle->flush();
      }
    }};
  }
  for (int p = 0; p < oracle_passes; ++p) {
    for (const Arrival& a : stream) seq_oracle.observe(a.flow, a.send_index);
    seq_oracle.flush();
  }
  if (monitor_thread.joinable()) monitor_thread.join();

  const std::string seq_want = seq_oracle.to_json().dump();
  if (shape.reuse_pipeline) {
    if (fold.sequences.dump() != seq_want) {
      out.errors.push_back("folded sequences differ from the scalar observe oracle");
    }
    if (fold.monitor.to_json().dump() != mon_oracle->to_json().dump()) {
      out.errors.push_back("merged monitor differs from the single MonitorEngine");
    }
    if (mon_oracle->table().counters().evictions != 0 ||
        fold.monitor.table().counters().evictions != 0) {
      out.errors.push_back("monitor table evicted; it must be sized for every flow");
    }
  } else {
    const std::uint64_t want = fnv1a64(seq_want);
    for (const std::uint64_t h : churn_seq_hashes) {
      if (h != want) {
        out.errors.push_back("a pass's folded sequences differ from the scalar observe oracle");
        break;
      }
    }
    for (const std::uint64_t h : churn_mon_hashes) {
      if (h != churn_mon_hashes.front()) {
        out.errors.push_back("merged monitor differs between identical passes");
        break;
      }
    }
  }
  std::fprintf(stderr, "%s: %zu arrivals/pass, %zu timed passes, %d oracle passes\n", shape.name,
               fed.size(), untraced.size() + traced.size(), oracle_passes);
  return out;
}

std::vector<Arrival> coalesced_input(std::uint64_t seed, bool tiny) {
  return tiny ? render_coalesced(seed, 64, 64) : render_coalesced(seed, 4096, 512);
}

std::vector<Arrival> churn_input(std::uint64_t seed, bool tiny) {
  return tiny ? render_churn(seed, 2048, 256) : render_churn(seed, 100000, 2048);
}

MonitorConfig monitor_config(std::size_t slots, std::size_t ways) {
  MonitorConfig cfg;
  cfg.table.slots = slots;
  cfg.table.ways = ways;
  return cfg;
}

}  // namespace

Outcome run_ingest_coalesced(const Options& opt) {
  // 2048 sets of 16 ways hold all 4096 flows even in one engine (the
  // fullest set of a seed holds about 8; at 1024 sets one seed in 400
  // overflowed a set): no shard evicts, so the merged monitor is comparable
  // to a single engine.
  return run_ingest(opt, Shape{"ingest-coalesced", true, monitor_config(32768, 16)},
                    &coalesced_input);
}

Outcome run_ingest_churn(const Options& opt) {
  // 512 slots per shard against ~1024 live flows per shard: it evicts.
  return run_ingest(opt, Shape{"ingest-churn", false, monitor_config(512, 4)}, &churn_input);
}

}  // namespace perfbench
