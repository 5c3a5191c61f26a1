// Library microbenchmarks (engineering, not from the paper): codec and
// checksum throughput, event-loop scheduling, endpoint segment processing,
// the reordering stages, and a full end-to-end measurement sample.
//
// The human table is google-benchmark's console reporter; alongside it a
// JSONL artifact (one record per benchmark run) streams through the
// report layer like every other bench binary's.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <unordered_map>

#include "bench_common.hpp"
#include "core/checkpoint.hpp"
#include "core/survey_world.hpp"
#include "ingest/parallel_pipeline.hpp"
#include "ingest/pipeline.hpp"
#include "core/test_registry.hpp"
#include "core/testbed.hpp"
#include "metrics/engine.hpp"
#include "metrics/sequence_metrics.hpp"
#include "monitor/engine.hpp"
#include "netsim/event_loop.hpp"
#include "netsim/link.hpp"
#include "netsim/path.hpp"
#include "netsim/striped_link.hpp"
#include "netsim/swap_shaper.hpp"
#include "service/survey_service.hpp"
#include "stats/students_t.hpp"
#include "tcpip/tcp_endpoint.hpp"
#include "trace/analyzer.hpp"
#include "util/buffer_pool.hpp"
#include "util/checksum.hpp"
#include "util/random.hpp"
#include "util/shard_seeder.hpp"

namespace {

using namespace reorder;

void BM_InternetChecksum(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::internet_checksum(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InternetChecksum)->Arg(40)->Arg(576)->Arg(1500);

void BM_PacketSerialize(benchmark::State& state) {
  tcpip::Packet pkt;
  pkt.ip.src = tcpip::Ipv4Address::from_octets(10, 0, 0, 1);
  pkt.ip.dst = tcpip::Ipv4Address::from_octets(10, 0, 0, 2);
  pkt.tcp.src_port = 40000;
  pkt.tcp.dst_port = 80;
  pkt.tcp.flags = tcpip::kAck | tcpip::kPsh;
  pkt.payload.assign(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pkt.to_wire());
  }
}
BENCHMARK(BM_PacketSerialize)->Arg(0)->Arg(512)->Arg(1460);

void BM_PacketRoundTrip(benchmark::State& state) {
  tcpip::Packet pkt;
  pkt.ip.src = tcpip::Ipv4Address::from_octets(10, 0, 0, 1);
  pkt.ip.dst = tcpip::Ipv4Address::from_octets(10, 0, 0, 2);
  pkt.tcp.mss = 1460;
  pkt.tcp.flags = tcpip::kSyn;
  const auto wire = pkt.to_wire();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tcpip::Packet::from_wire(wire));
  }
}
BENCHMARK(BM_PacketRoundTrip);

// Scheduling throughput, indexed-heap (the production scheduler) vs the
// retained std::map reference — the before/after pair for the PR's >= 3x
// acceptance criterion. The loop lives across iterations: what long surveys
// pay is the steady state, where the heap's storage is already at its
// high-water mark (and the map still allocates two nodes per event). Each
// event carries a capture the size of a typical stage callback (stage
// pointer + in-flight packet state), as every real event does.
struct EventCapture {
  std::uint64_t* sink;
  std::uint64_t state[8];  // 64 bytes of carried packet/timer state
};
void schedule_run(benchmark::State& state, sim::EventLoop::QueuePolicy policy) {
  sim::EventLoop loop{policy};
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < state.range(0); ++i) {
      EventCapture cap{&sink, {static_cast<std::uint64_t>(i)}};
      loop.schedule(util::Duration::micros(i % 97), [cap] { *cap.sink += cap.state[0]; });
    }
    loop.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
void BM_EventLoopScheduleRun(benchmark::State& state) {
  schedule_run(state, sim::EventLoop::QueuePolicy::kIndexedHeap);
}
BENCHMARK(BM_EventLoopScheduleRun)->Arg(1000)->Arg(10000);
void BM_EventLoopScheduleRunMapRef(benchmark::State& state) {
  schedule_run(state, sim::EventLoop::QueuePolicy::kReferenceMap);
}
BENCHMARK(BM_EventLoopScheduleRunMapRef)->Arg(1000)->Arg(10000);

// Steady-state cancel-heavy workload: the protocol-timer pattern (RTO /
// delayed-ACK / watchdog timers are armed constantly and almost always
// cancelled before firing). Half of all scheduled events are cancelled.
void cancel_heavy(benchmark::State& state, sim::EventLoop::QueuePolicy policy) {
  sim::EventLoop loop{policy};
  std::vector<std::uint64_t> tokens(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      tokens[i] = loop.schedule(util::Duration::micros(static_cast<std::int64_t>(i % 97)), [] {});
    }
    for (std::size_t i = 0; i < tokens.size(); i += 2) loop.cancel(tokens[i]);
    loop.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
void BM_EventLoopCancelHeavy(benchmark::State& state) {
  cancel_heavy(state, sim::EventLoop::QueuePolicy::kIndexedHeap);
}
BENCHMARK(BM_EventLoopCancelHeavy)->Arg(1000);
void BM_EventLoopCancelHeavyMapRef(benchmark::State& state) {
  cancel_heavy(state, sim::EventLoop::QueuePolicy::kReferenceMap);
}
BENCHMARK(BM_EventLoopCancelHeavyMapRef)->Arg(1000);

// One packet through a 4-stage path (link > jitter > striped link > link):
// the exact hot path a measurement sample's packets traverse, including
// four packet-carrying callbacks through the scheduler and a pooled
// payload recycled at the terminal sink.
void BM_LinkChainTransit(benchmark::State& state) {
  sim::EventLoop loop;
  sim::Path path;
  sim::LinkParams link_params;
  path.emplace<sim::LinkStage>(loop, link_params);
  path.emplace<sim::JitterStage>(loop, util::Duration::micros(0), util::Duration::micros(50),
                                 util::Rng{7});
  path.emplace<sim::StripedLink>(loop, sim::StripedLinkConfig{}, util::Rng{11});
  path.emplace<sim::LinkStage>(loop, link_params);
  std::uint64_t arrived = 0;
  path.terminate([&arrived](tcpip::Packet pkt) {
    ++arrived;
    tcpip::recycle(std::move(pkt));
  });
  const auto entry = path.entry();
  for (auto _ : state) {
    tcpip::Packet pkt;
    pkt.ip.src = tcpip::Ipv4Address::from_octets(10, 0, 0, 1);
    pkt.ip.dst = tcpip::Ipv4Address::from_octets(10, 0, 0, 2);
    pkt.tcp.src_port = 40000;
    pkt.tcp.dst_port = 80;
    pkt.payload = util::BufferPool::global().acquire(512);
    pkt.payload.assign(512, 0x2a);
    entry(std::move(pkt));
    loop.run();
  }
  state.SetItemsProcessed(state.iterations());
  benchmark::DoNotOptimize(arrived);
}
BENCHMARK(BM_LinkChainTransit);

void BM_EndpointInOrderSegments(benchmark::State& state) {
  sim::EventLoop loop;
  tcpip::TcpBehavior behavior;
  behavior.delayed_ack = tcpip::DelayedAckPolicy::kNone;
  const tcpip::ConnKey key{80, tcpip::Ipv4Address::from_octets(10, 0, 0, 1), 40000};
  tcpip::TcpEndpoint ep{loop, behavior, key, 1000,
                        [](tcpip::TcpHeader, std::vector<std::uint8_t>) {}};
  tcpip::Packet syn;
  syn.ip.src = key.remote_addr;
  syn.tcp.src_port = 40000;
  syn.tcp.dst_port = 80;
  syn.tcp.flags = tcpip::kSyn;
  syn.tcp.seq = 5000;
  ep.on_segment(syn);
  tcpip::Packet ack = syn;
  ack.tcp.flags = tcpip::kAck;
  ack.tcp.seq = 5001;
  ack.tcp.ack = 1001;
  ep.on_segment(ack);

  tcpip::Packet data = ack;
  data.tcp.flags = tcpip::kAck | tcpip::kPsh;
  data.payload.assign(512, 0x11);
  std::uint32_t seq = 5001;
  for (auto _ : state) {
    data.tcp.seq = seq;
    seq += 512;
    ep.on_segment(data);
  }
  state.SetBytesProcessed(state.iterations() * 512);
}
BENCHMARK(BM_EndpointInOrderSegments);

void BM_SwapShaperStream(benchmark::State& state) {
  sim::EventLoop loop;
  sim::SwapShaper shaper{loop, sim::SwapShaperConfig{0.1, util::Duration::millis(5)},
                         util::Rng{1}};
  std::uint64_t sink_count = 0;
  shaper.connect([&](tcpip::Packet) { ++sink_count; });
  tcpip::Packet pkt;
  for (auto _ : state) {
    shaper.accept(pkt);
    if ((state.iterations() & 0xff) == 0) loop.run();
  }
  loop.run();
  benchmark::DoNotOptimize(sink_count);
}
BENCHMARK(BM_SwapShaperStream);

void BM_CountInversions(benchmark::State& state) {
  std::vector<std::uint32_t> arrival(static_cast<std::size_t>(state.range(0)));
  util::Rng rng{3};
  for (std::size_t i = 0; i < arrival.size(); ++i) arrival[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = arrival.size(); i > 1; --i) {
    std::swap(arrival[i - 1], arrival[rng.below(i)]);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::count_inversions(arrival));
  }
}
BENCHMARK(BM_CountInversions)->Arg(16)->Arg(100);

void BM_StudentTCritical(benchmark::State& state) {
  double df = 2.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::student_t_critical(0.999, df));
    df = df < 200.0 ? df + 1.0 : 2.0;
  }
}
BENCHMARK(BM_StudentTCritical);

// Metrics-engine hot path: folding one completed measurement (and its
// samples) into a (target, test) suite — what every measurement a
// million-path survey completes pays.
void BM_MetricEngineObserve(benchmark::State& state) {
  util::Rng rng{17};
  core::TestRunResult result;
  result.test_name = "bench";
  for (int i = 0; i < state.range(0); ++i) {
    core::SampleResult s;
    s.forward = rng.bernoulli(0.2) ? core::Ordering::kReordered : core::Ordering::kInOrder;
    s.reverse = core::Ordering::kInOrder;
    s.started = util::TimePoint::from_ns(i * 1000);
    s.completed = util::TimePoint::from_ns(i * 1000 + 800);
    s.gap = util::Duration::micros(i % 8);
    result.samples.push_back(s);
  }
  result.aggregate();

  metrics::MetricEngine engine;
  std::size_t index = 0;
  for (auto _ : state) {
    engine.observe_measurement(core::MeasurementEvent{"host", "test", index++,
                                                      util::TimePoint::epoch(), result});
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MetricEngineObserve)->Arg(15)->Arg(100);

// Cross-shard fold: merging two populated per-shard engines (3 targets x
// 2 tests, 64 measurements each) into a fresh survey-wide engine.
void BM_MetricEngineMerge(benchmark::State& state) {
  util::Rng rng{23};
  const auto build_shard = [&rng] {
    metrics::MetricEngine shard;
    for (int t = 0; t < 3; ++t) {
      const std::string target = "host-" + std::to_string(t);
      for (const char* test : {"syn", "single-connection"}) {
        for (std::size_t m = 0; m < 64; ++m) {
          core::TestRunResult result;
          result.test_name = test;
          for (int i = 0; i < 15; ++i) {
            core::SampleResult s;
            s.forward =
                rng.bernoulli(0.2) ? core::Ordering::kReordered : core::Ordering::kInOrder;
            s.completed = util::TimePoint::from_ns(800);
            s.gap = util::Duration::micros(i % 8);
            result.samples.push_back(s);
          }
          result.aggregate();
          shard.observe_measurement(
              core::MeasurementEvent{target, test, m, util::TimePoint::epoch(), result});
        }
      }
    }
    return shard;
  };
  const metrics::MetricEngine shard_a = build_shard();
  const metrics::MetricEngine shard_b = build_shard();
  for (auto _ : state) {
    metrics::MetricEngine merged;
    merged.merge(shard_a);
    merged.merge(shard_b);
    benchmark::DoNotOptimize(merged.key_count());
  }
  state.SetItemsProcessed(state.iterations() * 2 * 6);  // suites folded per iteration
}
BENCHMARK(BM_MetricEngineMerge);

void BM_FullMeasurementSample(benchmark::State& state) {
  // One complete single-connection measurement (connect + N samples +
  // close) per iteration batch; reports time per sample.
  for (auto _ : state) {
    core::TestbedConfig cfg;
    cfg.seed = 42;
    cfg.forward.swap_probability = 0.1;
    core::Testbed bed{cfg};
    auto test = core::make_registered_test(bed.probe(), bed.remote_addr(),
                                           core::TestSpec{"single-connection"});
    core::TestRunConfig run;
    run.samples = 20;
    benchmark::DoNotOptimize(bed.run_sync(*test, run));
  }
  state.SetItemsProcessed(state.iterations() * 20);
}
BENCHMARK(BM_FullMeasurementSample)->Unit(benchmark::kMillisecond);

// Parallel fleet scaling: the survey service's admit-to-drain cycle over
// a fixed 768-target fleet — work-stealing pool, one world per target,
// checkpoint off — driven by {1, 2, 4} workers. Every row simulates the
// IDENTICAL fleet (and, per the byte-identity guarantee, produces
// identical results), so the ratio between rows is pure pool speedup, the
// number the CI scaling gate tracks. The fleet is sized so that workers:1
// takes well over 50 ms per iteration: a few-millisecond survey is too
// short for its run-to-run noise to stay below the effect.
void BM_ServiceAdmitDrain(benchmark::State& state) {
  std::vector<core::SurveyTargetConfig> fleet;
  for (int i = 0; i < 768; ++i) {
    core::SurveyTargetConfig target;
    target.name = "host-" + std::to_string(i);
    target.forward.swap_probability = (i % 4) * 0.05;
    target.remote.behavior.immediate_ack_on_hole_fill = true;
    target.tests = {core::TestSpec{"single-connection"}, core::TestSpec{"syn"}};
    fleet.push_back(std::move(target));
  }
  std::size_t measurements = 0;
  for (auto _ : state) {
    service::SurveyServiceConfig cfg;
    cfg.seed = 11;
    cfg.workers = static_cast<std::size_t>(state.range(0));
    cfg.run.samples = 10;
    cfg.rounds = 1;
    cfg.between = util::Duration::millis(200);
    service::SurveyService service{cfg};
    service.admit(fleet);
    service.drain();
    measurements = service.snapshot().measurements;
    benchmark::DoNotOptimize(measurements);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(measurements));
}
// UseRealTime: the work happens on pool workers, so the main thread's
// CPU clock would show nothing — wall time is the quantity that scales.
BENCHMARK(BM_ServiceAdmitDrain)
    ->ArgName("workers")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The live view's cost: snapshot() folds every populated accumulator
// slot through MetricEngine::merge under per-slot locks. Priced on a
// quiescent populated service so the number is the pure fold — mid-run
// it additionally contends with completing workers, never blocks them.
void BM_LiveSnapshot(benchmark::State& state) {
  service::SurveyServiceConfig cfg;
  cfg.seed = 11;
  cfg.workers = 4;
  cfg.run.samples = 10;
  cfg.rounds = 1;
  cfg.between = util::Duration::millis(200);
  service::SurveyService service{cfg};
  std::vector<core::SurveyTargetConfig> fleet;
  for (int i = 0; i < 8; ++i) {
    core::SurveyTargetConfig target;
    target.name = "host-" + std::to_string(i);
    target.forward.swap_probability = (i % 4) * 0.05;
    target.remote.behavior.immediate_ack_on_hole_fill = true;
    target.tests = {core::TestSpec{"single-connection"}, core::TestSpec{"syn"}};
    fleet.push_back(std::move(target));
  }
  service.admit(std::move(fleet));
  service.drain();
  for (auto _ : state) {
    const service::SurveyService::Snapshot snap = service.snapshot();
    benchmark::DoNotOptimize(snap.measurements);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LiveSnapshot);

// One durability point of a retained survey: `targets` single-connection
// results recorded one per checkpoint record (the service keys records
// by target), then one timed save() — the whole file through tmp +
// rename, as SurveyService rewrites it. Recording is set-up: records are
// rendered once, so a save is the cost that recurs at every durability
// point.
const core::SurveyCheckpoint& retained_checkpoint(std::size_t targets) {
  static std::map<std::size_t, core::SurveyCheckpoint> built;
  auto [it, inserted] = built.try_emplace(targets);
  if (!inserted) return it->second;
  constexpr std::uint64_t kSeed = 11;
  const util::ShardSeeder seeder{kSeed};
  core::SurveyEngine::Options options;
  options.retain_samples = true;
  core::TestRunConfig run;
  run.samples = 15;
  it->second.set_header({0, targets, 1, kSeed});
  for (std::size_t i = 0; i < targets; ++i) {
    core::SurveyTargetConfig target;
    target.name = "host-" + std::to_string(i);
    target.forward.swap_probability = static_cast<double>(i % 4) * 0.05;
    target.remote.behavior.immediate_ack_on_hole_fill = true;
    target.tests = {core::TestSpec{"single-connection"}};
    core::pin_target_identity(target, i, seeder);
    core::ShardRunResult result =
        core::run_survey_world({.seed = kSeed, .targets = {std::move(target)}}, options, {}, run,
                               1, util::Duration::millis(200));
    result.shard = i;
    it->second.record_shard(result);
  }
  return it->second;
}

void BM_CheckpointSave(benchmark::State& state) {
  const auto targets = static_cast<std::size_t>(state.range(0));
  const core::SurveyCheckpoint& checkpoint = retained_checkpoint(targets);
  const std::string path =
      (std::filesystem::temp_directory_path() / "reorder_bench_checkpoint.jsonl").string();
  for (auto _ : state) checkpoint.save(path);
  std::remove(path.c_str());
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CheckpointSave)->ArgName("targets")->Arg(512)->Unit(benchmark::kMillisecond);

// ----------------------------------------------------------------- monitor

// The always-on hot path: MonitorEngine::ingest over `flows` concurrent
// round-robin flows against a 1024-slot table with the default 256 B
// detector suite. 64 flows is the all-hits resident case; 4096 flows
// overflows the table four-fold, so every arrival pays the LRU eviction
// and fold path too. Epochs close every 512 rounds the way real flows do.
void BM_MonitorIngest(benchmark::State& state) {
  const std::size_t flows = static_cast<std::size_t>(state.range(0));
  monitor::MonitorConfig cfg;
  cfg.table.slots = 1024;
  monitor::MonitorEngine engine{cfg};
  std::vector<std::uint32_t> send(flows, 0);
  std::size_t f = 0;
  std::uint32_t round = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.ingest(f + 1, send[f]++));
    if (++f == flows) {
      f = 0;
      if (++round == 512) {
        round = 0;
        engine.flush();
        std::fill(send.begin(), send.end(), 0);
      }
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MonitorIngest)->ArgName("flows")->Arg(64)->Arg(4096);

// The exact-metrics twin of BM_MonitorIngest — identical traffic into
// per-flow unbounded SequenceExtentMetric + NReorderingMetric (the state
// MetricEngine keeps per key). The monitor's per-arrival budget must
// stay >= 2x cheaper than this; CI gates on the ratio.
void BM_ExactSequenceIngest(benchmark::State& state) {
  const std::size_t flows = static_cast<std::size_t>(state.range(0));
  const auto exact_suite = [] {
    metrics::MetricSuite suite;
    suite.add(std::make_unique<metrics::SequenceExtentMetric>());
    suite.add(std::make_unique<metrics::NReorderingMetric>());
    return suite;
  };
  std::unordered_map<std::uint64_t, metrics::MetricSuite> map;
  map.reserve(flows);
  for (std::size_t i = 0; i < flows; ++i) map.emplace(i + 1, exact_suite());
  std::vector<std::uint32_t> send(flows, 0);
  std::size_t f = 0;
  std::uint32_t round = 0;
  for (auto _ : state) {
    map.find(f + 1)->second.observe_arrival(send[f]++);
    if (++f == flows) {
      f = 0;
      if (++round == 512) {
        round = 0;
        for (auto& [key, suite] : map) suite.end_sequence();
        std::fill(send.begin(), send.end(), 0);
      }
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExactSequenceIngest)->ArgName("flows")->Arg(64)->Arg(4096);

// The table alone: set-associative lookup + LRU touch. 512 distinct keys
// stay resident in the 1024 slots (pure hit path); 65536 keys thrash
// (miss + eviction path).
void BM_FlowTableLookup(benchmark::State& state) {
  monitor::FlowTableConfig cfg;
  cfg.slots = 1024;
  monitor::FlowTable table{cfg};
  util::Rng rng{5};
  std::vector<std::uint64_t> keys(8192);
  for (auto& k : keys) k = rng.below(static_cast<std::uint64_t>(state.range(0)));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(keys[i]));
    if (++i == keys.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlowTableLookup)->ArgName("keys")->Arg(512)->Arg(65536);

// ------------------------------------------------------------------ ingest

namespace {

// The ingest benches' traffic: `flows` concurrent flows delivered the way
// interrupt coalescing does — per-flow in-order send indices, interleaved
// burst-by-burst in runs of `run` arrivals. This is the stream shape the
// batched path amortizes over (one map/table lookup and one virtual
// fan-in per run instead of per arrival); the scalar comparator
// BM_ExactSequenceIngest feeds the same suite one arrival at a time.
//
// With `swap_p` > 0, adjacent arrivals inside a run swap with that
// probability (a swapped pair is not swapped again), so reordering stays
// within the run — the shape of interrupt-coalescing reordering.
std::vector<ingest::ArrivalBatch> coalesced_batches(std::size_t flows, std::uint32_t packets,
                                                    std::size_t run, std::size_t batch_capacity,
                                                    double swap_p = 0.0) {
  std::vector<ingest::ArrivalBatch> out;
  ingest::ArrivalBatchBuilder builder{batch_capacity};
  util::Rng rng{1008};
  std::vector<std::uint32_t> next(flows, 0);
  std::vector<std::uint32_t> burst;
  bool more = true;
  while (more) {
    more = false;
    for (std::size_t f = 0; f < flows; ++f) {
      burst.clear();
      for (std::size_t i = 0; i < run && next[f] < packets; ++i) burst.push_back(next[f]++);
      for (std::size_t k = 0; swap_p > 0.0 && k + 1 < burst.size(); ++k) {
        if (rng.uniform01() < swap_p) {
          std::swap(burst[k], burst[k + 1]);
          ++k;
        }
      }
      for (const std::uint32_t s : burst) {
        if (builder.push(f + 1, s, 0)) out.push_back(builder.take());
      }
      more = more || next[f] < packets;
    }
  }
  if (builder.size() > 0) out.push_back(builder.take());
  return out;
}

/// Short-lived reordered flows: `flows` flows of 16 packets, 1024 live at
/// a time, each step a run of 1-4 packets of a random live flow; inside a
/// flow adjacent packets swap with probability 0.25.
std::vector<ingest::ArrivalBatch> churn_batches(std::size_t flows, std::size_t batch_capacity) {
  struct Live {
    std::uint64_t id;
    std::vector<std::uint32_t> seq;
    std::size_t pos;
  };
  util::Rng rng{4737};
  std::size_t started = 0;
  const auto start_flow = [&] {
    Live l{util::splitmix64(started++), std::vector<std::uint32_t>(16), 0};
    for (std::uint32_t i = 0; i < l.seq.size(); ++i) l.seq[i] = i;
    for (std::size_t i = 0; i + 1 < l.seq.size(); ++i) {
      if (rng.uniform01() < 0.25) {
        std::swap(l.seq[i], l.seq[i + 1]);
        ++i;
      }
    }
    return l;
  };
  std::vector<Live> live;
  while (live.size() < 1024 && started < flows) live.push_back(start_flow());
  std::vector<ingest::ArrivalBatch> out;
  ingest::ArrivalBatchBuilder builder{batch_capacity};
  while (!live.empty()) {
    const std::size_t slot = rng.below(live.size());
    Live& l = live[slot];
    const std::size_t run = std::min<std::size_t>(1 + rng.below(4), l.seq.size() - l.pos);
    for (std::size_t k = 0; k < run; ++k) {
      if (builder.push(l.id, l.seq[l.pos++], 0)) out.push_back(builder.take());
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
  if (builder.size() > 0) out.push_back(builder.take());
  return out;
}

}  // namespace

// The batched observe path of the sequence-metric suite: SequenceEngine
// drains pre-rendered SoA batches of the coalesced stream (4096 flows,
// runs of 16) through observe_arrivals() spans. The CI perf gate asserts
// this sustains >= 3x the scalar per-arrival items/s of
// BM_ExactSequenceIngest/flows:4096 — the amortization the ingest
// subsystem exists to buy.
void BM_BatchedObserve(benchmark::State& state) {
  const std::size_t flows = static_cast<std::size_t>(state.range(0));
  const std::vector<ingest::ArrivalBatch> batches =
      coalesced_batches(flows, /*packets=*/512, /*run=*/16, /*batch_capacity=*/1024);
  ingest::SequenceEngine engine;
  std::size_t b = 0;
  std::int64_t arrivals = 0;
  for (auto _ : state) {
    engine.ingest_batch(batches[b]);
    arrivals += static_cast<std::int64_t>(batches[b].size());
    if (++b == batches.size()) {
      b = 0;
      engine.flush();  // close every flow's sequence, like the scalar twin
    }
  }
  state.SetItemsProcessed(arrivals);
}
BENCHMARK(BM_BatchedObserve)->ArgName("flows")->Arg(64)->Arg(4096);

// BM_BatchedObserve's traffic with adjacent swaps (p = 0.05) inside each
// run of 16: most 512-packet sequences carry a few reordered arrivals, so
// the reordered-arrival step and the close-time inversion count run on
// every flow, flushed every 512 rounds like the in-order twin.
void BM_ReorderedObserve(benchmark::State& state) {
  const std::size_t flows = static_cast<std::size_t>(state.range(0));
  const std::vector<ingest::ArrivalBatch> batches = coalesced_batches(
      flows, /*packets=*/512, /*run=*/16, /*batch_capacity=*/1024, /*swap_p=*/0.05);
  ingest::SequenceEngine engine;
  std::size_t b = 0;
  std::int64_t arrivals = 0;
  for (auto _ : state) {
    engine.ingest_batch(batches[b]);
    arrivals += static_cast<std::int64_t>(batches[b].size());
    if (++b == batches.size()) {
      b = 0;
      engine.flush();
    }
  }
  state.SetItemsProcessed(arrivals);
}
BENCHMARK(BM_ReorderedObserve)->ArgName("flows")->Arg(4096);

// Flow churn, cold: a fresh SequenceEngine takes 100k short reordered
// flows (flow creation and index growth), closes them all, and folds them
// into the {"type":"sequences"} JSON — one whole pass per iteration.
void BM_ChurnFold(benchmark::State& state) {
  const std::vector<ingest::ArrivalBatch> batches =
      churn_batches(static_cast<std::size_t>(state.range(0)), /*batch_capacity=*/1024);
  std::int64_t arrivals = 0;
  for (auto _ : state) {
    ingest::SequenceEngine engine;
    for (const ingest::ArrivalBatch& batch : batches) engine.ingest_batch(batch);
    engine.flush();
    benchmark::DoNotOptimize(engine.to_json());
    arrivals += static_cast<std::int64_t>(engine.arrivals());
  }
  state.SetItemsProcessed(arrivals);
}
BENCHMARK(BM_ChurnFold)->ArgName("flows")->Arg(100000)->Unit(benchmark::kMillisecond);

// The whole subsystem end to end: producer thread renders the coalesced
// stream into batches, SPSC ring, consumer thread drains the batched
// sequence-metric path. UseRealTime: the analytics run on the consumer
// thread, so wall time is the arrivals/s that matters (the README's
// line-rate number).
void BM_IngestPipeline(benchmark::State& state) {
  const std::size_t flows = static_cast<std::size_t>(state.range(0));
  std::vector<ingest::Arrival> stream;
  for (const ingest::ArrivalBatch& batch :
       coalesced_batches(flows, /*packets=*/512, /*run=*/16, /*batch_capacity=*/1024)) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      stream.push_back(
          ingest::Arrival{batch.flows()[i], batch.send_indices()[i], batch.timestamps_ns()[i]});
    }
  }
  ingest::SequenceEngine engine;
  ingest::PipelineConfig cfg;
  cfg.batch_capacity = 1024;
  cfg.ring_batches = 64;
  std::int64_t arrivals = 0;
  for (auto _ : state) {
    ingest::IngestPipeline pipeline{cfg, &engine, nullptr};
    arrivals += static_cast<std::int64_t>(pipeline.run(stream).arrivals_consumed);
    engine.flush();
  }
  state.SetItemsProcessed(arrivals);
}
BENCHMARK(BM_IngestPipeline)->ArgName("flows")->Arg(4096)->UseRealTime();

// The multi-queue pipeline at shard counts {1,2,4}: the dispatcher splits
// the same coalesced stream by flow hash across N consumer shards, each
// draining a private SequenceEngine. shards:1 is the honest baseline (the
// same 1 producer + 1 consumer shape as BM_IngestPipeline, plus the
// dispatcher's split); the CI perf gate asserts shards:4 sustains >= 2.5x
// its real_time on the 4-vCPU runner — the scaling the sharding buys.
// UseRealTime for the same reason as above: the analytics run on the
// consumer threads.
void BM_ParallelIngest(benchmark::State& state) {
  const std::size_t shards = static_cast<std::size_t>(state.range(0));
  std::vector<ingest::Arrival> stream;
  for (const ingest::ArrivalBatch& batch :
       coalesced_batches(/*flows=*/4096, /*packets=*/512, /*run=*/16, /*batch_capacity=*/1024)) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      stream.push_back(
          ingest::Arrival{batch.flows()[i], batch.send_indices()[i], batch.timestamps_ns()[i]});
    }
  }
  ingest::ParallelPipelineConfig cfg;
  cfg.shards = shards;
  cfg.batch_capacity = 1024;
  cfg.ring_batches = 64;
  std::int64_t arrivals = 0;
  for (auto _ : state) {
    ingest::ParallelIngestPipeline pipeline{cfg};
    arrivals += static_cast<std::int64_t>(pipeline.run(stream).arrivals_consumed);
    pipeline.flush();
  }
  state.SetItemsProcessed(arrivals);
}
BENCHMARK(BM_ParallelIngest)->ArgName("shards")->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// The regular console table, plus one {"type":"run",...} JSONL record
// per benchmark run into the shared BenchArtifact format.
class JsonlBenchReporter final : public benchmark::ConsoleReporter {
 public:
  explicit JsonlBenchReporter(bench::BenchArtifact& artifact) : artifact_{artifact} {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      report::Json j = report::Json::object();
      j.set("type", "run");
      j.set("name", run.benchmark_name());
      j.set("iterations", static_cast<std::int64_t>(run.iterations));
      j.set("real_time", run.GetAdjustedRealTime());
      j.set("cpu_time", run.GetAdjustedCPUTime());
      j.set("time_unit", benchmark::GetTimeUnitString(run.time_unit));
      for (const auto& [name, counter] : run.counters) {
        j.set(name, static_cast<double>(counter));
      }
      artifact_.write(j);
    }
  }

 private:
  bench::BenchArtifact& artifact_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  bench::BenchArtifact artifact{"micro_bench", "library microbenchmarks"};
  JsonlBenchReporter reporter{artifact};
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
