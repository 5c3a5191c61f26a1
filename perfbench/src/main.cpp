// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--size tiny] [--corrupt 1]
//
// Runs one workload (or all four, in this one process), checks every
// output against an oracle after the clock stops, and prints as its last
// line one JSON object: {"correct","attempted","failed","metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
// the per-layer ones, derived from spans the benchmark records around its
// calls into each layer, and the spans are written as Chrome trace-event
// JSON to <out-dir>/trace-<workload>-seed<n>.json. Exit status is 0 only
// when every check passed.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "common.hpp"
#include "report/json.hpp"

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"throughput_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// Every per-layer metric a traced run prints, for every workload; a layer
// the workload never calls reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"ingest.run_s", "s"},
    {"ingest.source_s", "s"},
    {"ingest.dispatch_wait_s", "s"},
    {"ingest.spin_waits_per_batch", "count"},
    {"ingest.fill_full_share", "ratio"},
    {"ingest.imbalance_ratio", "ratio"},
    {"ingest.cpu_s_per_m_arrivals", "s/M"},
    {"ingest.scaling_vs_1shard", "ratio"},
    {"ingest.flush_s", "s"},
    {"metrics.suite_create_count", "count"},
    {"metrics.suite_create_s", "s"},
    {"metrics.batched_observe_per_s", "1/s"},
    {"metrics.fold_s", "s"},
    {"monitor.ingest_batch_per_s", "1/s"},
    {"monitor.evictions", "count"},
    {"monitor.fold_s", "s"},
    {"service.construct_s", "s"},
    {"service.admit_s", "s"},
    {"service.drain_s", "s"},
    {"service.snapshot_ms_p50", "ms"},
    {"service.snapshot_ms_p99", "ms"},
    {"service.finalize_s", "s"},
    {"service.stop_s", "s"},
    {"util.steals", "count"},
    {"util.steal_success", "ratio"},
    {"core.world_ms_p50", "ms"},
    {"core.world_ms_p99", "ms"},
    {"core.checkpoint_mb", "MB"},
    {"core.checkpoint_save_s", "s"},
    {"core.checkpoint_load_s", "s"},
    {"report.emit_s", "s"},
    {"report.emit_mb", "MB"},
    {"pass.wall_throughput_per_s", "1/s"},
    {"trace.throughput_delta_per_s", "1/s"},
};

struct Workload {
  const char* name;
  Outcome (*run)(const Options&);
};

constexpr Workload kWorkloads[] = {
    {"ingest-coalesced", &run_ingest_coalesced},
    {"ingest-churn", &run_ingest_churn},
    {"survey-lean", &run_survey_lean},
    {"survey-durable", &run_survey_durable},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name|all> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>] [--size full|tiny] [--corrupt 0|1]\n"
               "workloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

reorder::report::Json metric(double value, const char* unit) {
  reorder::report::Json m = reorder::report::Json::object();
  m.set("value", value);
  m.set("unit", unit);
  return m;
}

/// Runs one workload and prints its result line; true when correct.
bool run_one(const Workload& w, const Options& opt) {
  Tracer::instance().set_enabled(false);
  Tracer::instance().clear();
  reset_peak_rss();
  std::fprintf(stderr, "== %s (seed %llu, %g s%s)\n", w.name,
               static_cast<unsigned long long>(opt.seed), opt.seconds,
               opt.trace ? ", traced" : "");
  Outcome out;
  try {
    out = w.run(opt);
  } catch (const std::exception& e) {
    out.errors.push_back(std::string{"exception: "} + e.what());
  }
  reorder::report::Json metrics = reorder::report::Json::object();
  if (opt.trace) {
    for (const MetricSpec& m : kPerLayer) {
      const auto it = out.layer.find(m.name);
      metrics.set(m.name, metric(it == out.layer.end() ? 0.0 : it->second, m.unit));
    }
    for (const auto& [name, value] : out.layer) {
      bool known = false;
      for (const MetricSpec& m : kPerLayer) known = known || name == m.name;
      if (!known) out.errors.push_back("unlisted per-layer metric " + name);
    }
    const std::string path = opt.out_dir + "/trace-" + w.name + "-seed" +
                             std::to_string(opt.seed) + ".json";
    if (Tracer::instance().write_chrome_json(path)) {
      std::fprintf(stderr, "%s: %zu spans -> %s\n", w.name, Tracer::instance().span_count(),
                   path.c_str());
    } else {
      out.errors.push_back("cannot write " + path);
    }
  } else {
    const double values[] = {out.throughput_per_s, out.setup_s, out.peak_rss_mb};
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      metrics.set(kEndToEnd[i].name, metric(values[i], kEndToEnd[i].unit));
    }
  }
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "CHECK FAILED [%s]: %s\n", w.name, e.c_str());
  }
  reorder::report::Json result = reorder::report::Json::object();
  result.set("correct", out.errors.empty());
  result.set("attempted", out.attempted);
  result.set("failed", out.failed);
  result.set("metrics", metrics);
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return out.errors.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string workload;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && opt.seconds > 0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      opt.trace = value == "1";
      have_trace = true;
    } else if (flag == "--out-dir") {
      opt.out_dir = value;
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") return usage("--size takes full or tiny");
      opt.tiny = value == "tiny";
    } else if (flag == "--corrupt") {
      if (value != "0" && value != "1") return usage("--corrupt takes 0 or 1");
      opt.corrupt = value == "1";
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (workload.empty() || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  if (ec) return usage(("cannot create " + opt.out_dir).c_str());

  bool ok = true;
  bool matched = false;
  for (const Workload& w : kWorkloads) {
    if (workload != "all" && workload != w.name) continue;
    matched = true;
    ok = run_one(w, opt) && ok;
  }
  if (!matched) return usage(("unknown workload " + workload).c_str());
  return ok ? 0 : 1;
}
