#include "core/fleet_merge.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "core/result_sink.hpp"
#include "metrics/engine.hpp"
#include "report/jsonl.hpp"
#include "report/sinks.hpp"

namespace reorder::core {

namespace {

/// One measurement and its sample lines, reassembled from a stream.
struct Group {
  std::string target;
  std::string test;
  std::int64_t at_ns{0};
  std::vector<report::Json> samples;
  report::Json measurement;
  bool has_measurement{false};
};

}  // namespace

std::vector<report::Json> merge_fleet_streams(
    const std::vector<std::vector<report::Json>>& runs) {
  std::vector<Group> groups;
  metrics::MetricEngine merged_metrics;
  SurveyEvent begin{};
  SurveyEvent end{};
  std::vector<report::Json> participation_entries;
  bool any_participation = false;

  for (const std::vector<report::Json>& run : runs) {
    // Sample lines reference their measurement by the RUN-local index;
    // regroup on it before the fleet-wide renumbering erases it.
    std::map<std::tuple<std::string, std::string, std::int64_t>, std::size_t> local;
    metrics::MetricEngine run_metrics;
    bool saw_metrics = false;
    for (const report::Json& record : run) {
      const std::string& type = record.at("type").as_string();
      if (type == "survey_begin") {
        begin.targets += static_cast<std::size_t>(record.at("targets").as_u64());
        begin.rounds = std::max(begin.rounds, static_cast<int>(record.at("rounds").as_int()));
        continue;
      }
      if (type == "sample" || type == "measurement") {
        const std::tuple<std::string, std::string, std::int64_t> key{
            record.at("target").as_string(), record.at("test").as_string(),
            record.at("measurement").as_int()};
        auto [it, fresh] = local.try_emplace(key, groups.size());
        if (fresh) {
          Group g;
          g.target = std::get<0>(key);
          g.test = std::get<1>(key);
          groups.push_back(std::move(g));
        }
        Group& g = groups[it->second];
        if (type == "sample") {
          g.samples.push_back(record);
        } else {
          g.measurement = record;
          g.has_measurement = true;
          g.at_ns = record.at("at_ns").as_int();
        }
        continue;
      }
      if (type == "survey_end") {
        end.targets += static_cast<std::size_t>(record.at("targets").as_u64());
        end.rounds = std::max(end.rounds, static_cast<int>(record.at("rounds").as_int()));
        end.at = std::max(end.at, util::TimePoint::from_ns(record.at("at_ns").as_int()));
        // Pre-degradation artifacts lack the accounting tail; treat them
        // as clean full-participation runs.
        const report::Json* degraded = record.find("degraded");
        if (degraded != nullptr && degraded->as_bool()) {
          end.degraded = true;
          end.failed_shards += static_cast<std::size_t>(record.at("failed_shards").as_u64());
          for (const report::Json& name : record.at("failed_targets").items()) {
            end.failed_targets.push_back(name.as_string());
          }
        }
        continue;
      }
      if (type == "metrics") {
        run_metrics.restore_record(record);
        saw_metrics = true;
        continue;
      }
      if (type == "participation") {
        any_participation = true;
        for (const report::Json& entry : record.at("targets").items()) {
          participation_entries.push_back(entry);
        }
        continue;
      }
      throw std::invalid_argument{"merge_fleet_streams: unknown record type '" + type + "'"};
    }
    // Pool the run's snapshots; keys shared across runs (the same target
    // measured twice) merge suite-wise via the bit-exact merge contract.
    if (saw_metrics) merged_metrics.merge(run_metrics);
  }

  for (const Group& g : groups) {
    if (!g.has_measurement) {
      throw std::runtime_error{"merge_fleet_streams: sample lines for '" + g.target + "/" +
                               g.test + "' have no measurement record (torn input?)"};
    }
  }

  // The canonical (target, test, at) order, then renumber measurement
  // indices in it — the same erasure of run/world bookkeeping the survey
  // service's merge performs.
  std::sort(groups.begin(), groups.end(), [](const Group& a, const Group& b) {
    return std::tie(a.target, a.test, a.at_ns) < std::tie(b.target, b.test, b.at_ns);
  });

  std::vector<report::Json> out;
  begin.measurements = 0;
  begin.at = util::TimePoint::epoch();
  out.push_back(report::survey_event_json("survey_begin", begin));
  for (std::size_t i = 0; i < groups.size(); ++i) {
    Group& g = groups[i];
    for (report::Json& s : g.samples) {
      s.set("measurement", i);
      out.push_back(std::move(s));
    }
    g.measurement.set("measurement", i);
    out.push_back(std::move(g.measurement));
  }
  end.measurements = groups.size();
  out.push_back(report::survey_event_json("survey_end", end));

  std::ostringstream text;
  report::JsonlWriter writer{text};
  merged_metrics.emit_jsonl(writer, metrics::MetricEngine::EmitOrder::kCanonical);
  for (report::Json& record : report::read_jsonl_text(text.str())) {
    out.push_back(std::move(record));
  }

  if (any_participation) {
    report::Json manifest = report::Json::object();
    manifest.set("type", "participation");
    report::Json targets = report::Json::array();
    for (report::Json& entry : participation_entries) targets.push(std::move(entry));
    manifest.set("targets", std::move(targets));
    out.push_back(std::move(manifest));
  }
  return out;
}

}  // namespace reorder::core
