// reorder-merge: fold the canonical JSONL artifacts of N survey runs
// into one fleet-wide report.
//
// A production survey is many survey_service processes — different
// machines, different fleet slices, different days — each leaving one
// canonical JSONL stream. This tool merges them into the stream one run
// over the combined fleet would have produced: measurements re-sorted
// into the canonical (target, test, at) order and renumbered, metric
// snapshots restored and pooled through the bit-exact merge contract,
// lifecycle and degraded-mode accounting summed so the combined fleet
// stays fully accounted for.
//
//   $ survey_service --admit=east.txt --jsonl=east.jsonl  ...
//   $ survey_service --admit=west.txt --jsonl=west.jsonl  ...
//   $ reorder-merge --out=fleet.jsonl east.jsonl west.jsonl
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "core/fleet_merge.hpp"
#include "report/jsonl.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace reorder;

  std::string out_path;
  util::Flags flags{"reorder-merge", "merge canonical survey JSONL artifacts into one"};
  flags.add_string("out", &out_path, "write the merged stream here (default: stdout)");
  if (!flags.parse(argc, argv)) return 1;
  if (flags.positional().empty()) {
    std::fprintf(stderr, "reorder-merge: no input files\n%s", flags.usage().c_str());
    return 1;
  }

  try {
    std::vector<std::vector<report::Json>> runs;
    runs.reserve(flags.positional().size());
    for (const std::string& path : flags.positional()) {
      runs.push_back(report::read_jsonl_file(path));
    }
    const std::vector<report::Json> merged = core::merge_fleet_streams(runs);

    if (out_path.empty()) {
      for (const report::Json& record : merged) {
        std::printf("%s\n", record.dump().c_str());
      }
    } else {
      // Crash-safe emission: the artifact appears only complete.
      report::AtomicJsonlFile file{out_path};
      for (const report::Json& record : merged) file.writer().write(record);
      file.commit();
      std::fprintf(stderr, "reorder-merge: %zu records from %zu runs -> %s\n", merged.size(),
                   runs.size(), out_path.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "reorder-merge: %s\n", e.what());
    return 1;
  }
}
