// Checkpoint/resume for the sharded survey runtime.
//
// The recovery unit is the shard: run_shard() is pure (its whole world is
// rebuilt from shard_config(), seeds pinned to global target indices), so
// a survey interrupted at ANY point resumes by re-running exactly the
// shards whose results were not yet durably recorded. A SurveyCheckpoint
// is that durable record: one JSONL file holding a header plus one record
// per completed shard — the shard's full-fidelity completion log (every
// sample payload, uids included) and its serialized metric snapshots
// (restored through the metrics from_json contract, so the resumed merge
// is bit-identical to an uninterrupted run's).
//
// Each record is rendered once, when it is recorded (or accepted by
// load()): the checkpoint keeps the finished `shard_done` line as text,
// not a Json tree, so a save concatenates cached bytes and never renders
// or parses a record again. Only the restore path (restore_shard,
// attempts) parses a stored line.
//
// Durability discipline:
//   * every save() writes those cached bytes to `<path>.tmp` and renames
//     it into place — a kill mid-save leaves the previous checkpoint
//     intact;
//   * every record carries an fnv1a64 checksum over its body rendering;
//     load() drops records whose line is torn (unparseable) or whose
//     checksum disagrees, and reports how many it dropped — those shards
//     simply re-run. Corruption costs work, never correctness.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/sharded_survey.hpp"
#include "report/json.hpp"

namespace reorder::core {

/// Full-fidelity measurement codec — unlike the emission schema (which
/// drops packet uids and per-sample payloads are summarized), this
/// round-trips a Measurement exactly, so a restored shard log replays
/// byte-identical JSONL.
report::Json measurement_to_json(const Measurement& m);
Measurement measurement_from_json(const report::Json& j);

class SurveyCheckpoint {
 public:
  /// Identity of the run a checkpoint belongs to. resume() refuses a
  /// checkpoint whose header disagrees with the engine's configuration —
  /// restored shard results are only valid for the exact same plan.
  struct Header {
    std::size_t shards{0};
    std::size_t targets{0};
    int rounds{0};
    std::uint64_t seed{0};
  };

  SurveyCheckpoint() = default;

  void set_header(const Header& h) { header_ = h; }
  const std::optional<Header>& header() const { return header_; }

  bool has_shard(std::size_t shard) const { return shards_.count(shard) != 0; }
  std::size_t completed_count() const { return shards_.size(); }
  /// Completed shard indices, ascending.
  std::vector<std::size_t> completed_shards() const;

  /// Records one completed shard's results (replacing any prior record
  /// for that shard). `attempts` is the retry accounting that produced
  /// the result — bookkeeping for the degraded-mode report, not identity.
  void record_shard(const ShardRunResult& result, int attempts = 1);
  /// Rebuilds the recorded shard's results (log via the measurement
  /// codec, metrics via the from_json restore contract) by parsing its
  /// stored line. Throws std::out_of_range when the shard is not recorded.
  ShardRunResult restore_shard(std::size_t shard) const;
  /// The recorded shard's retry count (parses its stored line).
  int attempts(std::size_t shard) const;

  /// Serializes to JSONL text (header line first, shard records in
  /// ascending shard order, each carrying its body checksum) by
  /// concatenating the stored lines.
  std::string serialize() const;
  /// Atomically (tmp + rename) writes serialize() to `path`.
  void save(const std::string& path) const;

  /// Parses checkpoint JSONL, dropping torn lines and checksum-failed
  /// records (counted in torn_records()), and stores each accepted record
  /// in its canonical rendering. A missing file loads as an empty
  /// checkpoint — resume from nothing is a plain run.
  static SurveyCheckpoint load(const std::string& path);
  /// Records dropped by load() because they were torn or corrupt — the
  /// shards that will re-run.
  std::size_t torn_records() const { return torn_; }

 private:
  std::optional<Header> header_;
  /// shard -> its rendered line (no newline):
  /// {"type":"shard_done","shard":..,"crc":..,"body":{"shard":..,"attempts":..,
  ///  "end":..,"log":[..],"metrics":[..]}}
  std::map<std::size_t, std::string> shards_;
  std::size_t torn_{0};
};

}  // namespace reorder::core
