// In-memory span recorder for the benchmark's own wrappers.
//
// Every timed call into a layer is bracketed by a ScopedSpan (name, start,
// end, parent: the innermost span open on the same thread). Spans land in
// per-thread buffers owned by the process-wide Tracer, so recording takes
// no lock after a thread's first span; the buffers outlive the threads that
// filled them (every recording thread is joined before anything reads
// them). Calls too small and too frequent to keep one span each (suite
// creation on the pipeline's consumer threads) are tallied instead: a
// per-thread count and summed duration under the same name.
//
// When tracing is off, ScopedSpan reads one relaxed atomic and records
// nothing, so untraced runs pay no clock reads at the wrappers.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;  ///< static string: span names are literals
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint32_t id;
  std::uint32_t parent;  ///< 0 = root
  std::uint32_t tid;     ///< recording buffer (one per thread)

  double seconds() const { return static_cast<double>(end_ns - start_ns) / 1e9; }
};

struct Tally {
  std::uint64_t count{0};
  std::int64_t total_ns{0};
};

class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  std::uint32_t open(const char* name, std::int64_t start_ns);
  void close(std::int64_t end_ns);

  /// Adds one call of `ns` to this thread's tally for `name`.
  void tally(const char* name, std::int64_t ns);
  /// Sums and resets every thread's tally for `name`. Only call when the
  /// threads that tally it have been joined.
  Tally take_tally(const char* name);

  /// Drops every span and tally. Only call when no other thread records.
  void clear();

  /// Adds spans recorded in a child forked from this process. Their names
  /// point into the same program image, so they stay valid here.
  void import(const std::vector<Span>& spans);

  /// Every recorded span, ordered by start time.
  std::vector<Span> spans() const;
  std::size_t span_count() const;

  /// Writes the spans as Chrome trace-event JSON (loads in Perfetto and
  /// chrome://tracing). Returns false when the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Buffer {
    std::uint32_t tid{0};
    std::vector<Span> spans;
    std::vector<std::size_t> open;  ///< indices into spans, innermost last
    std::vector<std::pair<const char*, Tally>> tallies;
  };
  Buffer& buffer();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> next_id_{1};
  mutable std::mutex mu_;  ///< guards buffers_ (the list, not the contents)
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::vector<Span> imported_;  ///< guarded by mu_
};

/// Records one span around its scope when tracing is on.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    Tracer& t = Tracer::instance();
    if (t.enabled()) id_ = t.open(name, now_ns());
  }
  ~ScopedSpan() {
    if (id_ != 0) Tracer::instance().close(now_ns());
  }
  std::uint32_t id() const { return id_; }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::uint32_t id_{0};
};

/// For each span named `pass`, the summed duration in seconds of the spans
/// named `name` that started inside it (one value per pass, in order).
std::vector<double> per_pass_seconds(const std::vector<Span>& spans, std::string_view pass,
                                     std::string_view name);
/// Durations in seconds of every span named `name`.
std::vector<double> durations(const std::vector<Span>& spans, std::string_view name);

}  // namespace perfbench
