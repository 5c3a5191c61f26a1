#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace perfbench {

namespace {
thread_local void* tls_buffer = nullptr;
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer& Tracer::buffer() {
  if (tls_buffer == nullptr) {
    std::lock_guard lock{mu_};
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->tid = static_cast<std::uint32_t>(buffers_.size() - 1);
    tls_buffer = buffers_.back().get();
  }
  return *static_cast<Buffer*>(tls_buffer);
}

std::uint32_t Tracer::open(const char* name, std::int64_t start_ns) {
  Buffer& b = buffer();
  const std::uint32_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  const std::uint32_t parent = b.open.empty() ? 0 : b.spans[b.open.back()].id;
  b.open.push_back(b.spans.size());
  b.spans.push_back(Span{name, start_ns, start_ns, id, parent, b.tid});
  return id;
}

void Tracer::close(std::int64_t end_ns) {
  Buffer& b = buffer();
  b.spans[b.open.back()].end_ns = end_ns;
  b.open.pop_back();
}

void Tracer::tally(const char* name, std::int64_t ns) {
  Buffer& b = buffer();
  for (auto& [n, t] : b.tallies) {
    if (std::strcmp(n, name) == 0) {
      ++t.count;
      t.total_ns += ns;
      return;
    }
  }
  b.tallies.emplace_back(name, Tally{1, ns});
}

Tally Tracer::take_tally(const char* name) {
  std::lock_guard lock{mu_};
  Tally sum;
  for (const auto& b : buffers_) {
    for (auto& [n, t] : b->tallies) {
      if (std::strcmp(n, name) != 0) continue;
      sum.count += t.count;
      sum.total_ns += t.total_ns;
      t = Tally{};
    }
  }
  return sum;
}

void Tracer::clear() {
  std::lock_guard lock{mu_};
  for (const auto& b : buffers_) {
    b->spans.clear();
    b->tallies.clear();
  }
  imported_.clear();
}

void Tracer::import(const std::vector<Span>& spans) {
  std::lock_guard lock{mu_};
  std::uint32_t next = next_id_.load(std::memory_order_relaxed);
  for (const Span& s : spans) next = std::max(next, s.id + 1);
  next_id_.store(next, std::memory_order_relaxed);
  imported_.insert(imported_.end(), spans.begin(), spans.end());
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lock{mu_};
  std::vector<Span> out;
  for (const auto& b : buffers_) out.insert(out.end(), b->spans.begin(), b->spans.end());
  out.insert(out.end(), imported_.begin(), imported_.end());
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
  return out;
}

std::size_t Tracer::span_count() const {
  std::lock_guard lock{mu_};
  std::size_t n = imported_.size();
  for (const auto& b : buffers_) n += b->spans.size();
  return n;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::ofstream out{path};
  if (!out) return false;
  const std::int64_t origin = all.empty() ? 0 : all.front().start_ns;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char line[256];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::snprintf(line, sizeof line,
                  "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u}}",
                  i == 0 ? "" : ",", s.name, s.tid,
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id, s.parent);
    out << line;
  }
  out << "\n]}\n";
  out.flush();
  return static_cast<bool>(out);
}

std::vector<double> per_pass_seconds(const std::vector<Span>& spans, std::string_view pass,
                                     std::string_view name) {
  std::vector<double> out;
  for (const Span& p : spans) {
    if (pass != p.name) continue;
    double sum = 0.0;
    for (const Span& s : spans) {
      if (name == s.name && s.start_ns >= p.start_ns && s.start_ns <= p.end_ns) {
        sum += s.seconds();
      }
    }
    out.push_back(sum);
  }
  return out;
}

std::vector<double> durations(const std::vector<Span>& spans, std::string_view name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (name == s.name) out.push_back(s.seconds());
  }
  return out;
}

}  // namespace perfbench
