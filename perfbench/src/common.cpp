#include "common.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double wall_s_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

void reset_peak_rss() {
  // Linux: writing 5 to clear_refs resets VmHWM to the current RSS.
  std::ofstream{"/proc/self/clear_refs"} << "5";
}

double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double file_mb(const std::string& path) {
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(bytes) / (1024.0 * 1024.0);
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

std::string run_in_child(const std::function<std::string()>& body) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error{"pipe() failed"};
  std::fflush(nullptr);  // the child must not flush this process's buffers again
  const pid_t child = fork();
  if (child < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error{"fork() failed"};
  }
  if (child == 0) {
    close(fds[0]);
    int status = 1;
    try {
      const std::string out = body();
      std::size_t sent = 0;
      while (sent < out.size()) {
        const ssize_t n = write(fds[1], out.data() + sent, out.size() - sent);
        if (n <= 0) break;
        sent += static_cast<std::size_t>(n);
      }
      if (sent == out.size()) status = 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "child process: %s\n", e.what());
    } catch (...) {
    }
    _exit(status);
  }
  close(fds[1]);
  std::string out;
  char buf[1 << 16];
  for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) != 0;) {
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    out.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(child, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error{"a child process did not finish cleanly"};
  }
  return out;
}

namespace {

/// Runs `set_up` in one forked child and returns the wall seconds it took.
double set_up_in_child(const std::function<void()>& set_up) {
  const std::string out = run_in_child([&] {
    const std::int64_t start = now_ns();
    set_up();
    const double seconds = wall_s_since(start);
    return std::string(reinterpret_cast<const char*>(&seconds), sizeof seconds);
  });
  if (out.size() != sizeof(double)) throw std::runtime_error{"set-up failed in a child process"};
  double seconds = 0.0;
  std::memcpy(&seconds, out.data(), sizeof seconds);
  return seconds;
}

}  // namespace

double forked_setup_s(const std::function<void()>& set_up) {
  // Untimed children first, for kHostWarmupS: the first processes after an
  // idle spell run at half speed for a second or two, a cost of the host
  // that back-to-back runs of the program do not pay.
  int untimed = 0;
  for (const std::int64_t start = now_ns(); wall_s_since(start) < kHostWarmupS; ++untimed) {
    set_up_in_child(set_up);
  }
  std::vector<double> times;
  for (int rep = 0; rep < kSetupRepeats; ++rep) times.push_back(set_up_in_child(set_up));
  std::fprintf(stderr, "set-up in fresh processes: %d untimed, then timed:", untimed);
  for (const double t : times) std::fprintf(stderr, " %.4f", t);
  std::fprintf(stderr, " s\n");
  return median(times);
}

}  // namespace perfbench
