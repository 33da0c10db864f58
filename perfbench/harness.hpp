#pragma once
// Measurement plumbing shared by every workload of the end-to-end
// benchmark: clocks and order statistics, the seeded input pattern and
// its bit-exact check, the STREAM-style copy roofline, the host stamp,
// benchmark-owned spans, and the per-call reader of the library's own
// telemetry::collector spans.
//
// Everything here sits outside the library: the benchmark only calls
// public entry points and reads what the library already exposes.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/telemetry.hpp"
#include "util/aligned.hpp"
#include "util/threads.hpp"

namespace perfbench {

using clock_type = std::chrono::steady_clock;

inline double seconds_since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

/// Wall time of one call of `fn`, in seconds.
template <typename Fn>
double time_call(Fn&& fn) {
  const auto t0 = clock_type::now();
  fn();
  return seconds_since(t0);
}

// --- order statistics --------------------------------------------------------

inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

inline double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) {
    s += x;
  }
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// Geometric mean of positive values (0 when empty).
inline double geomean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) {
    s += std::log(x);
  }
  return v.empty() ? 0.0 : std::exp(s / static_cast<double>(v.size()));
}

/// The highest percentile with at least ten samples beyond it, as a
/// (percentile, value) pair: with N samples that is the (1 - 10/N)
/// quantile.  It never drops below the median (N < 20 reports p50).
inline std::pair<double, double> tail(const std::vector<double>& v) {
  const double n = static_cast<double>(std::max<std::size_t>(v.size(), 1));
  const double q = std::max(0.5, 1.0 - 10.0 / n);
  return {100.0 * q, quantile(v, q)};
}

// --- seeded inputs -----------------------------------------------------------

/// Element i of a generated input.  Every value is distinct over the
/// sizes the workloads use (f64: the exact integer i + salt; f32: a
/// finite normal float whose exponent and mantissa encode i + salt up to
/// 2^29), so any misplaced element changes the bits of the output.
template <typename T>
inline T pattern(std::uint64_t i, std::uint64_t salt) {
  const std::uint64_t j = i + salt;
  if constexpr (std::is_same_v<T, double>) {
    return static_cast<double>(j);
  } else {
    static_assert(std::is_same_v<T, float>);
    const auto bits = static_cast<std::uint32_t>(
        ((100u + ((j >> 23) & 63u)) << 23) | (j & 0x7FFFFFu));
    float f = 0.0f;
    std::memcpy(&f, &bits, sizeof f);
    return f;
  }
}

template <typename T>
void fill_pattern(T* data, std::size_t count, std::uint64_t salt) {
  const auto n = static_cast<std::int64_t>(count);
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    data[i] = pattern<T>(static_cast<std::uint64_t>(i), salt);
  }
}

/// Bit-exact comparison; returns the number of differing elements.
/// Compares 64 KiB blocks with memcmp and counts elements only inside a
/// block that differs, so a correct output costs one streaming read.
/// `parallel` = false keeps it on the calling thread (the service
/// clients, which must not open teams of their own).
template <typename T>
std::uint64_t mismatches(const T* got, const T* want, std::size_t count,
                         bool parallel = true) {
  constexpr std::size_t block = (std::size_t{64} << 10) / sizeof(T);
  const auto blocks = static_cast<std::int64_t>((count + block - 1) / block);
  std::uint64_t bad = 0;
#pragma omp parallel for schedule(static) reduction(+ : bad) if (parallel)
  for (std::int64_t b = 0; b < blocks; ++b) {
    const std::size_t lo = static_cast<std::size_t>(b) * block;
    const std::size_t len = std::min(block, count - lo);
    if (std::memcmp(got + lo, want + lo, len * sizeof(T)) != 0) {
      for (std::size_t i = lo; i < lo + len; ++i) {
        bad += std::memcmp(&got[i], &want[i], sizeof(T)) != 0 ? 1u : 0u;
      }
    }
  }
  return bad;
}

/// Bit-exact comparison against the generated pattern itself.
template <typename T>
std::uint64_t pattern_mismatches(const T* got, std::size_t count,
                                 std::uint64_t salt) {
  const auto n = static_cast<std::int64_t>(count);
  std::uint64_t bad = 0;
#pragma omp parallel for schedule(static) reduction(+ : bad)
  for (std::int64_t i = 0; i < n; ++i) {
    const T want = pattern<T>(static_cast<std::uint64_t>(i), salt);
    bad += std::memcmp(&got[i], &want, sizeof(T)) != 0 ? 1u : 0u;
  }
  return bad;
}

template <typename T>
using buffer = inplace::util::aligned_vector<T>;

// --- host ------------------------------------------------------------------

struct host_info {
  std::string cpu_model;
  int logical_cpus = 1;
  std::size_t l2_bytes = 0;
  std::size_t l3_bytes = 0;
  int default_threads = 1;
};

inline std::size_t read_cache_size(int index) {
  std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index" +
                  std::to_string(index) + "/size");
  std::string s;
  if (!(f >> s) || s.empty()) {
    return 0;
  }
  std::size_t mult = 1;
  if (s.back() == 'K') {
    mult = std::size_t{1} << 10;
  } else if (s.back() == 'M') {
    mult = std::size_t{1} << 20;
  }
  return static_cast<std::size_t>(std::stoull(s)) * mult;
}

inline host_info probe_host() {
  host_info h;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      h.cpu_model = colon == std::string::npos ? line : line.substr(colon + 2);
      break;
    }
  }
  h.logical_cpus = inplace::util::probe_topology().logical;
  // index2 is the unified L2, index3 the L3 on x86 Linux.
  h.l2_bytes = read_cache_size(2);
  h.l3_bytes = read_cache_size(3);
  h.default_threads = inplace::util::hardware_threads();
  return h;
}

/// STREAM-style copy bandwidth in the Table 1 unit (2 * bytes / time)
/// over two arrays of `bytes` each: the best of `reps` copies (STREAM's
/// convention for a ceiling) at one thread and at `threads` threads.  The threads are the benchmark's own
/// parallel region; the library's default thread count is never changed.
struct copy_roofline {
  double gbs_1t = 0.0;
  double gbs_nt = 0.0;
};

inline copy_roofline measure_copy(std::size_t bytes, int threads, int reps) {
  const std::size_t n = bytes / sizeof(double);
  buffer<double> src(n);
  buffer<double> dst(n);
  fill_pattern(src.data(), n, 0);
  auto one_copy = [&](int team) {
    return time_call([&] {
#pragma omp parallel num_threads(team)
      {
        const auto nt = static_cast<std::size_t>(omp_get_num_threads());
        const auto id = static_cast<std::size_t>(omp_get_thread_num());
        const std::size_t lo = n * id / nt;
        const std::size_t hi = n * (id + 1) / nt;
        std::memcpy(dst.data() + lo, src.data() + lo,
                    (hi - lo) * sizeof(double));
      }
    });
  };
  const double moved = 2.0 * static_cast<double>(n * sizeof(double)) / 1e9;
  std::vector<double> one;
  std::vector<double> all;
  // All 1-thread copies first, then the team: an idle team's first
  // copies run slow while its CPUs wake, which best-of-reps absorbs.
  for (int r = 0; r < reps; ++r) {
    one.push_back(moved / one_copy(1));
  }
  for (int r = 0; r < reps; ++r) {
    all.push_back(moved / one_copy(threads));
  }
  if (mismatches(dst.data(), src.data(), n) != 0) {
    std::fprintf(stderr, "perfbench: copy roofline produced wrong output\n");
    std::exit(3);
  }
  return {*std::max_element(one.begin(), one.end()),
          *std::max_element(all.begin(), all.end())};
}

/// Seconds to copy `count` elements from `src` to `dst` with `team`
/// threads, each copying one contiguous share; the median of `reps`
/// copies.  This is the in-run roofline probe taken next to every
/// measured call, over the call's own bytes, so the host's state at that
/// moment divides out of roofline_frac.
template <typename T>
double copy_probe(T* dst, const T* src, std::size_t count, int team,
                  int reps = 3) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    t.push_back(time_call([&] {
#pragma omp parallel num_threads(team)
      {
        const auto nt = static_cast<std::size_t>(omp_get_num_threads());
        const auto id = static_cast<std::size_t>(omp_get_thread_num());
        const std::size_t lo = count * id / nt;
        const std::size_t hi = count * (id + 1) / nt;
        std::memcpy(dst + lo, src + lo, (hi - lo) * sizeof(T));
      }
    }));
  }
  return median(t);
}

// --- benchmark-owned spans ---------------------------------------------------

/// One span the benchmark records around a call into a layer's public
/// function.  Spans of one request share `request`; `parent` indexes the
/// enclosing span (-1 for a root).
struct bench_span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  std::uint64_t request = 0;
};

/// In-memory span log, written out when the run ends.  Disabled logs
/// record nothing and cost one branch per span.
class span_log {
 public:
  explicit span_log(bool on) : on_(on), origin_(clock_type::now()) {}

  [[nodiscard]] bool on() const { return on_; }

  int open(const char* name, std::uint64_t request, int parent = -1) {
    if (!on_) {
      return -1;
    }
    const double now = seconds_since(origin_);
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, now, now, parent, request});
    return static_cast<int>(spans_.size() - 1);
  }

  void close(int id) {
    if (!on_ || id < 0) {
      return;
    }
    const double now = seconds_since(origin_);
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = now;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

 private:
  const bool on_;
  const clock_type::time_point origin_;
  mutable std::mutex mu_;
  std::vector<bench_span> spans_;
};

/// RAII span on a span_log.
class scoped_span {
 public:
  scoped_span(span_log& log, const char* name, std::uint64_t request,
              int parent = -1)
      : log_(log), id_(log.open(name, request, parent)) {}
  ~scoped_span() { log_.close(id_); }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  span_log& log_;
  int id_;
};

// --- library telemetry -------------------------------------------------------

/// Aggregation key for engine pass spans.
struct pass_key {
  std::string workload;
  std::string engine;
  std::string pass;
  std::string tier;
  std::string rung;
  int threads = 0;

  friend bool operator<(const pass_key& a, const pass_key& b) {
    return std::tie(a.workload, a.engine, a.pass, a.tier, a.rung, a.threads) <
           std::tie(b.workload, b.engine, b.pass, b.tier, b.rung, b.threads);
  }
};

struct pass_total {
  std::uint64_t spans = 0;
  double self_seconds = 0.0;
  std::uint64_t bytes = 0;
};

/// What one synchronous call left in the collector: its plan record(s)
/// and its spans folded into self time per stage and depth.
struct call_trace {
  std::string engine;  ///< first plan record's engine ("" if none)
  std::string tier;
  std::string rung;
  int threads = 0;
  double envelope_seconds = 0.0;  ///< depth-0 spans
  double child_seconds = 0.0;     ///< direct children of depth-0 spans
  /// Self time and modelled bytes per leaf stage name.
  std::map<std::string, std::pair<double, std::uint64_t>> stages;
};

/// Folds the collector's raw spans of one synchronous call.  Spans close
/// children-first on the calling thread, so a running per-depth sum of
/// closed spans gives every span's child time when it closes.
inline call_trace read_call(const inplace::telemetry::collector& col) {
  call_trace out;
  const auto plans = col.plan_counts();
  if (!plans.empty()) {
    const auto& rec = plans.front().rec;
    out.engine = rec.engine;
    out.tier = rec.kernel_tier;
    out.rung = rec.rung;
    out.threads = rec.threads_active;
  }
  std::vector<double> closed(16, 0.0);  // child time accumulated per depth
  for (const auto& s : col.raw_spans()) {
    const auto d = static_cast<std::size_t>(std::min(s.depth, 14));
    const double children = closed[d + 1];
    closed[d + 1] = 0.0;
    closed[d] += s.seconds;
    const double self = std::max(0.0, s.seconds - children);
    if (d == 0) {
      out.envelope_seconds += s.seconds;
      out.child_seconds += children;
    }
    if (s.s != inplace::telemetry::stage::total || children == 0.0) {
      auto& st = out.stages[inplace::telemetry::stage_name(s.s)];
      st.first += self;
      st.second += s.bytes_moved;
    }
  }
  return out;
}

// --- metric output -----------------------------------------------------------

struct metric {
  double value = 0.0;
  std::string unit;
};

/// Insertion-ordered metric table for the final JSON line.
class metric_table {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& [n, m] : rows_) {
      if (n == name) {
        m = {value, unit};
        return;
      }
    }
    rows_.emplace_back(name, metric{value, unit});
  }

  [[nodiscard]] const std::vector<std::pair<std::string, metric>>& rows()
      const {
    return rows_;
  }

 private:
  std::vector<std::pair<std::string, metric>> rows_;
};

inline std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

}  // namespace perfbench
