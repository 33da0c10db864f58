// End-to-end benchmark of the in-place transposition library.
//
//   perfbench --workload <table1|aos_soa|permute_mix|service>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--scale <f>] [--corrupt]
//
// Every operation goes through a public entry point (transpose,
// aos_to_soa/soa_to_aos, permute_nd, permute/permute_inverse,
// transpose_context::submit) and its output is compared bit for bit,
// outside the timed region, against an out-of-place reference.  The last
// line of standard output is one JSON object:
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  The line before it is a JSON stamp: host, copy roofline
// sizes, working sets, tail percentiles and, when traced, the engine
// pass table.  --scale shrinks every input (the self-check runs tiny);
// --corrupt flips one output element so the checker must catch it.
// Exit status: 0 when every output was correct, 1 otherwise, 2 on a
// usage error.

#include <array>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <future>
#include <iostream>
#include <numeric>
#include <optional>
#include <span>
#include <sstream>
#include <thread>

#include "baselines/out_of_place.hpp"
#include "core/context.hpp"
#include "core/perm.hpp"
#include "core/perm_plan.hpp"
#include "core/plan.hpp"
#include "core/tensor.hpp"
#include "core/tensor_plan.hpp"
#include "core/transpose.hpp"
#include "cpu/kernels/kernel_set.hpp"
#include "cpu/soa.hpp"
#include "harness.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

constexpr double mib = 1024.0 * 1024.0;

struct cli {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
  bool corrupt = false;
};

/// Warm-call samples of one thread configuration.
struct samples {
  double bytes = 0.0;  ///< sum of 2 * payload bytes
  double seconds = 0.0;
  double probe_seconds = 0.0;  ///< copy probes over the same bytes
  std::vector<double> latency_s;

  void add(double payload_bytes, double t, double probe) {
    bytes += 2.0 * payload_bytes;
    seconds += t;
    probe_seconds += probe;
    latency_s.push_back(t);
  }
  [[nodiscard]] double gbs() const {
    return seconds > 0.0 ? bytes / seconds / 1e9 : 0.0;
  }
  /// Throughput as a fraction of the adjacent copy probes' throughput.
  [[nodiscard]] double roofline() const {
    return seconds > 0.0 ? probe_seconds / seconds : 0.0;
  }
};

/// One measured call: its seconds (negative when it threw) and the copy
/// probe taken just before it.
struct timed {
  double t = -1.0;
  double probe = 0.0;
};

/// Per-layer envelope accumulator (modelled bytes over span seconds).
struct rate {
  double bytes = 0.0;
  double seconds = 0.0;
  void add(double b, double s) {
    bytes += b;
    seconds += s;
  }
  [[nodiscard]] double gbs() const {
    return seconds > 0.0 ? bytes / seconds / 1e9 : 0.0;
  }
};

const char* tsuffix(bool one) { return one ? "_1t" : "_nt"; }

/// One generated input's timings, printed in the stamp so a later change
/// can see which input moved.  Negative times mark calls that threw.
struct input_record {
  std::string label;
  double bytes = 0.0;
  double cold_nt = -1.0;
  double cold_1t = -1.0;
  std::vector<double> warm_nt;
  std::vector<double> warm_1t;
  double roofline_1t = -1.0;  ///< median 1-thread ratio (table1, permute_mix)
};

/// Everything one run accumulates.
struct run_state {
  cli args;
  host_info host;
  span_log spans;
  inplace::telemetry::collector col{std::size_t{1} << 20};
  metric_table out;
  std::ostringstream stamp;  ///< workload-specific stamp fields

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool corrupt_pending = false;
  std::uint64_t request = 0;

  samples nt;  ///< warm calls at the library default thread count
  samples one;  ///< warm calls at options.threads = 1
  /// Five repetitions of the set-up pass (see time_setup).
  std::array<double, 5> setup_rep{};
  /// Auxiliary bytes the executors of every distinct call key acquire.
  double aux_bytes = 0.0;
  std::vector<input_record> inputs;
  double retained_mib = 0.0;  ///< the context's cached_bytes() after the run
  double working_set_max = 0.0;  ///< bytes
  // A workload that measures in one-second windows (service) reports
  // the median window for throughput and latency tail.
  std::vector<double> window_gbs_nt;
  std::vector<double> window_gbs_1t;
  std::vector<double> window_tail_s;
  std::vector<double> window_roofline_nt;
  std::vector<double> window_roofline_1t;
  // A workload that repeats each input's 1-thread call (table1,
  // permute_mix) reports the geometric mean over its inputs of each
  // input's median 1-thread ratio.
  std::vector<double> input_roofline_1t;

  // Traced-run accumulators.
  std::map<pass_key, pass_total> passes;
  double envelope_with_children_s = 0.0;
  double children_s = 0.0;
  double traced_s = 0.0;    ///< warm calls with the sink installed
  double untraced_s = 0.0;  ///< the same inputs without it
  std::map<std::string, rate> layer;  ///< "<layer metric>" -> rate
  std::map<std::string, std::vector<double>> layer_samples;
  /// Classification seconds and warm permute seconds, [0] default
  /// threads and [1] one thread: perm_plan.classify_share.
  std::array<std::pair<double, double>, 2> classify{};
  double tile_calls = 0.0;
  double skinny_calls = 0.0;
  double degraded = 0.0;

  explicit run_state(const cli& c) : args(c), spans(c.trace) {
    corrupt_pending = c.corrupt;
  }

  /// Records one checked operation.  `bad` counts mismatching elements.
  void check(std::uint64_t bad) {
    ++attempted;
    if (bad != 0) {
      ++failed;
      std::cerr << "perfbench: " << args.workload << " op " << attempted
                << ": " << bad << " elements differ from the reference\n";
    }
  }

  void fail(const char* what) {
    ++attempted;
    ++failed;
    std::cerr << "perfbench: " << args.workload << " op " << attempted
              << " threw: " << what << "\n";
  }

  /// The self-check hook: damages the first checked output once.
  template <typename T>
  void maybe_corrupt(T* data) {
    if (corrupt_pending) {
      corrupt_pending = false;
      data[0] = data[0] + T(1);
    }
  }

  void note_working_set(double bytes) {
    working_set_max = std::max(working_set_max, bytes);
  }
};

inplace::options with_threads(int threads) {
  inplace::options o;
  o.threads = threads;
  return o;
}

/// Adds one input's set-up to each of the set-up passes: `fn` runs the
/// public set-up entry points a cold call runs before it moves any data
/// (planning, executor construction with its scratch acquisition) for
/// every thread key of the input, and returns the executors' auxiliary
/// bytes (cached_bytes()).  setup_s is the median pass and scratch_mib
/// the summed bytes.  Measured apart from execution, so neither drowns
/// in the run-to-run noise of the calls themselves.
template <typename Fn>
void time_setup(run_state& st, Fn&& fn) {
  std::size_t bytes = 0;
  for (double& pass : st.setup_rep) {
    pass += time_call([&] { bytes = fn(); });
  }
  st.aux_bytes += static_cast<double>(bytes);
}

/// make_plan_for_shape + transposer<T> construction for both thread
/// keys of a rows x cols call: the 2-D cold path before execution.
template <typename T>
void setup_2d(run_state& st, std::size_t rows, std::size_t cols) {
  time_setup(st, [&] {
    std::size_t bytes = 0;
    for (const int threads : {0, 1}) {
      const inplace::transposer<T> tr(inplace::make_plan_for_shape(
          rows, cols, inplace::storage_order::row_major,
          with_threads(threads), sizeof(T)));
      bytes += tr.cached_bytes();
    }
    return bytes;
  });
}

/// Runs one synchronous public call.  When the run is traced and `traced`
/// is set, the library's telemetry collector is installed around the
/// call and a benchmark span named `name` wraps it; the call's spans are
/// folded into the pass table.  Returns the call's wall seconds.
template <typename Fn>
double call(run_state& st, const char* name, bool traced, Fn&& fn,
            call_trace* trace_out = nullptr) {
  if (!st.args.trace || !traced) {
    return time_call(fn);
  }
  st.col.clear();
  double t = 0.0;
  {
    inplace::telemetry::scoped_sink sink(&st.col);
    scoped_span span(st.spans, name, ++st.request);
    t = time_call(fn);
  }
  call_trace ct = read_call(st.col);
  if (ct.child_seconds > 0.0) {
    st.envelope_with_children_s += ct.envelope_seconds;
    st.children_s += ct.child_seconds;
  }
  for (const auto& [stage, v] : ct.stages) {
    auto& p = st.passes[{st.args.workload, ct.engine, stage, ct.tier, ct.rung,
                         ct.threads}];
    ++p.spans;
    p.self_seconds += v.first;
    p.bytes += v.second;
  }
  if (trace_out != nullptr) {
    *trace_out = std::move(ct);
  }
  return t;
}


// --- table1 ------------------------------------------------------------------

/// Stratified draw from U[lo, hi)^2: one uniform sample in each cell of
/// a g x g grid over the square, visited in cell order.  Every seed
/// covers the whole Table 1 size range (in-L2 to beyond the LLC) in the
/// same proportions and order, which keeps run-to-run spread down
/// without leaving the distribution.
std::vector<std::pair<std::size_t, std::size_t>> grid_shapes(
    inplace::util::xoshiro256& rng, std::size_t g, double lo, double hi) {
  const double w = (hi - lo) / static_cast<double>(g);
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t i = 0; i < g; ++i) {
    for (std::size_t j = 0; j < g; ++j) {
      const double m = lo + w * (static_cast<double>(i) + rng.uniform_double());
      const double n = lo + w * (static_cast<double>(j) + rng.uniform_double());
      out.emplace_back(static_cast<std::size_t>(m),
                       static_cast<std::size_t>(n));
    }
  }
  return out;
}

/// The 2-D executor layer timed from outside: make_plan_for_shape, then
/// transposer<T> construction (scratch acquisition and its rung) and a
/// warm operator() call.
template <typename T>
void executor_layer(run_state& st, T* work, const T* ref, std::size_t rows,
                    std::size_t cols, std::uint64_t salt, bool one) {
  const inplace::options opts = with_threads(one ? 1 : 0);
  std::vector<double> plan_us;
  inplace::transpose_plan plan;
  for (int r = 0; r < 5; ++r) {
    scoped_span span(st.spans, "plan.make_plan_for_shape", st.request);
    plan_us.push_back(1e6 * time_call([&] {
      plan = inplace::make_plan_for_shape(
          rows, cols, inplace::storage_order::row_major, opts, sizeof(T));
    }));
  }
  if (!one) {
    st.layer_samples["plan.make_us"].push_back(median(plan_us));
  }
  std::optional<inplace::transposer<T>> tr;
  {
    scoped_span span(st.spans, "executor.construct", st.request);
    st.layer_samples[std::string("executor.construct_ms") + tsuffix(one)]
        .push_back(1e3 * time_call([&] { tr.emplace(plan); }));
  }
  st.degraded += tr->degraded() ? 1.0 : 0.0;
  const std::size_t count = rows * cols;
  double exec_s = 0.0;
  for (int r = 0; r < 2; ++r) {  // the second call runs on a warm arena
    fill_pattern(work, count, salt);
    scoped_span span(st.spans, "executor.execute", st.request);
    exec_s = time_call([&] { (*tr)(work); });
    st.check(mismatches(work, ref, count));
  }
  st.layer_samples[std::string("executor.execute_ms") + tsuffix(one)]
      .push_back(1e3 * exec_s);
}

void run_table1(run_state& st) {
  inplace::util::xoshiro256 rng(st.args.seed);
  // A 5 x 5 grid (25 shapes) at the default 20 s budget.  Speed varies
  // far more from shape to shape (gcd(m, n), LLC fit) than from call to
  // call, so a run's figure settles with more shapes, not more calls.
  const auto g = static_cast<std::size_t>(
      std::clamp(std::round(std::sqrt(st.args.seconds * 1.25)), 2.0, 6.0));
  // --scale shrinks the side range: 1 is the paper's U[1000, 10000).
  const double lo = 1000.0 * st.args.scale;
  const double hi = 10000.0 * st.args.scale;
  const auto shapes = grid_shapes(rng, g, lo, hi);
  const double llc = static_cast<double>(st.host.l3_bytes);
  std::size_t max_count = 0;
  for (const auto& [rows, cols] : shapes) {
    max_count = std::max(max_count, rows * cols);
  }
  buffer<double> work(max_count);
  buffer<double> ref(max_count);
  std::vector<double> ws;
  for (const auto& [rows, cols] : shapes) {
    const std::size_t count = rows * cols;
    const double bytes = static_cast<double>(count * sizeof(double));
    ws.push_back(bytes);
    st.note_working_set(bytes);
    const std::uint64_t salt = rng() >> 24;
    fill_pattern(work.data(), count, salt);
    inplace::baselines::blocked_transpose_into(work.data(), ref.data(), rows,
                                               cols);
    // One checked public call with its copy probe (t < 0 if it threw).
    // A 1-thread call's probe is a single copy, paired with that call
    // alone; a cold call's would go unused, so it takes none.
    auto run = [&](bool one, bool traced, call_trace* ct = nullptr,
                   bool probed = true) {
      timed r;
      if (probed) {
        r.probe = copy_probe(work.data(), ref.data(), count,
                             one ? 1 : st.host.default_threads, one ? 1 : 3);
      }
      fill_pattern(work.data(), count, salt);
      try {
        r.t = call(st, "transpose", traced, [&] {
          inplace::transpose(work.data(), rows, cols,
                             inplace::storage_order::row_major,
                             with_threads(one ? 1 : 0));
        }, ct);
        st.maybe_corrupt(work.data());
        st.check(mismatches(work.data(), ref.data(), count));
      } catch (const std::exception& e) {
        st.fail(e.what());
      }
      return r;
    };
    input_record& in = st.inputs.emplace_back();
    in.label = std::to_string(rows) + "x" + std::to_string(cols);
    in.bytes = bytes;
    in.cold_nt = run(false, true, nullptr, false).t;
    // First call of the 1-thread key.
    in.cold_1t = run(true, true, nullptr, false).t;
    // A warm call at the default thread count, then round(0.05 s) at 1
    // thread (1 at 20 s); the shape's 1-thread roofline_frac is the
    // median of their ratios.
    const int warm_1t = static_cast<int>(
        std::clamp(std::round(st.args.seconds * 0.05), 1.0, 8.0));
    std::vector<double> ratio_1t;
    for (int rep = 0; rep <= warm_1t; ++rep) {
      const bool one = rep > 0;
      call_trace ct;
      const timed r = run(one, true, &ct);
      const double t = r.t;
      (one ? in.warm_1t : in.warm_nt).push_back(t);
      if (t < 0.0) {
        continue;
      }
      (one ? st.one : st.nt).add(bytes, t, r.probe);
      if (one && t > 0.0) {
        ratio_1t.push_back(r.probe / t);
      }
      if (st.args.trace && ct.engine == "blocked") {
        st.layer[std::string(bytes <= llc ? "in_llc" : "out_llc") +
                 tsuffix(one)]
            .add(2.0 * bytes, ct.envelope_seconds);
        st.layer[std::string("blocked") + tsuffix(one)].add(
            2.0 * bytes, ct.envelope_seconds);
      }
      if (st.args.trace && !one) {
        // Overhead probe: the same input again with tracing off.
        st.traced_s += t;
        const double u = run(false, false).t;
        st.untraced_s += u > 0.0 ? u : t;
      }
    }
    if (!ratio_1t.empty()) {
      in.roofline_1t = median(ratio_1t);
      st.input_roofline_1t.push_back(in.roofline_1t);
    }
    setup_2d<double>(st, rows, cols);
    if (st.args.trace) {
      executor_layer(st, work.data(), ref.data(), rows, cols, salt, false);
      executor_layer(st, work.data(), ref.data(), rows, cols, salt, true);
    }
  }
  st.retained_mib =
      static_cast<double>(inplace::default_context().cached_bytes()) / mib;
  std::ostringstream s;
  s << "\"shapes\": [";
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    s << (i ? ", " : "") << "[" << shapes[i].first << ", " << shapes[i].second
      << "]";
  }
  s << "], \"working_set_llc_mean\": " << json_number(mean(ws) / llc);
  st.stamp << s.str();
}

// --- aos_soa -----------------------------------------------------------------

template <typename T>
void aos_soa_case(run_state& st, inplace::util::xoshiro256& rng,
                  std::size_t fields, double target_bytes) {
  // A fixed structure count, a multiple of 64 so every lane width
  // divides it and the in-register tile gate is decided by `fields`; the
  // seed draws the values.
  const auto count = std::max<std::size_t>(
      64, static_cast<std::size_t>(target_bytes /
                                   static_cast<double>(sizeof(T) * fields)) /
              64 * 64);
  const std::size_t total = count * fields;
  const double bytes = static_cast<double>(total * sizeof(T));
  st.note_working_set(bytes);
  const std::uint64_t salt = rng() >> 40;
  buffer<T> work(total);
  buffer<T> soa_ref(total);
  fill_pattern(work.data(), total, salt);
  inplace::baselines::blocked_transpose_into(work.data(), soa_ref.data(),
                                             count, fields);
  // One round trip AoS -> SoA -> AoS; each leg is checked and paired
  // with a copy probe taken before the trip.  Negative seconds mark a leg
  // that threw.
  auto round_trip = [&](bool one, bool traced) {
    std::array<timed, 2> t;
    for (timed& leg : t) {
      leg.probe = copy_probe(work.data(), soa_ref.data(), total,
                             one ? 1 : st.host.default_threads);
    }
    const inplace::options opts = with_threads(one ? 1 : 0);
    fill_pattern(work.data(), total, salt);
    try {
      for (int leg = 0; leg < 2; ++leg) {
        call_trace ct;
        t[static_cast<std::size_t>(leg)].t = call(
            st, leg == 0 ? "aos_to_soa" : "soa_to_aos", traced, [&] {
              if (leg == 0) {
                inplace::aos_to_soa(work.data(), count, fields, opts);
              } else {
                inplace::soa_to_aos(work.data(), count, fields, opts);
              }
            }, &ct);
        st.maybe_corrupt(work.data());
        st.check(leg == 0
                     ? mismatches(work.data(), soa_ref.data(), total)
                     : pattern_mismatches(work.data(), total, salt));
        if (st.args.trace && traced && ct.engine == "skinny") {
          const bool tile = ct.tier.find("+inreg") != std::string::npos;
          st.skinny_calls += 1.0;
          st.tile_calls += tile ? 1.0 : 0.0;
          st.layer[std::string(tile ? "tile" : "notile") + tsuffix(one)].add(
              2.0 * bytes, ct.envelope_seconds);
        }
      }
    } catch (const std::exception& e) {
      st.fail(e.what());
    }
    return t;
  };
  // Each leg is its own input record (its own cache key).
  std::array<input_record, 2> in;
  for (int leg = 0; leg < 2; ++leg) {
    in[static_cast<std::size_t>(leg)].label =
        std::string(leg == 0 ? "aos_to_soa " : "soa_to_aos ") +
        (sizeof(T) == 4 ? "f32" : "f64") + " fields=" +
        std::to_string(fields);
    in[static_cast<std::size_t>(leg)].bytes = bytes;
  }
  const auto cold = round_trip(false, true);
  const auto cold_1t = round_trip(true, true);  // 1-thread keys' first calls
  for (std::size_t leg = 0; leg < 2; ++leg) {
    in[leg].cold_nt = cold[leg].t;
    in[leg].cold_1t = cold_1t[leg].t;
  }
  // Two warm round trips at the default thread count around one at 1
  // thread.
  for (const bool one : {false, true, false}) {
    const auto t = round_trip(one, true);
    for (std::size_t leg = 0; leg < 2; ++leg) {
      (one ? in[leg].warm_1t : in[leg].warm_nt).push_back(t[leg].t);
      if (t[leg].t >= 0.0) {
        (one ? st.one : st.nt).add(bytes, t[leg].t, t[leg].probe);
      }
    }
    if (!one && st.args.trace) {
      const auto u = round_trip(false, false);
      st.traced_s += t[0].t + t[1].t;
      st.untraced_s += u[0].t + u[1].t;
    }
  }
  st.inputs.push_back(std::move(in[0]));
  st.inputs.push_back(std::move(in[1]));
  setup_2d<T>(st, count, fields);
  setup_2d<T>(st, fields, count);
}

void run_aos_soa(run_state& st) {
  inplace::util::xoshiro256 rng(st.args.seed);
  const double target = 128.0 * mib * st.args.scale;
  for (const std::size_t fields : {2, 3, 4, 8, 16}) {
    aos_soa_case<float>(st, rng, fields, target);
    aos_soa_case<double>(st, rng, fields, target);
  }
  st.retained_mib =
      static_cast<double>(inplace::default_context().cached_bytes()) / mib;
  st.stamp << "\"fields\": [2, 3, 4, 8, 16], \"types\": [\"f32\", \"f64\"]";
}

// --- permute_mix -------------------------------------------------------------

/// Plain gather reference for permute_nd: out[o] = in[source(o)].
template <typename T>
void nd_gather(const T* in, T* out, const std::vector<std::size_t>& dims,
               const std::vector<int>& perm) {
  const std::size_t rank = dims.size();
  std::vector<std::size_t> in_stride(rank, 1);
  for (std::size_t k = rank - 1; k > 0; --k) {
    in_stride[k - 1] = in_stride[k] * dims[k];
  }
  std::vector<std::size_t> out_dims(rank);
  std::vector<std::size_t> stride(rank);  // input stride of output axis k
  for (std::size_t k = 0; k < rank; ++k) {
    out_dims[k] = dims[static_cast<std::size_t>(perm[k])];
    stride[k] = in_stride[static_cast<std::size_t>(perm[k])];
  }
  std::size_t inner = 1;
  for (std::size_t k = 1; k < rank; ++k) {
    inner *= out_dims[k];
  }
  const auto outer = static_cast<std::int64_t>(out_dims[0]);
#pragma omp parallel for schedule(static)
  for (std::int64_t a = 0; a < outer; ++a) {
    std::vector<std::size_t> idx(rank, 0);
    std::size_t src = static_cast<std::size_t>(a) * stride[0];
    T* dst = out + static_cast<std::size_t>(a) * inner;
    for (std::size_t o = 0; o < inner; ++o) {
      dst[o] = in[src];
      // Odometer over output axes 1..rank-1, tracking the input offset.
      for (std::size_t k = rank - 1; k >= 1; --k) {
        src += stride[k];
        if (++idx[k] < out_dims[k]) {
          break;
        }
        src -= stride[k] * out_dims[k];
        idx[k] = 0;
      }
    }
  }
}

/// An op's cold call and first warm call at the default thread count.
struct op_result {
  double cold = -1.0;
  double warm_nt = -1.0;
};

/// Cold, then warm calls at both thread counts, of one permute_mix op:
/// one warm call at the default thread count and a --seconds-dependent
/// number at one thread (5 at 20 s).  The op's 1-thread roofline_frac is
/// the median of those calls' ratios, so a call that the host slowed
/// down does not move it.  `op(opts, traced, trace)` runs the public
/// call; `verify()` checks the output; `reset()` restores the input;
/// `probe(team)` times a copy of the op's bytes with `team` threads (and
/// may clobber the buffer).
template <typename Op, typename Verify, typename Reset, typename Probe>
op_result measure_op(run_state& st, const std::string& label, double bytes,
                     Op&& op, Verify&& verify, Reset&& reset, Probe&& probe) {
  op_result r;
  input_record in;
  in.label = label;
  in.bytes = bytes;
  // A cold call's probe would go unused, so it takes none.
  auto once = [&](bool one, bool traced, call_trace* ct, bool probed = true) {
    timed out;
    if (probed) {
      out.probe = probe(one ? 1 : st.host.default_threads);
    }
    reset();
    try {
      out.t = op(with_threads(one ? 1 : 0), traced, ct);
      verify();
    } catch (const std::exception& e) {
      st.fail(e.what());
      out.t = -1.0;
    }
    return out;
  };
  r.cold = in.cold_nt = once(false, true, nullptr, false).t;
  // First call of the 1-thread key.
  in.cold_1t = once(true, true, nullptr, false).t;
  // A warm call at the default thread count, then the 1-thread ones.
  const int warm_1t = static_cast<int>(
      std::clamp(std::round(st.args.seconds * 0.25), 3.0, 8.0));
  std::vector<double> ratio_1t;
  for (int rep = 0; rep <= warm_1t; ++rep) {
    const bool one = rep > 0;
    call_trace ct;
    const timed tp = once(one, true, &ct);
    const double t = tp.t;
    (one ? in.warm_1t : in.warm_nt).push_back(t);
    if (t >= 0.0) {
      (one ? st.one : st.nt).add(bytes, t, tp.probe);
    }
    if (one && t > 0.0) {
      ratio_1t.push_back(tp.probe / t);
    }
    if (!one && r.warm_nt < 0.0) {
      r.warm_nt = t;
    }
    if (st.args.trace && !one && t >= 0.0) {
      const double u = once(false, false, nullptr).t;
      st.traced_s += t;
      st.untraced_s += u >= 0.0 ? u : t;
    }
  }
  if (!ratio_1t.empty()) {
    in.roofline_1t = median(ratio_1t);
    st.input_roofline_1t.push_back(in.roofline_1t);
  }
  st.inputs.push_back(std::move(in));
  return r;
}

void nd_case(run_state& st, const char* label, std::vector<std::size_t> dims,
             std::vector<int> perm, std::uint64_t salt) {
  const std::size_t total = std::accumulate(
      dims.begin(), dims.end(), std::size_t{1}, std::multiplies<>());
  const double bytes = static_cast<double>(total * sizeof(double));
  st.note_working_set(bytes);
  buffer<double> work(total);
  buffer<double> ref(total);
  fill_pattern(work.data(), total, salt);
  nd_gather(work.data(), ref.data(), dims, perm);
  const std::span<const std::size_t> d(dims.data(), dims.size());
  const std::span<const int> p(perm.data(), perm.size());
  if (st.args.trace) {
    std::vector<double> us;
    for (int r = 0; r < 5; ++r) {
      scoped_span span(st.spans, "tensor_plan.make_tensor_plan", st.request);
      us.push_back(1e6 * time_call([&] {
        (void)inplace::detail::make_tensor_plan(d, p, sizeof(double));
      }));
    }
    st.layer_samples["tensor_plan.make_us"].push_back(median(us));
  }
  time_setup(st, [&] {
    std::size_t aux = 0;
    for (const int threads : {0, 1}) {
      const inplace::nd_transposer<double> nd(
          inplace::detail::make_tensor_plan(d, p, sizeof(double)),
          with_threads(threads));
      aux += nd.cached_bytes();
    }
    return aux;
  });
  measure_op(
      st, std::string("permute_nd ") + label, bytes,
      [&](const inplace::options& o, bool traced, call_trace* ct) {
        const bool one = o.threads == 1;
        call_trace local;
        const double t = call(st, "permute_nd", traced, [&] {
          inplace::permute_nd(work.data(), d, p, o);
        }, &local);
        if (ct != nullptr && st.args.trace) {
          st.layer[std::string("nd.") + label + tsuffix(one)].add(
              2.0 * bytes, local.envelope_seconds);
        }
        return t;
      },
      [&] {
        st.maybe_corrupt(work.data());
        st.check(mismatches(work.data(), ref.data(), total));
      },
      [&] { fill_pattern(work.data(), total, salt); },
      [&](int team) {
        return copy_probe(work.data(), ref.data(), total, team, 1);
      });
}

void perm_case(run_state& st, const char* kind,
               const std::vector<std::uint32_t>& pi, std::uint64_t salt) {
  const std::size_t n = pi.size();
  const double bytes = static_cast<double>(n * sizeof(double));
  st.note_working_set(bytes);
  buffer<double> work(n);
  buffer<double> ref(n);
  const std::span<const std::uint32_t> ps(pi.data(), n);
  for (const bool inverse : {false, true}) {
    fill_pattern(work.data(), n, salt);
    const auto count = static_cast<std::int64_t>(n);
#pragma omp parallel for schedule(static)
    for (std::int64_t i = 0; i < count; ++i) {
      const auto u = static_cast<std::size_t>(i);
      if (inverse) {
        ref[pi[u]] = work[u];
      } else {
        ref[u] = work[pi[u]];
      }
    }
    double classify_s = 0.0;
    if (st.args.trace) {
      std::vector<double> c;
      for (int r = 0; r < 3; ++r) {
        scoped_span span(st.spans, "perm_plan.make_perm_plan", st.request);
        c.push_back(time_call([&] {
          (void)inplace::make_perm_plan<std::uint32_t>(ps, inverse, {},
                                                       sizeof(double));
        }));
      }
      classify_s = median(c);
      st.layer_samples["perm_plan.classify_s"].push_back(classify_s);
    }
    // The classification repeats on warm calls, so only the executor's
    // construction (scratch acquisition) counts as set-up.
    const inplace::perm_plan plan =
        inplace::make_perm_plan<std::uint32_t>(ps, inverse, {}, sizeof(double));
    time_setup(st, [&] {
      std::size_t aux = 0;
      for (const int threads : {0, 1}) {
        const inplace::permuter<double> pm(plan, with_threads(threads),
                                           work.data());
        aux += pm.cached_bytes();
      }
      return aux;
    });
    const std::string key = std::string("perm.") + kind;
    const op_result r = measure_op(
        st, std::string(inverse ? "permute_inverse " : "permute ") + kind,
        bytes,
        [&](const inplace::options& o, bool traced, call_trace* ct) {
          const bool one = o.threads == 1;
          call_trace local;
          const double t = call(
              st, inverse ? "permute_inverse" : "permute", traced, [&] {
                const std::span<double> data(work.data(), n);
                if (inverse) {
                  inplace::permute_inverse(data, ps, o);
                } else {
                  inplace::permute(data, ps, o);
                }
              }, &local);
          if (ct != nullptr && st.args.trace) {
            st.layer[key + tsuffix(one)].add(2.0 * bytes,
                                             local.envelope_seconds);
            st.classify[one ? 1 : 0].first += classify_s;
            st.classify[one ? 1 : 0].second += t;
          }
          return t;
        },
        [&] {
          st.maybe_corrupt(work.data());
          st.check(mismatches(work.data(), ref.data(), n));
        },
        [&] { fill_pattern(work.data(), n, salt); },
        [&](int team) {
          return copy_probe(work.data(), ref.data(), n, team, 1);
        });
    if (std::string(kind) == "generic" && !inverse && r.cold >= 0.0 &&
        r.warm_nt >= 0.0) {
      st.layer_samples["perm_engine.generic.setup_s"].push_back(r.cold -
                                                                r.warm_nt);
    }
  }
}

void run_permute_mix(run_state& st) {
  // Fixed shapes of about 256 MiB of f64 (scaled by --scale); the seed
  // draws the values, the rotation offset and the generic permutation.
  inplace::util::xoshiro256 rng(st.args.seed);
  const double elems = 256.0 * mib * st.args.scale / sizeof(double);
  const double side2 = std::sqrt(st.args.scale);
  const double side3 = std::cbrt(st.args.scale);
  auto dim = [](double x) {
    return static_cast<std::size_t>(std::max(2.0, std::round(x)));
  };
  auto salt = [&] { return rng() >> 24; };

  // permute_nd: NCHW -> NHWC, the (1,0,2) chunk-grid pass, (2,1,0).
  nd_case(st, "nchw_nhwc", {8, 64, dim(256 * side2), dim(256 * side2)},
          {0, 2, 3, 1}, salt());
  nd_case(st, "p102", {dim(2000 * side2), dim(1000 * side2), 16}, {1, 0, 2},
          salt());
  nd_case(st, "p210", {dim(320 * side3), dim(320 * side3), dim(320 * side3)},
          {2, 1, 0}, salt());

  // permute / permute_inverse, one permutation of every classifier kind.
  std::vector<std::uint32_t> pi;
  {
    const auto w = static_cast<std::uint64_t>(
        std::max(2.0, std::round(std::log2(elems))));
    pi.resize(std::size_t{1} << w);
    for (std::size_t i = 0; i < pi.size(); ++i) {
      pi[i] = static_cast<std::uint32_t>(inplace::detail::perm_bitrev(i, w));
    }
    perm_case(st, "bit_reversal", pi, salt());
  }
  {
    // A fixed offset with gcd(n, k) = 1024: the juggling path with 8 KiB
    // groups, never the 3-reversal fallback a random gcd can land on.
    const std::size_t groups = dim(elems / 1024) + 5;
    std::size_t kq = groups / 3;
    while (std::gcd(kq, groups) != 1) {
      ++kq;
    }
    const std::size_t n = groups * 1024;
    const std::size_t k = kq * 1024;
    pi.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      pi[i] = static_cast<std::uint32_t>((i + k) % n);
    }
    perm_case(st, "rotation", pi, salt());
  }
  {
    const std::size_t cols = dim(5000 * side2);
    const std::size_t n = dim(elems / static_cast<double>(cols)) * cols;
    pi.resize(n);
    for (std::size_t i = 0; i + 1 < n; ++i) {
      pi[i] = static_cast<std::uint32_t>(i * cols % (n - 1));
    }
    pi[n - 1] = static_cast<std::uint32_t>(n - 1);
    perm_case(st, "transpose2d", pi, salt());
  }
  {
    // The generic cycle-leader path is an order of magnitude slower and
    // its cold call discovers every cycle, so it runs at 1/16 the size.
    pi.resize(dim(elems / 16.0));
    std::iota(pi.begin(), pi.end(), 0u);
    for (std::size_t i = pi.size(); i > 1; --i) {
      std::swap(pi[i - 1], pi[rng.uniform(0, i)]);
    }
    perm_case(st, "generic", pi, salt());
  }
  st.retained_mib =
      static_cast<double>(inplace::default_context().cached_bytes()) / mib;
  st.stamp << "\"elements\": " << json_number(elems);
}

// --- service -----------------------------------------------------------------

struct service_shape {
  std::size_t rows = 0;
  std::size_t cols = 0;
  bool f64 = false;
  std::uint64_t salt = 0;
  // Pristine input and out-of-place reference, in the shape's type.
  buffer<float> in32;
  buffer<float> ref32;
  buffer<double> in64;
  buffer<double> ref64;

  [[nodiscard]] std::size_t bytes() const {
    return rows * cols * (f64 ? sizeof(double) : sizeof(float));
  }
};

/// What one thread configuration of the service workload measured,
/// accumulated over its blocks.
struct service_phase {
  samples done;  ///< completed requests (payload bytes, latency)
  std::vector<double> submit_s;
  std::array<std::vector<double>, inplace::qos_class_count> by_qos;
  std::vector<double> exec_s;      ///< traced: depth-0 library spans
  std::vector<double> window_gbs;  ///< throughput of each 1 s window
  std::vector<double> window_tail_s;  ///< each window's latency tail
  std::vector<double> window_roofline;  ///< each window's roofline_frac
  inplace::context_stats delta;  ///< context counters gained
};

void add_stats(inplace::context_stats& sum, const inplace::context_stats& a,
               const inplace::context_stats& b) {
  sum.plan_hits += a.plan_hits - b.plan_hits;
  sum.plan_misses += a.plan_misses - b.plan_misses;
  sum.plan_evictions += a.plan_evictions - b.plan_evictions;
  sum.arenas_created += a.arenas_created - b.arenas_created;
  sum.arenas_reused += a.arenas_reused - b.arenas_reused;
}

class service_run {
 public:
  explicit service_run(run_state& st) : st_(st) {
    inplace::util::xoshiro256 rng(st.args.seed);
    // 48 distinct shapes with sides in [64, 1024] (scaled).  Shape r has
    // Zipf popularity rank r; its log-area is drawn inside stratum
    // (29 r mod 48) of the 48 equal log-area strata, so every seed puts
    // the same mix of sizes at each popularity rank, and odd strata are
    // f64, even ones f32.
    const double lo = std::log2(std::max(4.0, 64.0 * std::sqrt(st.args.scale)));
    const double hi = std::log2(std::max(8.0, 1024.0 * std::sqrt(st.args.scale)));
    shapes_.resize(48);
    for (std::size_t r = 0; r < shapes_.size(); ++r) {
      service_shape& s = shapes_[r];
      const std::size_t k = r * 29 % shapes_.size();
      const double area =
          2.0 * lo + 2.0 * (hi - lo) *
                         (static_cast<double>(k) + rng.uniform_double()) /
                         static_cast<double>(shapes_.size());
      const double a_lo = std::max(lo, area - hi);
      const double a_hi = std::min(hi, area - lo);
      const double a = a_lo + (a_hi - a_lo) * rng.uniform_double();
      s.rows = static_cast<std::size_t>(std::exp2(a));
      s.cols = static_cast<std::size_t>(std::exp2(area - a));
      s.f64 = k % 2 == 1;
      s.salt = rng() >> 40;
      const std::size_t count = s.rows * s.cols;
      max_count_ = std::max(max_count_, count);
      st.note_working_set(static_cast<double>(s.bytes()));
      if (s.f64) {
        s.in64.resize(count);
        s.ref64.resize(count);
        fill_pattern(s.in64.data(), count, s.salt);
        inplace::baselines::blocked_transpose_into(
            s.in64.data(), s.ref64.data(), s.rows, s.cols);
      } else {
        s.in32.resize(count);
        s.ref32.resize(count);
        fill_pattern(s.in32.data(), count, s.salt);
        inplace::baselines::blocked_transpose_into(
            s.in32.data(), s.ref32.data(), s.rows, s.cols);
      }
    }
    // Zipf(1) popularity by rank.
    double z = 0.0;
    for (std::size_t r = 0; r < shapes_.size(); ++r) {
      z += 1.0 / static_cast<double>(r + 1);
      cdf_.push_back(z);
    }
    for (double& c : cdf_) {
      c /= z;
    }
  }

  /// One closed-loop block: `clients` threads each keep one request
  /// outstanding on `ctx` with options.threads = `threads`, through
  /// submit() or, with `inline_calls`, through the context's synchronous
  /// transpose on the client thread.  Requests completing in the first
  /// `warmup` seconds are checked but not counted; then `windows`
  /// one-second windows are measured into `ph`.
  void run(inplace::transpose_context& ctx, std::size_t clients, int threads,
           bool inline_calls, double warmup, int windows,
           std::uint64_t block_seed, service_phase& ph) {
    std::mutex mu;
    std::atomic<bool> stop{false};
    bool counting = false;  // guarded by mu
    std::vector<double> window_latency;  // guarded by mu
    double window_probe_s = 0.0;         // guarded by mu
    std::vector<std::thread> pool;
    const inplace::options opts = with_threads(threads);
    for (std::size_t c = 0; c < clients; ++c) {
      pool.emplace_back([&, c] {
        inplace::util::xoshiro256 rng(block_seed * 131 + c);
        buffer<float> w32(max_count_);
        buffer<double> w64(max_count_);
        while (!stop.load(std::memory_order_relaxed)) {
          const double u = rng.uniform_double();
          const auto pick = static_cast<std::size_t>(
              std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
          service_shape& s = shapes_[std::min(pick, shapes_.size() - 1)];
          const auto qos =
              static_cast<inplace::qos_class>(rng.uniform(0, 3));
          const std::uint64_t req = next_request_.fetch_add(1) + 1;
          const std::size_t count = s.rows * s.cols;
          // Restoring the input is one memcpy, so the clients stay a
          // small load next to the workers they measure; timed, it is the
          // request's copy probe (the clients copy concurrently).
          const double probe = time_call([&] {
            if (s.f64) {
              std::memcpy(w64.data(), s.in64.data(), s.bytes());
            } else {
              std::memcpy(w32.data(), s.in32.data(), s.bytes());
            }
          });
          double submit_s = 0.0;
          double latency = 0.0;
          std::string err;
          {
            scoped_span root(st_.spans, "request", req);
            const auto t0 = clock_type::now();
            try {
              if (inline_calls) {
                if (s.f64) {
                  ctx.transpose(w64.data(), s.rows, s.cols,
                                inplace::storage_order::row_major, opts);
                } else {
                  ctx.transpose(w32.data(), s.rows, s.cols,
                                inplace::storage_order::row_major, opts);
                }
              } else {
                std::future<void> fut;
                {
                  scoped_span sub(st_.spans, "submit", req, root.id());
                  inplace::job_options jo;
                  jo.qos = qos;
                  fut = s.f64 ? ctx.submit(w64.data(), s.rows, s.cols,
                                           inplace::storage_order::row_major,
                                           opts, jo)
                              : ctx.submit(w32.data(), s.rows, s.cols,
                                           inplace::storage_order::row_major,
                                           opts, jo);
                }
                submit_s = seconds_since(t0);
                scoped_span wait(st_.spans, "future", req, root.id());
                fut.get();
              }
            } catch (const std::exception& e) {
              err = e.what();
              if (err.empty()) {
                err = "exception without a message";
              }
            } catch (...) {
              err = "non-standard exception";
            }
            latency = seconds_since(t0);
          }
          std::lock_guard<std::mutex> lock(mu);
          if (!err.empty()) {
            st_.fail(err.c_str());
            continue;
          }
          if (s.f64) {
            st_.maybe_corrupt(w64.data());
            st_.check(mismatches(w64.data(), s.ref64.data(), count, false));
          } else {
            st_.maybe_corrupt(w32.data());
            st_.check(mismatches(w32.data(), s.ref32.data(), count, false));
          }
          if (counting) {
            ph.done.add(static_cast<double>(s.bytes()), latency, probe);
            if (!inline_calls) {
              ph.submit_s.push_back(submit_s);
              ph.by_qos[inplace::qos_index(qos)].push_back(latency);
            }
            window_latency.push_back(latency);
            window_probe_s += probe;
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(warmup));
    inplace::context_stats before;
    {
      std::lock_guard<std::mutex> lock(mu);
      before = ctx.stats();
      if (st_.args.trace) {
        st_.col.clear();
      }
      counting = true;
    }
    // Throughput and latency tail per one-second window, so a stall or
    // collapse inside the run shows, and the run reports their medians.
    auto mark = clock_type::now();
    double mark_bytes = ph.done.bytes;
    for (int w = 0; w < windows; ++w) {
      std::this_thread::sleep_until(mark + std::chrono::seconds(1));
      std::lock_guard<std::mutex> lock(mu);
      const double wall = seconds_since(mark);
      mark = clock_type::now();
      ph.window_gbs.push_back((ph.done.bytes - mark_bytes) / wall / 1e9);
      mark_bytes = ph.done.bytes;
      ph.window_tail_s.push_back(tail(window_latency).second);
      const double lat = std::accumulate(window_latency.begin(),
                                         window_latency.end(), 0.0);
      ph.window_roofline.push_back(lat > 0.0 ? window_probe_s / lat : 0.0);
      window_latency.clear();
      window_probe_s = 0.0;
      if (w + 1 == windows) {
        counting = false;
        add_stats(ph.delta, ctx.stats(), before);
        if (st_.args.trace) {
          for (const auto& s : st_.col.raw_spans()) {
            if (s.depth == 0) {
              ph.exec_s.push_back(s.seconds);
            }
          }
        }
      }
    }
    stop.store(true);
    for (auto& t : pool) {
      t.join();
    }
  }

  /// Adds every shape's 2-D set-up to the set-up passes.
  void setup() {
    for (const service_shape& s : shapes_) {
      if (s.f64) {
        setup_2d<double>(st_, s.rows, s.cols);
      } else {
        setup_2d<float>(st_, s.rows, s.cols);
      }
    }
  }

  /// The executor layer for the service shapes (traced runs).
  void executor_layer() {
    for (std::size_t i = 0; i < std::min<std::size_t>(8, shapes_.size());
         ++i) {
      service_shape& s = shapes_[i];
      const std::size_t count = s.rows * s.cols;
      if (s.f64) {
        buffer<double> w(count);
        perfbench::executor_layer(st_, w.data(), s.ref64.data(), s.rows,
                                  s.cols, s.salt, false);
      } else {
        buffer<float> w(count);
        perfbench::executor_layer(st_, w.data(), s.ref32.data(), s.rows,
                                  s.cols, s.salt, false);
      }
    }
  }

 private:
  run_state& st_;
  std::vector<service_shape> shapes_;
  std::vector<double> cdf_;
  std::size_t max_count_ = 0;
  std::atomic<std::uint64_t> next_request_{0};
};

void service_layer(run_state& st, const service_phase& ph, bool one) {
  const std::string sfx = tsuffix(one);
  const auto& d = ph.delta;
  const auto hits = static_cast<double>(d.plan_hits);
  const auto misses = static_cast<double>(d.plan_misses);
  const auto reused = static_cast<double>(d.arenas_reused);
  const auto created = static_cast<double>(d.arenas_created);
  auto& m = st.out;
  m.set("context.plan_hit_ratio" + sfx,
        hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  m.set("context.arena_reuse_ratio" + sfx,
        reused + created > 0 ? reused / (reused + created) : 0.0, "ratio");
  m.set("context.plan_evictions" + sfx, static_cast<double>(d.plan_evictions),
        "count");
  m.set("sched.submit_block_ms" + sfx, 1e3 * mean(ph.submit_s), "ms");
  m.set("sched.queue_wait_ms" + sfx,
        ph.exec_s.empty()
            ? 0.0
            : 1e3 * (mean(ph.done.latency_s) - mean(ph.exec_s)),
        "ms");
  m.set("sched.exec_ms_p50" + sfx, 1e3 * median(ph.exec_s), "ms");
  for (std::size_t q = 0; q < inplace::qos_class_count; ++q) {
    m.set(std::string("sched.latency_p50_ms.") +
              inplace::qos_class_name(static_cast<inplace::qos_class>(q)) +
              sfx,
          1e3 * median(ph.by_qos[q]), "ms");
  }
}

void run_service(run_state& st) {
  const auto clients = static_cast<std::size_t>(st.host.logical_cpus);
  service_run svc(st);
  inplace::transpose_context ctx;
  // Blocks alternate the service at its default (one client per CPU
  // submitting with default options) with its plain one-thread baseline
  // (the same request mix run inline by one client through the
  // context's synchronous transpose with options.threads = 1), two
  // one-second windows each, so both see the same host conditions.  The
  // baseline skips the queue hand-off, whose wake-up latency follows the
  // host's CPU availability and would make a gated 1-thread figure swing.
  const int blocks = std::max(1, static_cast<int>(st.args.seconds / 4.5));
  service_phase nt;
  service_phase one;
  service_phase untraced;  // traced runs: default blocks without the sink
  for (int b = 0; b < blocks; ++b) {
    const auto seed = st.args.seed * 64 + static_cast<std::uint64_t>(b) * 4;
    {
      std::optional<inplace::telemetry::scoped_sink> sink;
      if (st.args.trace) {
        sink.emplace(&st.col);
      }
      svc.run(ctx, clients, 0, false, 0.25, 2, seed, nt);
      svc.run(ctx, 1, 1, true, 0.25, 2, seed + 1, one);
    }
    if (st.args.trace) {
      svc.run(ctx, clients, 0, false, 0.25, 2, seed + 2, untraced);
    }
  }
  if (st.args.trace && !untraced.window_gbs.empty()) {
    // Overhead probe: the same request mix with the sink removed.
    st.traced_s = 1.0 / median(nt.window_gbs);
    st.untraced_s = 1.0 / median(untraced.window_gbs);
  }
  st.nt = nt.done;
  st.one = one.done;
  st.window_gbs_nt = nt.window_gbs;
  st.window_gbs_1t = one.window_gbs;
  st.window_tail_s = nt.window_tail_s;
  st.window_roofline_nt = nt.window_roofline;
  st.window_roofline_1t = one.window_roofline;
  st.retained_mib = static_cast<double>(ctx.cached_bytes()) / mib;
  svc.setup();
  if (st.args.trace) {
    service_layer(st, nt, false);
    service_layer(st, one, true);
    svc.executor_layer();
  }
  auto list = [](const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      out += (i ? ", " : "") + json_number(v[i]);
    }
    return out + "]";
  };
  st.stamp << "\"window_gbs_nt\": " << list(nt.window_gbs)
           << ", \"window_gbs_1t\": " << list(one.window_gbs)
           << ", \"window_tail_s_nt\": " << list(nt.window_tail_s)
           << ", \"clients\": " << clients
           << ", \"requests_nt\": " << nt.done.latency_s.size()
           << ", \"requests_1t\": " << one.done.latency_s.size()
           << ", \"shapes\": 48";
}

// --- reporting ---------------------------------------------------------------

/// roofline_frac at one thread count: the median one-second window for
/// a windowed workload, else the pooled warm calls.
double roofline(const samples& s, const std::vector<double>& windows) {
  return windows.empty() ? s.roofline() : median(windows);
}

/// roofline_frac_1t: the geometric mean of the per-input medians for a
/// workload that repeats each input's 1-thread call, else roofline() at
/// one thread.
double roofline_1t(const run_state& st) {
  return st.input_roofline_1t.empty()
             ? roofline(st.one, st.window_roofline_1t)
             : geomean(st.input_roofline_1t);
}

/// The gated end-to-end metrics: a ratio of two quantities measured side
/// by side at one thread (roofline_frac_1t) and work done apart from the
/// bandwidth-bound calls (setup_s, scratch_mib), so the host's swings in
/// memory bandwidth and CPU availability divide out.
void end_to_end(run_state& st) {
  auto& m = st.out;
  m.set("roofline_frac_1t", roofline_1t(st), "ratio");
  m.set("setup_s",
        median(std::vector<double>(st.setup_rep.begin(), st.setup_rep.end())),
        "s");
  m.set("scratch_mib", st.aux_bytes / mib, "MiB");
}

/// Absolute end-to-end figures, printed in the stamp of every run.  They
/// follow the host's state (see end_to_end), so they are not gated.
metric_table absolute_metrics(const run_state& st, double copy_nt) {
  const bool windowed = !st.window_gbs_nt.empty();
  const double gbs = windowed ? median(st.window_gbs_nt) : st.nt.gbs();
  metric_table m;
  m.set("roofline_frac", roofline(st.nt, st.window_roofline_nt), "ratio");
  m.set("throughput_gbs", gbs, "GB/s");
  m.set("throughput_1t_gbs",
        windowed ? median(st.window_gbs_1t) : st.one.gbs(), "GB/s");
  if (copy_nt > 0) {
    m.set("copy_roofline_frac", gbs / copy_nt, "ratio");
  }
  m.set("latency_p50_ms", 1e3 * median(st.nt.latency_s), "ms");
  m.set("latency_tail_ms",
        1e3 * (windowed ? median(st.window_tail_s)
                        : tail(st.nt.latency_s).second),
        "ms");
  m.set("fail_rate",
        st.attempted ? static_cast<double>(st.failed) /
                           static_cast<double>(st.attempted)
                     : 0.0,
        "ratio");
  m.set("retained_mib", st.retained_mib, "MiB");
  return m;
}

std::string metrics_json(const metric_table& t) {
  std::string o = "{";
  bool first = true;
  for (const auto& [name, m] : t.rows()) {
    o += (first ? "" : ", ") + json_string(name) +
         ": {\"value\": " + json_number(m.value) +
         ", \"unit\": " + json_string(m.unit) + "}";
    first = false;
  }
  return o + "}";
}

double layer_gbs(const run_state& st, const std::string& key) {
  const auto it = st.layer.find(key);
  return it == st.layer.end() ? 0.0 : it->second.gbs();
}

double layer_p50(const run_state& st, const std::string& key) {
  const auto it = st.layer_samples.find(key);
  return it == st.layer_samples.end() ? 0.0 : median(it->second);
}

void per_layer(run_state& st, double copy_1t, double copy_nt) {
  auto& m = st.out;
  m.set("host.copy_gbs_1t", copy_1t, "GB/s");
  m.set("host.copy_gbs_nt", copy_nt, "GB/s");
  // engine_blocked passes, modelled bytes over self time, per threads.
  for (const bool one : {true, false}) {
    const std::string sfx = tsuffix(one);
    const int threads = one ? 1 : st.host.default_threads;
    std::map<std::string, pass_total> by_pass;
    double pass_s = 0.0;
    for (const auto& [k, v] : st.passes) {
      if (k.engine == "blocked" && k.threads == threads && k.pass != "total") {
        auto& p = by_pass[k.pass];
        p.self_seconds += v.self_seconds;
        p.bytes += v.bytes;
        pass_s += v.self_seconds;
      }
    }
    for (const char* pass : {"prerotate", "row_shuffle", "col_shuffle"}) {
      const auto& p = by_pass[pass];
      m.set(std::string("engine_blocked.") + pass + ".gbs" + sfx,
            p.self_seconds > 0 ? static_cast<double>(p.bytes) /
                                     p.self_seconds / 1e9
                               : 0.0,
            "GB/s");
    }
    m.set("engine_blocked.col_shuffle.share" + sfx,
          pass_s > 0 ? by_pass["col_shuffle"].self_seconds / pass_s : 0.0,
          "ratio");
    m.set("engine_blocked.gbs_in_llc" + sfx, layer_gbs(st, "in_llc" + sfx),
          "GB/s");
    m.set("engine_blocked.gbs_out_llc" + sfx, layer_gbs(st, "out_llc" + sfx),
          "GB/s");
  }
  const double b1 = layer_gbs(st, "blocked_1t");
  m.set("engine_blocked.thread_scaling",
        b1 > 0 ? layer_gbs(st, "blocked_nt") / b1 : 0.0, "ratio");
  for (const bool one : {true, false}) {
    const std::string sfx = tsuffix(one);
    m.set("skinny.gbs_tile" + sfx, layer_gbs(st, "tile" + sfx), "GB/s");
    m.set("skinny.gbs_notile" + sfx, layer_gbs(st, "notile" + sfx), "GB/s");
  }
  m.set("kernels.tier",
        static_cast<double>(inplace::kernels::resolve_tier(
            inplace::kernels::tier::automatic)),
        "enum");
  m.set("kernels.tile_engaged_frac",
        st.skinny_calls > 0 ? st.tile_calls / st.skinny_calls : 0.0, "ratio");
  m.set("plan.make_us_p50", layer_p50(st, "plan.make_us"), "us");
  for (const bool one : {true, false}) {
    const std::string sfx = tsuffix(one);
    m.set("executor.construct_ms_p50" + sfx,
          layer_p50(st, "executor.construct_ms" + sfx), "ms");
    m.set("executor.execute_ms_p50" + sfx,
          layer_p50(st, "executor.execute_ms" + sfx), "ms");
  }
  m.set("executor.rung_degraded", st.degraded, "count");
  m.set("tensor_plan.make_us_p50", layer_p50(st, "tensor_plan.make_us"),
        "us");
  for (const bool one : {true, false}) {
    const std::string sfx = tsuffix(one);
    for (const char* p : {"nchw_nhwc", "p102", "p210"}) {
      m.set(std::string("tensor_nd.gbs.") + p + sfx,
            layer_gbs(st, std::string("nd.") + p + sfx), "GB/s");
    }
  }
  m.set("perm_plan.classify_s", layer_p50(st, "perm_plan.classify_s"), "s");
  for (const bool one : {true, false}) {
    const std::string sfx = tsuffix(one);
    const auto& [part, whole] = st.classify[one ? 1 : 0];
    m.set("perm_plan.classify_share" + sfx, whole > 0 ? part / whole : 0.0,
          "ratio");
    for (const char* k :
         {"rotation", "bit_reversal", "transpose2d", "generic"}) {
      m.set(std::string("perm_engine.gbs.") + k + sfx,
            layer_gbs(st, std::string("perm.") + k + sfx), "GB/s");
    }
  }
  m.set("perm_engine.generic.setup_s",
        layer_p50(st, "perm_engine.generic.setup_s"), "s");
  // run_service fills the context and sched layers; elsewhere they idle.
  if (st.args.workload != "service") {
    service_layer(st, service_phase{}, true);
    service_layer(st, service_phase{}, false);
  }
  m.set("context.cached_mib", st.retained_mib, "MiB");
  m.set("trace.overhead_frac",
        st.untraced_s > 0 ? st.traced_s / st.untraced_s - 1.0 : 0.0, "ratio");
  const double pass_sum = st.envelope_with_children_s > 0
                              ? st.children_s / st.envelope_with_children_s
                              : 0.0;
  m.set("trace.pass_sum_frac", pass_sum, "ratio");
  // The pass spans must account for their envelope: at least 90% of it
  // (the rest is the executor's own bookkeeping) and never more than all.
  if (pass_sum > 0.0 && (pass_sum < 0.9 || pass_sum > 1.0 + 1e-9)) {
    std::cerr << "perfbench: pass spans cover " << pass_sum
              << " of their envelopes, outside the [0.9, 1.0] tolerance\n";
  }
}

void print_stamp(run_state& st, double copy_bytes, double copy_1t,
                 double copy_nt) {
  const auto& h = st.host;
  const auto tl = tail(st.nt.latency_s);
  std::ostringstream o;
  o << "{\"stamp\": {\"workload\": " << json_string(st.args.workload)
    << ", \"seed\": " << st.args.seed
    << ", \"cpu_model\": " << json_string(h.cpu_model)
    << ", \"logical_cpus\": " << h.logical_cpus
    << ", \"l2_bytes\": " << h.l2_bytes << ", \"l3_bytes\": " << h.l3_bytes
    << ", \"kernel_tier\": "
    << json_string(inplace::kernels::tier_name(
           inplace::kernels::resolve_tier(inplace::kernels::tier::automatic)))
    << ", \"default_threads\": " << h.default_threads
    << ", \"default_workers\": "
    << std::clamp(h.default_threads, 2, 4)
    << ", \"copy_array_bytes\": " << json_number(copy_bytes)
    << ", \"copy_gbs_1t\": " << json_number(copy_1t)
    << ", \"copy_gbs_nt\": " << json_number(copy_nt)
    << ", \"working_set_max_llc\": "
    << json_number(st.working_set_max / static_cast<double>(h.l3_bytes))
    << ", \"absolute\": " << metrics_json(absolute_metrics(st, copy_nt))
    << ", \"latency_samples\": " << st.nt.latency_s.size()
    << ", \"latency_tail_percentile\": " << json_number(tl.first)
    << ", \"latency_tail_basis\": "
    << (st.window_tail_s.empty() ? "\"all warm calls\""
                                 : "\"median of 1 s windows\"")
    << ", \"bench_spans\": " << st.spans.size();
  if (!st.stamp.str().empty()) {
    o << ", " << st.stamp.str();
  }
  auto times = [](const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      out += (i ? ", " : "") + json_number(v[i]);
    }
    return out + "]";
  };
  // The cold pass minus the warm pass (each input's best warm call at
  // the default thread count): the first-call cost including lazy cycle
  // discovery, for the record; below the call noise on most inputs.
  double cold_minus_warm = 0.0;
  for (const input_record& in : st.inputs) {
    double warm = -1.0;
    for (double t : in.warm_nt) {
      warm = t >= 0.0 && (warm < 0.0 || t < warm) ? t : warm;
    }
    if (in.cold_nt >= 0.0 && warm >= 0.0) {
      cold_minus_warm += in.cold_nt - warm;
    }
  }
  o << ", \"cold_minus_warm_s\": " << json_number(cold_minus_warm);
  o << ", \"inputs\": [";
  for (std::size_t i = 0; i < st.inputs.size(); ++i) {
    const input_record& in = st.inputs[i];
    o << (i ? ", " : "") << "{\"input\": " << json_string(in.label)
      << ", \"bytes\": " << json_number(in.bytes)
      << ", \"cold_nt_s\": " << json_number(in.cold_nt)
      << ", \"cold_1t_s\": " << json_number(in.cold_1t)
      << ", \"warm_nt_s\": " << times(in.warm_nt)
      << ", \"warm_1t_s\": " << times(in.warm_1t);
    if (in.roofline_1t >= 0.0) {
      o << ", \"roofline_1t\": " << json_number(in.roofline_1t);
    }
    o << "}";
  }
  o << "]";
  if (st.args.trace) {
    o << ", \"pass_sum_tolerance\": [0.9, 1.0], \"passes\": [";
    bool first = true;
    for (const auto& [k, v] : st.passes) {
      o << (first ? "" : ", ") << "{\"workload\": " << json_string(k.workload)
        << ", \"engine\": " << json_string(k.engine)
        << ", \"pass\": " << json_string(k.pass)
        << ", \"tier\": " << json_string(k.tier)
        << ", \"rung\": " << json_string(k.rung)
        << ", \"threads\": " << k.threads << ", \"spans\": " << v.spans
        << ", \"self_s\": " << json_number(v.self_seconds)
        << ", \"bytes\": " << v.bytes << "}";
      first = false;
    }
    o << "]";
  }
  o << "}}";
  std::cout << o.str() << "\n";
}

int usage(const char* msg) {
  std::cerr << "perfbench: " << msg
            << "\nusage: perfbench --workload "
               "<table1|aos_soa|permute_mix|service> --seed <n> "
               "--seconds <s> --trace <0|1> [--scale <f>] [--corrupt]\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  cli args;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) {
          throw std::invalid_argument(a + " needs a value");
        }
        return argv[++i];
      };
      if (a == "--workload") {
        args.workload = value();
      } else if (a == "--seed") {
        args.seed = std::stoull(value());
      } else if (a == "--seconds") {
        args.seconds = std::stod(value());
      } else if (a == "--trace") {
        args.trace = std::stoi(value()) != 0;
      } else if (a == "--scale") {
        args.scale = std::stod(value());
      } else if (a == "--corrupt") {
        args.corrupt = true;
      } else {
        return usage(("unknown argument " + a).c_str());
      }
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (args.seconds <= 0 || args.scale <= 0) {
    return usage("--seconds and --scale must be positive");
  }
#if INPLACE_TELEMETRY_ENABLED
  if (!args.trace) {
    return usage("the traced binary serves --trace 1 only");
  }
#else
  if (args.trace) {
    return usage("--trace 1 needs the perfbench_traced binary");
  }
#endif

  run_state st(args);
  st.host = probe_host();
  if (st.host.l3_bytes == 0) {
    st.host.l3_bytes = std::size_t{32} << 20;
  }
  // Copy roofline over arrays 4x the LLC, at 1 and all threads.  Only
  // the per-layer host.copy_gbs_* metrics need it, so an untraced run,
  // which gates on ratios to in-run probes, skips the two big arrays.
  const double copy_bytes =
      args.trace
          ? std::max(4.0 * static_cast<double>(st.host.l3_bytes) * args.scale,
                     1.0 * mib)
          : 0.0;
  const auto t_copy = clock_type::now();
  const copy_roofline copy =
      args.trace ? measure_copy(static_cast<std::size_t>(copy_bytes),
                                st.host.default_threads, 8)
                 : copy_roofline{};
  const double copy_1t = copy.gbs_1t;
  const double copy_nt = copy.gbs_nt;
  const double copy_s = seconds_since(t_copy);
  const auto t_workload = clock_type::now();

  if (args.workload == "table1") {
    run_table1(st);
  } else if (args.workload == "aos_soa") {
    run_aos_soa(st);
  } else if (args.workload == "permute_mix") {
    run_permute_mix(st);
  } else if (args.workload == "service") {
    run_service(st);
  } else {
    return usage(("unknown workload " + args.workload).c_str());
  }

  st.stamp << (st.stamp.str().empty() ? "" : ", ")
           << "\"copy_s\": " << json_number(copy_s)
           << ", \"workload_s\": " << json_number(seconds_since(t_workload));
  if (args.trace) {
    per_layer(st, copy_1t, copy_nt);
  } else {
    end_to_end(st);
  }
  print_stamp(st, copy_bytes, copy_1t, copy_nt);
  const bool correct = st.failed == 0 && st.attempted > 0;
  std::ostringstream o;
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << st.attempted << ", \"failed\": " << st.failed
    << ", \"metrics\": " << metrics_json(st.out) << "}";
  std::cout << o.str() << std::endl;
  return correct ? 0 : 1;
}
