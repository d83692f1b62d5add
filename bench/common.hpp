// Shared harness for the experiment binaries. Each bench binary regenerates
// one table/figure of the DIFANE evaluation (see DESIGN.md's experiment
// index and EXPERIMENTS.md for paper-vs-measured) and — via the unified
// bench::Args CLI — emits a schema-stable BENCH_<id>.json report that
// tools/bench_all merges into a perf trajectory and tools/bench_compare
// gates on.
//
// Every bench accepts the same flags:
//   --json <path>   write the merged MetricsReport as JSON
//   --reps N        repeat the measurement N times (seeds base, base+1, ...)
//   --seed S        override the bench's default base seed
//   --quick         reduced problem sizes for CI smoke runs
#pragma once

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/system.hpp"
#include "obs/report.hpp"
#include "util/table.hpp"
#include "workload/rulegen.hpp"
#include "workload/trafficgen.hpp"

namespace difane::bench {

// ---------------------------------------------------------------------------
// Unified CLI

struct Args {
  std::string bench_id;
  std::string json_path;     // empty => no JSON export
  int reps = 1;
  std::uint64_t seed = 0;    // base seed (bench default unless --seed)
  bool quick = false;
  // Worker threads for cell-level parallelism (run_cells below): independent
  // sweep cells execute concurrently, results are emitted in the original
  // serial order, so every deterministic metric is identical at any thread
  // count — check.sh gates on exactly that.
  int threads = 1;
  // Arrivals one ingress event drains, for every Scenario the bench builds
  // (0 means 1). Deterministic metrics are burst-invariant by contract;
  // check.sh --burst gates bench_all at 0 vs 32 on exactly that.
  int burst = 0;

  // Sweep helper: full-size value normally, reduced value under --quick.
  template <typename T>
  T pick(T full, T quick_value) const {
    return quick ? quick_value : full;
  }
};

[[noreturn]] inline void usage(const char* bench_id, int exit_code) {
  std::fprintf(exit_code == 0 ? stdout : stderr,
               "usage: %s [--json <path>] [--reps N] [--seed S] [--quick] "
               "[--threads N] [--burst N]\n"
               "  --json <path>  write BENCH_%s-style JSON report to <path>\n"
               "  --reps N       repetitions (metrics averaged; seeds base..base+N-1)\n"
               "  --seed S       override the base seed\n"
               "  --quick        reduced problem sizes (CI smoke mode)\n"
               "  --threads N    run independent sweep cells on N worker threads\n"
               "                 (deterministic metrics are thread-count invariant)\n"
               "  --burst N      drain up to N arrivals per ingress event\n"
               "                 (0 means 1; deterministic metrics are\n"
               "                 burst-invariant)\n",
               bench_id, bench_id);
  std::exit(exit_code);
}

inline Args parse_args(int argc, char** argv, const char* bench_id,
                       std::uint64_t default_seed) {
  Args args;
  args.bench_id = bench_id;
  args.seed = default_seed;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", bench_id, arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--json") {
      args.json_path = next();
    } else if (arg == "--reps") {
      args.reps = std::atoi(next());
      if (args.reps < 1) {
        std::fprintf(stderr, "%s: --reps must be >= 1\n", bench_id);
        std::exit(2);
      }
    } else if (arg == "--seed") {
      args.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--quick") {
      args.quick = true;
    } else if (arg == "--threads") {
      args.threads = std::atoi(next());
      if (args.threads < 1) {
        std::fprintf(stderr, "%s: --threads must be >= 1\n", bench_id);
        std::exit(2);
      }
    } else if (arg == "--burst") {
      args.burst = std::atoi(next());
      if (args.burst < 0) {
        std::fprintf(stderr, "%s: --burst must be >= 0\n", bench_id);
        std::exit(2);
      }
    } else if (arg == "--help" || arg == "-h") {
      usage(bench_id, 0);
    } else {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", bench_id, arg.c_str());
      usage(bench_id, 2);
    }
  }
  return args;
}

// One repetition's view: the seed to use, and whether to print the human
// tables (first rep only — later reps exist to average metrics, not to
// repeat console output).
struct BenchRep {
  std::uint64_t seed;
  int index;
  bool verbose;
  obs::MetricsReport& report;

  void set(const std::string& name, double value) { report.set(name, value); }
};

// Run `body` args.reps times, average the collected metrics, export JSON if
// requested. Returns the process exit code.
template <typename Fn>
int run_bench(const Args& args, Fn&& body) {
  std::printf("[%s] seed=%llu reps=%d%s\n", args.bench_id.c_str(),
              static_cast<unsigned long long>(args.seed), args.reps,
              args.quick ? " quick" : "");
  try {
    std::vector<obs::MetricsReport> reps;
    for (int r = 0; r < args.reps; ++r) {
      obs::MetricsReport report(args.bench_id);
      BenchRep rep{args.seed + static_cast<std::uint64_t>(r), r, r == 0, report};
      const auto t0 = std::chrono::steady_clock::now();
      body(rep);
      report.wall_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      reps.push_back(std::move(report));
    }
    obs::MetricsReport merged = obs::merge_reps(reps);
    merged.params["base_seed"] = obs::Json(static_cast<double>(args.seed));
    merged.params["reps"] = obs::Json(args.reps);
    merged.params["quick"] = obs::Json(args.quick);
    if (!args.json_path.empty()) {
      merged.write_json_file(args.json_path);
      std::printf("[%s] wrote %s (%zu metrics)\n", args.bench_id.c_str(),
                  args.json_path.c_str(), merged.metrics.size());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[%s] failed: %s\n", args.bench_id.c_str(), e.what());
    return 1;
  }
}

// Run `count` independent sweep cells, cell `i` via body(i), on up to
// `threads` worker threads (an atomic work index hands out cells). Each cell
// must be self-contained — its own Scenario, workload, and result slot,
// indexed by `i` — and must not print or touch shared report state; callers
// emit tables and metrics afterwards, walking the results in serial order,
// which keeps every deterministic metric byte-identical at any thread
// count. threads <= 1 degrades to a plain serial loop on this thread.
inline void run_cells(int threads, std::size_t count,
                      const std::function<void(std::size_t)>& body) {
  const std::size_t workers =
      std::min<std::size_t>(threads < 1 ? 1 : static_cast<std::size_t>(threads),
                            count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&]() {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        body(i);
      }
    });
  }
  for (auto& t : pool) t.join();
}

// Stable metric-key suffix for a sweep point: "_at_100000" etc. Integral
// values render without a fractional part (obs::format_number).
inline std::string tag(const std::string& prefix, double value) {
  std::string t = obs::format_number(value);
  for (auto& c : t) {
    if (c == '.' || c == '-' || c == '+') c = '_';
  }
  return prefix + "_" + t;
}

// ---------------------------------------------------------------------------
// Scenario/workload builders shared by the experiment harnesses.

// A pure flow-setup storm: single-packet flows, (almost) all distinct, so
// every arrival exercises the miss path. This is the workload behind the
// paper's throughput comparison.
inline std::vector<FlowSpec> setup_storm(const RuleTable& policy, double rate,
                                         double duration, std::uint64_t seed,
                                         std::uint32_t ingress_count = 4) {
  TrafficParams tp;
  tp.seed = seed;
  tp.flow_pool = 1u << 21;
  tp.zipf_s = 0.0;
  tp.arrival_rate = rate;
  tp.duration = duration;
  tp.mean_packets = 1.0;
  tp.max_packets = 1.0;
  tp.ingress_count = ingress_count;
  TrafficGenerator gen(policy, tp);
  return gen.generate();
}

// Zipf-popular repeated traffic: the cache-effectiveness workload.
inline std::vector<FlowSpec> zipf_traffic(const RuleTable& policy, double rate,
                                          double duration, std::size_t pool,
                                          double skew, std::uint64_t seed,
                                          double mean_packets = 5.0,
                                          std::uint32_t ingress_count = 4) {
  TrafficParams tp;
  tp.seed = seed;
  tp.flow_pool = pool;
  tp.zipf_s = skew;
  tp.arrival_rate = rate;
  tp.duration = duration;
  tp.mean_packets = mean_packets;
  tp.ingress_count = ingress_count;
  TrafficGenerator gen(policy, tp);
  return gen.generate();
}

// Heavy-tail workload for the elephant-aware rows (E6/E7): Zipf-α base
// traffic, optionally shaped into a flash crowd, a port-scan mice storm, or
// diurnal churn. Window positions scale with the duration so quick and full
// runs exercise the same phases.
//
// Flows are long-lived and sparse: 40ms between packets, bounded-Pareto
// sizes up to 200 packets. This is the regime the elephant policy targets —
// an idle timeout below the packet gap drops the entry between packets of
// the SAME flow, so a plain cache pays a miss per packet on every flow the
// timeout cannot bridge, while detected elephants ride a pin that does.
inline TrafficParams heavy_tail_params(std::uint64_t seed, double alpha,
                                       double rate, double duration,
                                       std::size_t pool, TrafficMode mode) {
  TrafficParams tp;
  tp.seed = seed;
  tp.flow_pool = pool;
  tp.zipf_s = alpha;
  tp.arrival_rate = rate;
  tp.duration = duration;
  tp.mean_packets = 4.0;
  tp.max_packets = 200.0;
  tp.packet_gap = 0.04;
  tp.ingress_count = 2;
  tp.mode = mode;
  switch (mode) {
    case TrafficMode::kPoissonZipf:
      break;
    case TrafficMode::kFlashCrowd:
      tp.flash_at = 0.4 * duration;
      tp.flash_duration = 0.2 * duration;
      tp.flash_rate_mult = 8.0;
      tp.flash_targets = 6;
      tp.flash_target_prob = 0.9;
      break;
    case TrafficMode::kMiceStorm:
      tp.storm_at = 0.4 * duration;
      tp.storm_duration = 0.3 * duration;
      tp.storm_rate = 1.5 * rate;
      break;
    case TrafficMode::kDiurnal:
      tp.diurnal_period = duration / 3.0;
      tp.diurnal_amplitude = 0.8;
      tp.diurnal_rotate = pool / 8;
      break;
  }
  return tp;
}

// The elephant-policy configuration the heavy-tail rows measure (ON) against
// the plain short-timeout cache (OFF). Shared so E6 and E7 gate the same
// policy point.
inline ElephantParams elephant_policy(bool on) {
  ElephantParams e;
  e.enabled = on;
  // The tracker must out-size the warm header working set or mid-band flows
  // get evicted between visits and never accumulate a guaranteed count.
  e.tracker_capacity = 2048;
  e.threshold = 8;
  // Differentiated leashes against the 35ms base the OFF rows run with: a
  // proven elephant's pin (45ms) bridges the workload's 40ms packet gap, so
  // a long flow stops paying a miss per packet; unproven flows get a 5ms
  // leash that covers nothing but an immediate burst.
  e.idle_timeout = 0.045;
  e.probation_idle_timeout = 0.005;
  e.proactive = true;
  e.mice_bypass = on;
  e.mice_min_packets = 2;
  return e;
}

// Shared execution knobs every Scenario-building bench applies right after
// assembling its params: currently just the burst-mode data plane. Kept in
// one helper so a future knob reaches all benches in one place.
inline void apply_exec_args(ScenarioParams& params, const Args& args) {
  params.burst = static_cast<std::size_t>(args.burst);
}

inline ScenarioParams difane_params(std::uint32_t authorities,
                                    CacheStrategy strategy,
                                    std::size_t cache_capacity = 1u << 20) {
  ScenarioParams params;
  params.mode = Mode::kDifane;
  params.edge_switches = 4;
  params.core_switches = std::max<std::size_t>(2, authorities);
  params.authority_count = authorities;
  params.edge_cache_capacity = cache_capacity;
  params.partitioner.capacity = 1000;
  params.cache_strategy = strategy;
  return params;
}

inline ScenarioParams nox_params(std::size_t cache_capacity = 1u << 20) {
  ScenarioParams params;
  params.mode = Mode::kNox;
  params.edge_switches = 4;
  params.core_switches = 2;
  params.edge_cache_capacity = cache_capacity;
  return params;
}

inline void print_header(const char* experiment, const char* paper_analogue,
                         const char* expectation) {
  std::printf("==========================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper analogue : %s\n", paper_analogue);
  std::printf("expected shape : %s\n", expectation);
  std::printf("==========================================================\n");
}

}  // namespace difane::bench
