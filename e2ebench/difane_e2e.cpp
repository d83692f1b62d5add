// difane_e2e — wall-clock end-to-end benchmark of the DIFANE simulator.
//
// One process runs one workload: it generates the policy and the flow list
// from --seed through the public API (campus_like -> TrafficGenerator),
// hands only those to Scenario, and repeats "construct Scenario, run it,
// check the outputs" for --seconds of wall time. End-to-end metrics are the
// medians over those repetitions, measured with tracing off.
//
// With --trace 1 the same repetitions run with spans recorded around every
// public call, and after the last repetition's outputs are checked the
// benchmark replays the workload's own headers into each layer's public
// functions (FlowTable::peek, AuthorityNode::handle, RuleTable::match_index,
// Partitioner::build, ...). Those probes run on end-of-run state only, so
// they cannot perturb the checked outputs. They print the per-layer metrics.
//
// Usage:
//   difane_e2e --workload NAME --seed N --seconds S --trace 0|1
//              [--size full|tiny] [--span-dir DIR]
//   difane_e2e --selftest
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The process exits 1 when any output check fails, 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "ctrlchan/channel.hpp"
#include "partition/partitioner.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workload/rulegen.hpp"
#include "workload/trafficgen.hpp"

using namespace difane;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double percentile_of(const std::vector<double>& xs, double p) {
  SampleSet s;
  for (double x : xs) s.add(x);
  return s.percentile(p);
}

double median_of(const std::vector<double>& xs) { return percentile_of(xs, 0.5); }

// The fastest decile of repetition run times: the time below which a tenth
// of the repetitions finished (nearest rank, so the fastest repetition when
// there are ten or fewer). Other tenants of a shared host slow a repetition
// down and never speed it up, in bursts of a fraction of a second to a
// minute; the fastest decile follows the program and not the bursts, where
// a median follows whichever bursts fell in the run (NOTES.md, "Host and
// noise").
double fast_decile_of(const std::vector<double>& seconds) {
  return percentile_of(seconds, 0.1);
}

// ---- workloads -------------------------------------------------------------

struct Workload {
  std::string name;
  std::size_t rules = 0;
  // Workers of the traced run's sharded rerun (engine.* metrics); 0 for
  // none. Timed repetitions run at params.threads.
  std::size_t probe_threads = 0;
  ScenarioParams params;
  TrafficParams traffic;
};

// Flow lengths of 2 or 3 packets: bounded Pareto(1, 2) scaled by mean/3 = 2,
// truncated.
void mice_lengths(TrafficParams& tp) {
  tp.mean_packets = 6.0;
  tp.max_packets = 2.0;
}

// Why each workload exists, and which layers it loads or bypasses, is
// recorded in BENCHMARK.json and e2ebench/NOTES.md.
std::optional<Workload> make_workload(const std::string& name, bool tiny) {
  Workload w;
  w.name = name;
  ScenarioParams& p = w.params;
  TrafficParams& tp = w.traffic;
  p.mode = Mode::kDifane;
  p.edge_switches = 8;
  tp.ingress_count = 8;
  // Tiny sizes keep every knob and shrink only the volume, for smoke tests.
  const double shrink = tiny ? 0.05 : 1.0;
  if (name == "zipf_cached") {
    w.rules = 20000;
    p.core_switches = 4;
    p.authority_count = 4;
    p.edge_cache_capacity = 4096;
    p.cache_strategy = CacheStrategy::kDependentSet;
    tp.flow_pool = 2000;
    tp.zipf_s = 1.2;
    tp.mean_packets = 50.0;
    tp.arrival_rate = 2000.0;
    tp.duration = 1.0 * shrink;
  } else if (name == "mice_40k") {
    w.rules = 20000;
    p.core_switches = 8;
    p.authority_count = 8;
    p.edge_cache_capacity = std::size_t{1} << 21;
    p.cache_strategy = CacheStrategy::kMicroflow;
    // The E11 arrival shape cut to 0.3 s: with a 0.88 s packet gap, all
    // ~39K flows are in flight at once by the end of arrivals. Zipf 1.05
    // repeats headers, so the cache band holds fewer distinct microflows
    // than that. A longer cut makes repetitions too long for a steady
    // fastest decile (NOTES.md).
    tp.flow_pool = 131072;
    tp.zipf_s = 1.05;
    tp.arrival_rate = 130000.0;
    tp.duration = 0.3 * shrink;
    mice_lengths(tp);
    tp.packet_gap = 0.88;
  } else if (name == "mice_evict_export") {
    w.rules = 20000;
    p.core_switches = 8;
    p.authority_count = 8;
    // 4096 cache entries across the 8 edges, so that most flows evict one.
    p.edge_cache_capacity = 512;
    p.cache_strategy = CacheStrategy::kMicroflow;
    p.reliable_ctrl = true;
    p.measurement.enabled = true;
    p.measurement.sample_prob = 1.0;
    p.measurement.flush_on_evict = true;
    tp.flow_pool = std::size_t{1} << 20;
    tp.zipf_s = 0.0;
    // Stay well below ~50K flows/s: there the edges' flow-mod apply
    // queues saturate and retransmits dominate (NOTES.md).
    tp.arrival_rate = 35000.0;
    tp.duration = 0.5 * shrink;
    mice_lengths(tp);
  } else if (name == "policy100k_burst") {
    w.rules = 100000;
    p.core_switches = 8;
    p.authority_count = 8;
    p.partitioner.capacity = 8192;
    p.edge_cache_capacity = std::size_t{1} << 16;
    p.cache_strategy = CacheStrategy::kMicroflow;
    p.burst = 32;
    // The timed repetitions run one thread. Every window barrier of the
    // sharded executor waits for its slowest worker, and on a shared host
    // that made threads=2 runs 3-4x slower for minutes at a time
    // (NOTES.md). The traced run measures the executor instead.
    w.probe_threads = 2;
    tp.flow_pool = 131072;
    tp.zipf_s = 1.05;
    tp.arrival_rate = 50000.0;
    tp.duration = 0.5 * shrink;
    mice_lengths(tp);
    tp.packet_gap = 0.88;
  } else {
    return std::nullopt;
  }
  if (tiny) w.rules /= 20;
  if (p.measurement.enabled) {
    p.measurement.export_horizon = tp.duration + 0.1;
  }
  return w;
}

// ---- output checks ---------------------------------------------------------

// What one timed run left behind, read outside the timed region.
struct RunRecord {
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t policy_drops = 0;
  std::int64_t in_flight = 0;
  bool verify_clean = false;
  std::string verify_summary;
  std::uint64_t digest = 0;
};

// FNV-1a over the counters that a (workload, seed) pair fixes exactly.
// Identical repeats of one workload must produce identical digests. The
// traced run's sharded rerun differs from threads=1 by design, so its
// checks leave the digest out.
std::uint64_t counter_digest(const ScenarioStats& s) {
  const std::uint64_t fields[] = {
      s.tracer.injected(), s.tracer.delivered(), s.tracer.dropped(),
      s.redirects,         s.cache_installs,     s.ctrl_transmissions,
      s.export_records,
  };
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint64_t f : fields) {
    for (int i = 0; i < 8; ++i) {
      h ^= (f >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

RunRecord record_run(Scenario& sc) {
  const ScenarioStats& s = sc.stats();
  RunRecord r;
  r.injected = s.tracer.injected();
  r.delivered = s.tracer.delivered();
  r.dropped = s.tracer.dropped();
  r.policy_drops = s.tracer.dropped(DropReason::kPolicyDrop);
  r.in_flight = s.tracer.in_flight();
  const VerifyReport report = sc.verify_installed();
  r.verify_clean = report.clean();
  r.verify_summary = report.summary();
  r.digest = counter_digest(s);
  return r;
}

// Every reason the record is wrong; empty means the run passed. The first
// repetition's digest is the reference for the later ones.
std::vector<std::string> check_record(const RunRecord& r,
                                      std::uint64_t reference_digest) {
  std::vector<std::string> failures;
  if (r.injected == 0) failures.push_back("no packets injected");
  if (r.in_flight != 0) {
    failures.push_back("in_flight = " + std::to_string(r.in_flight));
  }
  if (r.dropped != r.policy_drops) {
    failures.push_back(std::to_string(r.dropped - r.policy_drops) +
                       " drops not by a policy drop rule");
  }
  if (!r.verify_clean) {
    failures.push_back("verify_installed: " + r.verify_summary);
  }
  if (r.digest != reference_digest) {
    failures.push_back("counter digest differs from the first repetition");
  }
  return failures;
}

// Packets neither delivered nor dropped by policy; a failed check fails all.
std::uint64_t failed_packets(const RunRecord& r, bool checks_passed) {
  if (!checks_passed) return r.injected;
  return r.injected - std::min(r.injected, r.delivered + r.policy_drops);
}

// ---- spans -----------------------------------------------------------------

// In-memory span log: one span per public call made by the benchmark, with
// its parent; written out as JSON when the benchmark ends.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on), origin_(Clock::now()) {}
  void set_enabled(bool on) { on_ = on; }

  int open(const std::string& name, int parent) {
    if (!on_) return -1;
    spans_.push_back({name, parent, seconds_since(origin_), -1.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = seconds_since(origin_);
  }

  // Durations of every closed span called `name`.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const auto& s : spans_) {
      if (s.name == name && s.end >= 0.0) out.push_back(s.end - s.start);
    }
    return out;
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                   "\"start_s\": %.9f, \"end_s\": %.9f}%s\n",
                   i, s.name.c_str(), s.parent, s.start, s.end,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double start;
    double end;
  };
  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

class SpanScope {
 public:
  SpanScope(SpanLog& log, const std::string& name, int parent)
      : log_(log), id_(log.open(name, parent)) {}
  ~SpanScope() { log_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

// ---- metric printer --------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json "end_to_end" (test_e2ebench.py checks it).
constexpr MetricSpec kEndToEnd[] = {
    {"pkts_per_s", "pkts/s"},
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"ok_frac", "ratio"},
};

// Must match BENCHMARK.json "per_layer".
constexpr MetricSpec kPerLayer[] = {
    {"switchsim.peek_ns_p50", "ns"},
    {"switchsim.peek_ns_p99", "ns"},
    {"switchsim.cache_entries_final", "count"},
    {"switchsim.lookups_per_pkt", "ratio"},
    {"switchsim.evictions", "count"},
    {"switchsim.expirations", "count"},
    {"switchsim.install_bulk_s", "s"},
    {"partition.build_s", "s"},
    {"partition.partitions", "count"},
    {"partition.dup_ratio", "ratio"},
    {"core.authority_handle_ns_p50", "ns"},
    {"core.authority_handle_ns_p99", "ns"},
    {"core.cache_hit_frac", "ratio"},
    {"core.redirects", "count"},
    {"core.cache_installs", "count"},
    {"core.queue_rejects", "count"},
    {"flowspace.match_index_ns", "ns"},
    {"netsim.events_per_pkt", "ratio"},
    {"netsim.event_ns", "ns"},
    {"netsim.rss_bytes_per_pkt", "B/pkt"},
    {"ctrlchan.transmissions", "count"},
    {"ctrlchan.retransmits", "count"},
    {"ctrlchan.ack_frac", "ratio"},
    {"ctrlchan.send_ns", "ns"},
    {"telemetry.sampled_packets", "count"},
    {"telemetry.export_records", "count"},
    {"telemetry.export_batches", "count"},
    {"engine.parallel_speedup", "x"},
    {"engine.shards_stolen", "count"},
    {"span.policy_gen_s", "s"},
    {"span.traffic_gen_s", "s"},
    {"span.scenario_build_s", "s"},
    {"span.scenario_run_s", "s"},
    {"span.verify_s", "s"},
    {"est.lookup_share", "ratio"},
    {"est.authority_share", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

// Prints the result line. Every metric of `specs` must be in `values`;
// a missing one is a bug in the benchmark, reported and returned as false.
template <std::size_t N>
bool print_result(const MetricSpec (&specs)[N],
                  const std::map<std::string, double>& values, bool correct,
                  std::uint64_t attempted, std::uint64_t failed) {
  std::string metrics;
  for (const auto& spec : specs) {
    const auto it = values.find(spec.name);
    if (it == values.end()) {
      std::fprintf(stderr, "difane_e2e: metric %s was not measured\n", spec.name);
      return false;
    }
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", spec.name, it->second, spec.unit);
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted, failed, metrics.c_str());
  std::fflush(stdout);
  return true;
}

// ---- measurement -----------------------------------------------------------

double rss_high_water_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

struct Rep {
  double setup_s = 0.0;
  double run_s = 0.0;
  double check_s = 0.0;
  bool traced = false;
  RunRecord record;
  std::vector<std::string> failures;
};

// Time each call of `fn(i)` for i in [0, n) until `budget_s` is spent; the
// per-call wall times in nanoseconds.
SampleSet time_calls(std::size_t n, double budget_s,
                     const std::function<void(std::size_t)>& fn) {
  SampleSet ns;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    const auto t0 = Clock::now();
    fn(i);
    ns.add(std::chrono::duration<double, std::nano>(Clock::now() - t0).count());
    if (i % 64 == 63 && seconds_since(start) > budget_s) break;
  }
  return ns;
}

// Up to `cap` flows spread evenly over the schedule.
std::vector<const FlowSpec*> sample_flows(const std::vector<FlowSpec>& flows,
                                          std::size_t cap) {
  std::vector<const FlowSpec*> out;
  const std::size_t stride = std::max<std::size_t>(1, flows.size() / cap);
  for (std::size_t i = 0; i < flows.size() && out.size() < cap; i += stride) {
    out.push_back(&flows[i]);
  }
  return out;
}

double last_arrival(const std::vector<FlowSpec>& flows) {
  double t = 0.0;
  for (const auto& f : flows) {
    t = std::max(t, f.start + static_cast<double>(f.packets - 1) * f.packet_gap);
  }
  return t;
}

// Per-layer replays on the end-of-run state of `sc`. Runs after every timed
// repetition has been checked.
// Returns false when the sharded rerun fails its output checks.
bool probe_layers(const Workload& w, const RuleTable& policy,
                  const std::vector<FlowSpec>& flows, Scenario& sc,
                  double run_wall_s, std::map<std::string, double>& m) {
  Network& net = sc.net();
  const ScenarioStats& s = sc.stats();
  const double injected = static_cast<double>(s.tracer.injected());
  const auto probe_flows = sample_flows(flows, 8192);
  const double now = last_arrival(flows);

  // switchsim: ingress lookups against the end-of-run tables.
  const SampleSet peek = time_calls(probe_flows.size(), 1.0, [&](std::size_t i) {
    const FlowSpec& f = *probe_flows[i];
    const FlowEntry* e =
        net.sw(sc.ingress_switch(f.ingress_index)).table().peek(f.header, now);
    asm volatile("" : : "r"(e) : "memory");
  });
  m["switchsim.peek_ns_p50"] = peek.percentile(0.5);
  m["switchsim.peek_ns_p99"] = peek.percentile(0.99);
  double cache_entries = 0.0;
  for (std::uint32_t i = 0; i < w.params.edge_switches; ++i) {
    cache_entries += static_cast<double>(
        net.sw(sc.ingress_switch(i)).table().size(Band::kCache));
  }
  m["switchsim.cache_entries_final"] = cache_entries;
  double lookups = 0.0, evictions = 0.0, expirations = 0.0;
  SwitchId biggest_authority = 0;
  std::size_t biggest = 0;
  double authority_entries = 0.0;
  for (SwitchId id = 0; id < net.switch_count(); ++id) {
    const FlowTable& t = net.sw(id).table();
    const FlowTableStats& ts = t.stats();
    for (std::uint64_t h : ts.hits_per_band) lookups += static_cast<double>(h);
    lookups += static_cast<double>(ts.misses);
    evictions += static_cast<double>(ts.evictions);
    expirations += static_cast<double>(ts.expirations);
    authority_entries += static_cast<double>(t.size(Band::kAuthority));
    if (t.size(Band::kAuthority) > biggest) {
      biggest = t.size(Band::kAuthority);
      biggest_authority = id;
    }
  }
  m["switchsim.lookups_per_pkt"] = lookups / injected;
  m["switchsim.evictions"] = evictions;
  m["switchsim.expirations"] = expirations;
  {
    std::vector<const Rule*> rules;
    for (const FlowEntry& e : net.sw(biggest_authority).table().entries(Band::kAuthority)) {
      rules.push_back(&e.rule);
    }
    std::vector<double> walls;
    for (int r = 0; r < 3; ++r) {
      FlowTable fresh(w.params.edge_cache_capacity);
      const auto t0 = Clock::now();
      fresh.install_bulk(rules, Band::kAuthority, 0.0);
      walls.push_back(seconds_since(t0));
    }
    m["switchsim.install_bulk_s"] = median_of(walls);
  }

  // partition: the partitioner alone, with the workload's parameters.
  {
    const auto t0 = Clock::now();
    const PartitionPlan plan =
        Partitioner(w.params.partitioner).build(policy, w.params.authority_count);
    m["partition.build_s"] = seconds_since(t0);
    m["partition.partitions"] = static_cast<double>(plan.partitions().size());
    m["partition.dup_ratio"] = authority_entries / static_cast<double>(policy.size());
  }

  // core: authority resolution of the workload's headers at their primary.
  DifaneController& ctl = *sc.difane();
  const SampleSet handle = time_calls(probe_flows.size(), 1.0, [&](std::size_t i) {
    const BitVec& h = probe_flows[i]->header;
    const Partition& part = ctl.plan().find(h);
    AuthorityNode* node = ctl.node_at(ctl.authority_switch(part.primary));
    if (node != nullptr) {
      auto result = node->handle(h);
      asm volatile("" : : "r"(&result) : "memory");
    }
  });
  m["core.authority_handle_ns_p50"] = handle.percentile(0.5);
  m["core.authority_handle_ns_p99"] = handle.percentile(0.99);
  m["core.cache_hit_frac"] = s.cache_hit_fraction();
  m["core.redirects"] = static_cast<double>(s.redirects);
  m["core.cache_installs"] = static_cast<double>(s.cache_installs);
  m["core.queue_rejects"] = static_cast<double>(s.queue_rejects);

  // flowspace: the linear reference match over the full policy.
  const SampleSet match = time_calls(probe_flows.size(), 0.5, [&](std::size_t i) {
    auto idx = policy.match_index(probe_flows[i]->header);
    asm volatile("" : : "r"(&idx) : "memory");
  });
  m["flowspace.match_index_ns"] = match.median();

  // netsim: a bare engine dispatching as many no-op events as the run did.
  {
    const std::uint64_t events =
        std::min<std::uint64_t>(std::max<std::uint64_t>(net.engine().executed(), 1000),
                                std::uint64_t{4} << 20);
    Rng rng(w.traffic.seed);
    std::vector<double> when(events);
    for (auto& t : when) t = rng.uniform01();
    Engine engine;
    std::uint64_t fired = 0;
    const auto t0 = Clock::now();
    for (double t : when) engine.at(t, [&fired]() { ++fired; });
    engine.run();
    m["netsim.event_ns"] = seconds_since(t0) * 1e9 / static_cast<double>(fired);
  }
  m["netsim.rss_bytes_per_pkt"] = m["peak_rss_mib"] * 1048576.0 / injected;

  // ctrlchan: a reliable channel driving a fresh switch's agent with the
  // flow-mods this run installed, one at a time, each drained to its ack.
  {
    std::vector<FlowMod> mods;
    for (std::uint32_t i = 0; i < w.params.edge_switches && mods.size() < 8192; ++i) {
      for (const FlowEntry& e : net.sw(sc.ingress_switch(i)).table().entries(Band::kCache)) {
        if (mods.size() == 8192) break;
        FlowMod mod;
        mod.xid = static_cast<Xid>(mods.size());
        mod.rule = e.rule;
        mod.idle_timeout = e.idle_timeout;
        mod.guards = e.guards;
        mods.push_back(std::move(mod));
      }
    }
    Engine engine;
    Switch fresh(0, w.params.edge_cache_capacity);
    SwitchAgent agent(engine, fresh);
    ChannelReliability rel;
    rel.enabled = true;
    ControlChannel channel(engine, agent, w.params.link.latency, rel);
    const auto t0 = Clock::now();
    for (auto& mod : mods) {
      channel.send(std::move(mod));
      engine.run();
    }
    m["ctrlchan.send_ns"] =
        mods.empty() ? 0.0 : seconds_since(t0) * 1e9 / static_cast<double>(mods.size());
  }
  m["ctrlchan.transmissions"] = static_cast<double>(s.ctrl_transmissions);
  m["ctrlchan.retransmits"] = static_cast<double>(s.ctrl_retransmits);
  m["ctrlchan.ack_frac"] =
      s.ctrl_transmissions == 0
          ? 0.0
          : static_cast<double>(s.ctrl_acks) / static_cast<double>(s.ctrl_transmissions);

  m["telemetry.sampled_packets"] = static_cast<double>(s.telemetry_sampled_packets);
  m["telemetry.export_records"] = static_cast<double>(s.export_records);
  m["telemetry.export_batches"] = static_cast<double>(s.export_batches);

  // engine: the same flows through the sharded executor, for the wall
  // ratio against the timed runs. Its results differ from threads=1 (cross-
  // shard dispatches wait for window boundaries), so it gets the output
  // checks on its own.
  m["netsim.events_per_pkt"] = static_cast<double>(net.engine().executed()) / injected;
  m["engine.parallel_speedup"] = 1.0;
  m["engine.shards_stolen"] = 0.0;
  bool sharded_ok = true;
  if (w.probe_threads > 1) {
    ScenarioParams sharded = w.params;
    sharded.threads = w.probe_threads;
    Scenario par(policy, sharded);
    const auto t0 = Clock::now();
    par.run(flows);
    m["engine.parallel_speedup"] = run_wall_s / seconds_since(t0);
    m["engine.shards_stolen"] = static_cast<double>(par.shards_stolen());
    const RunRecord r = record_run(par);
    for (const auto& f : check_record(r, r.digest)) {
      std::fprintf(stderr, "difane_e2e: %s sharded rerun: %s\n", w.name.c_str(), f.c_str());
      sharded_ok = false;
    }
  }

  m["est.lookup_share"] = lookups * m["switchsim.peek_ns_p50"] * 1e-9 / run_wall_s;
  m["est.authority_share"] =
      static_cast<double>(s.redirects) * m["core.authority_handle_ns_p50"] * 1e-9 /
      run_wall_s;
  return sharded_ok;
}

// ---- self-test of the benchmark's own checks -------------------------------

int selftest() {
  int bad = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++bad;
  };
  RunRecord good;
  good.injected = 1000;
  good.delivered = 700;
  good.dropped = 300;
  good.policy_drops = 300;
  good.in_flight = 0;
  good.verify_clean = true;
  good.digest = 42;
  expect(check_record(good, 42).empty(), "clean record passes");
  expect(failed_packets(good, true) == 0, "clean record fails no packet");

  RunRecord r = good;
  r.in_flight = 1;
  r.delivered -= 1;
  expect(!check_record(r, 42).empty(), "nonzero in_flight is rejected");
  expect(failed_packets(r, false) == r.injected, "a failed check fails every packet");
  r = good;
  r.policy_drops -= 5;
  expect(!check_record(r, 42).empty(), "a non-policy drop is rejected");
  r = good;
  r.verify_clean = false;
  expect(!check_record(r, 42).empty(), "a dirty verify_installed is rejected");
  r = good;
  r.digest = 43;
  expect(!check_record(r, 42).empty(), "a changed digest is rejected");
  r = good;
  r.injected = 0;
  expect(!check_record(r, 42).empty(), "an empty run is rejected");

  ScenarioStats a, b;
  b.cache_installs = 1;
  expect(counter_digest(a) != counter_digest(b), "digest covers cache_installs");
  b = ScenarioStats{};
  b.export_records = 1;
  expect(counter_digest(a) != counter_digest(b), "digest covers export_records");

  std::map<std::string, double> partial = {{"pkts_per_s", 1.0}};
  std::printf("(a refused print follows)\n");
  expect(!print_result(kEndToEnd, partial, true, 1, 0),
         "printer refuses a result with a metric missing");
  std::printf("selftest: %s\n", bad == 0 ? "passed" : "FAILED");
  return bad == 0 ? 0 : 1;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool selftest = false;
  std::string span_dir;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return std::nullopt;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0)) return std::nullopt;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return std::nullopt;
      a.trace = v == "1";
    } else if (flag == "--size") {
      if (v != "full" && v != "tiny") return std::nullopt;
      a.tiny = v == "tiny";
    } else if (flag == "--span-dir") {
      a.span_dir = v;
    } else {
      return std::nullopt;
    }
  }
  if (!a.selftest && a.workload.empty()) return std::nullopt;
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = parse_args(argc, argv);
  if (!parsed) {
    std::fprintf(stderr,
                 "usage: difane_e2e --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--size full|tiny] [--span-dir DIR]\n"
                 "       difane_e2e --selftest\n");
    return 2;
  }
  const Args& args = *parsed;
  if (args.selftest) return selftest();
  auto workload = make_workload(args.workload, args.tiny);
  if (!workload) {
    std::fprintf(stderr, "difane_e2e: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Workload& w = *workload;
  w.traffic.seed = args.seed;
  w.params.measurement.seed = args.seed;

  SpanLog spans(args.trace);
  RuleTable policy;
  {
    const SpanScope span(spans, "policy_gen", -1);
    policy = campus_like(w.rules, args.seed);
  }
  std::vector<FlowSpec> flows;
  {
    const SpanScope span(spans, "traffic_gen", -1);
    TrafficGenerator gen(policy, w.traffic);
    flows = gen.generate();
  }

  // Timed repetitions: at least three, so the digest check has repeats,
  // then more while the next one is expected to end no later than half a
  // repetition past --seconds, so a run lasts about --seconds even when one
  // repetition takes several.
  // A traced run records spans on every other repetition only, so the two
  // halves give the tracing overhead. The scenario of the last repetition
  // stays alive for the layer probes.
  constexpr std::size_t kMinReps = 3;
  std::vector<Rep> reps;
  std::vector<double> rep_walls;
  std::unique_ptr<Scenario> last;
  const auto measure_start = Clock::now();
  while (reps.size() < kMinReps ||
         seconds_since(measure_start) + median_of(rep_walls) / 2 < args.seconds) {
    const auto rep_start = Clock::now();
    last.reset();
    Rep rep;
    rep.traced = args.trace && reps.size() % 2 == 0;
    spans.set_enabled(rep.traced);
    const SpanScope rep_span(spans, "rep", -1);
    RuleTable copy = policy;
    {
      const SpanScope span(spans, "scenario_build", rep_span.id());
      const auto t0 = Clock::now();
      last = std::make_unique<Scenario>(std::move(copy), w.params);
      rep.setup_s = seconds_since(t0);
    }
    {
      const SpanScope span(spans, "scenario_run", rep_span.id());
      const auto t0 = Clock::now();
      last->run(flows);
      rep.run_s = seconds_since(t0);
    }
    {
      const SpanScope span(spans, "verify", rep_span.id());
      const auto t0 = Clock::now();
      rep.record = record_run(*last);
      rep.check_s = seconds_since(t0);
    }
    const std::uint64_t reference =
        reps.empty() ? rep.record.digest : reps.front().record.digest;
    rep.failures = check_record(rep.record, reference);
    std::fprintf(stderr, "%s rep %zu%s: setup %.4f s, run %.4f s (%.0f pkts/s), checks %.4f s\n",
                 w.name.c_str(), reps.size(), rep.traced ? " traced" : "", rep.setup_s,
                 rep.run_s, static_cast<double>(rep.record.injected) / rep.run_s,
                 rep.check_s);
    for (const auto& f : rep.failures) {
      std::fprintf(stderr, "difane_e2e: %s rep %zu: %s\n", w.name.c_str(),
                   reps.size(), f.c_str());
    }
    reps.push_back(std::move(rep));
    rep_walls.push_back(seconds_since(rep_start));
  }
  spans.set_enabled(args.trace);
  const double peak_rss = rss_high_water_mib();

  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> setup, run;
  for (const Rep& rep : reps) {
    attempted += rep.record.injected;
    failed += failed_packets(rep.record, rep.failures.empty());
    setup.push_back(rep.setup_s);
    run.push_back(rep.run_s);
  }
  attempted = std::max<std::uint64_t>(attempted, 1);
  const bool correct = failed == 0;
  const double fail_frac = static_cast<double>(failed) / static_cast<double>(attempted);

  std::map<std::string, double> m;
  // Every repetition injects the same packets (the digest check), so the
  // fastest decile of run walls gives the fastest decile of packets/s.
  m["pkts_per_s"] =
      static_cast<double>(reps.front().record.injected) / fast_decile_of(run);
  m["setup_s"] = median_of(setup);
  m["peak_rss_mib"] = peak_rss;
  m["ok_frac"] = 1.0 - fail_frac;
  std::printf(
      "%s seed=%" PRIu64 " reps=%zu packets/rep=%" PRIu64
      ": pkts_per_s=%.0f pkts/s  setup_s=%.4f s  peak_rss_mib=%.1f MiB  "
      "fail_frac=%.6f ratio (%" PRIu64 "/%" PRIu64 ")\n",
      w.name.c_str(), args.seed, reps.size(), reps.front().record.injected,
      m["pkts_per_s"], m["setup_s"], peak_rss, fail_frac, failed, attempted);

  if (!args.trace) {
    if (!print_result(kEndToEnd, m, correct, attempted, failed)) return 3;
    return correct ? 0 : 1;
  }

  // Traced run: the per-layer metrics, from the spans and from replays.
  std::vector<double> traced_run, untraced_run;
  for (const Rep& rep : reps) {
    (rep.traced ? traced_run : untraced_run).push_back(rep.run_s);
  }
  const double run_wall = median_of(run);
  m["trace.overhead_frac"] = median_of(traced_run) / median_of(untraced_run) - 1.0;
  m["span.policy_gen_s"] = median_of(spans.durations("policy_gen"));
  m["span.traffic_gen_s"] = median_of(spans.durations("traffic_gen"));
  m["span.scenario_build_s"] = median_of(spans.durations("scenario_build"));
  m["span.scenario_run_s"] = median_of(spans.durations("scenario_run"));
  m["span.verify_s"] = median_of(spans.durations("verify"));
  bool probes_ok = false;
  {
    const SpanScope span(spans, "probe_layers", -1);
    probes_ok = probe_layers(w, policy, flows, *last, run_wall, m);
  }

  if (!args.span_dir.empty()) {
    const std::string path = args.span_dir + "/spans_" + w.name + "_seed" +
                             std::to_string(args.seed) + ".json";
    if (!spans.write(path)) {
      std::fprintf(stderr, "difane_e2e: cannot write %s\n", path.c_str());
    }
  }
  const bool traced_correct = correct && probes_ok;
  if (!print_result(kPerLayer, m, traced_correct, attempted, failed)) return 3;
  return traced_correct ? 0 : 1;
}
