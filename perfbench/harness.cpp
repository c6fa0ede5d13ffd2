// Benchmark repetitions: for each listed seed, builds the workload's
// config, runs it once through brb::core::run_scenario and prints one
// JSON line of host timings, simulated counters, the sim digest and
// invariant checks. perfbench/run.py drives it; see perfbench/README.md.
//
//   perfbench_harness --workload NAME --seeds N[,N...] --tasks N
//   perfbench_harness_traced ... --trace-syms NM_FILE   (adds "layers")
#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <sstream>
#include <string>
#include <vector>

#include "bench_core.hpp"

#ifdef PERFBENCH_TRACED
#include "trace_hooks.hpp"
#endif

namespace {

using Clock = std::chrono::steady_clock;

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
  }
  return out;
}

struct Args {
  std::string workload;
  std::vector<std::uint64_t> seeds;
  std::uint64_t tasks = 0;
  std::string trace_syms;
};

std::vector<std::uint64_t> parse_seeds(const std::string& list) {
  std::vector<std::uint64_t> seeds;
  std::istringstream in(list);
  for (std::string item; std::getline(in, item, ',');) seeds.push_back(std::stoull(item));
  return seeds;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seeds") {
      args.seeds = parse_seeds(value);
    } else if (flag == "--tasks") {
      args.tasks = std::stoull(value);
    } else if (flag == "--trace-syms") {
      args.trace_syms = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (argc % 2 == 0 || args.workload.empty() || args.seeds.empty() || args.tasks == 0) {
    throw std::invalid_argument(
        "usage: --workload NAME --seeds N[,N...] --tasks N [--trace-syms F]");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t planned_tasks = 0;
  try {
    const Args args = parse_args(argc, argv);
    const perfbench::Workload& workload = perfbench::find_workload(args.workload);

#ifdef PERFBENCH_TRACED
    if (args.trace_syms.empty()) throw std::invalid_argument("traced build needs --trace-syms");
    perfbench::trace_load(args.trace_syms);
#else
    if (!args.trace_syms.empty()) throw std::invalid_argument("untraced build: no --trace-syms");
#endif

    // One simulation per listed seed, in order. Simulations after the
    // first reuse the heap the earlier ones grew.
    for (const std::uint64_t seed : args.seeds) {
      brb::core::ScenarioConfig config = perfbench::make_config(workload, seed, args.tasks);
      planned_tasks = config.num_tasks;

      // Only the first and last completion are timestamped: one branch
      // per task on the hot path.
      std::uint64_t seen = 0;
      Clock::time_point first_done;
      Clock::time_point last_done;
      config.on_task_complete = [&](const brb::workload::TaskSpec&, brb::sim::Duration) {
        ++seen;
        if (seen == 1) first_done = Clock::now();
        if (seen == planned_tasks) last_done = Clock::now();
      };
#ifdef PERFBENCH_TRACED
      perfbench::trace_reset();
#endif
      const Clock::time_point start = Clock::now();
      const brb::core::RunResult r = brb::core::run_scenario(config);
      const Clock::time_point end = Clock::now();

      const std::vector<std::string> violations =
          perfbench::check_invariants(workload, config, r);
      rusage usage{};
      getrusage(RUSAGE_SELF, &usage);

      std::ostringstream out;
      out.precision(17);
      out << std::boolalpha;
      char digest[17];
      std::snprintf(digest, sizeof digest, "%016" PRIx64, perfbench::sim_digest(r));
      const double completion_span = seen > 1 ? seconds(first_done, last_done) : 0.0;
      out << "{\"workload\":\"" << workload.name << "\",\"seed\":" << seed << ",\"planned_tasks\":" << planned_tasks << ",\"wall_s\":" << seconds(start, end)
          << ",\"setup_s\":" << (seen > 0 ? seconds(start, first_done) : 0.0)
          << ",\"tasks_per_s\":"
          << (completion_span > 0 ? static_cast<double>(seen) / completion_span : 0.0)
          << ",\"teardown_s\":" << (seen == planned_tasks ? seconds(last_done, end) : 0.0)
          << ",\"peak_rss_mb\":" << static_cast<double>(usage.ru_maxrss) / 1024.0
          << ",\"sim_digest\":\"" << digest << "\""
          << ",\"sim_task_p50_ms\":" << r.task_latency.percentile(50).as_millis()
          << ",\"sim_task_p99_ms\":" << r.task_latency.percentile(99).as_millis()
          << ",\"tasks_submitted\":" << r.tasks_submitted
          << ",\"tasks_completed\":" << r.tasks_completed
          << ",\"tasks_measured\":" << r.tasks_measured
          << ",\"requests\":" << r.requests_completed << ",\"events\":" << r.events_processed
          << ",\"messages\":" << r.network_messages
          << ",\"bytes\":" << r.network_bytes << ",\"utilization\":" << r.mean_utilization
          << ",\"credit_hold_events\":" << r.credit_hold_events
          << ",\"credit_hold_ms\":" << r.credit_hold_time.as_millis()
          << ",\"adaptations\":" << r.controller_adaptations
          << ",\"congestion_signals\":" << r.congestion_signals
          << ",\"hedges_issued\":" << r.hedges_issued
          << ",\"hedges_cancelled\":" << r.hedges_cancelled
          << ",\"dup_work_frac\":" << r.duplicate_work_fraction
          << ",\"write_requests\":" << r.write_requests_sent << ",\"expects\":{\"credits\":"
          << workload.credits << ",\"writes\":" << workload.writes
          << ",\"hedges\":" << workload.hedges << "},\"violations\":[";
      for (std::size_t i = 0; i < violations.size(); ++i) {
        out << (i ? "," : "") << '"' << json_escape(violations[i]) << '"';
      }
      out << "]";
#ifdef PERFBENCH_TRACED
      const perfbench::LayerTotals& totals = perfbench::trace_totals();
      out << ",\"traced_s\":" << static_cast<double>(totals.traced_ns) * 1e-9 << ",\"layers\":{";
      for (std::uint8_t l = 0; l < perfbench::kNumLayers; ++l) {
        out << (l ? "," : "") << '"' << perfbench::layer_name(static_cast<perfbench::Layer>(l))
            << "\":{\"calls\":" << totals.calls[l]
            << ",\"self_s\":" << static_cast<double>(totals.self_ns[l]) * 1e-9 << "}";
      }
      out << "}";
#endif
      out << "}\n";
      std::fputs(out.str().c_str(), stdout);
      std::fflush(stdout);
    }
    return 0;
  } catch (const std::exception& e) {
    std::printf("{\"error\":\"%s\",\"planned_tasks\":%" PRIu64 "}\n",
                json_escape(e.what()).c_str(), planned_tasks);
    return 1;
  }
}
