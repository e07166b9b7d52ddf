// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <ingest|scan|train_cv|compact> --seed <n>
//             --seconds <s> --trace <0|1> --work-dir <dir>
//             [--commit <id>]
//
// Untraced (--trace 0) runs print the end-to-end metrics; traced runs
// print the per-layer breakdown; --seconds 0 runs set-up and the output
// checks of the warm-up operations only.  Human-readable lines come
// first; the last line of stdout is one JSON object {correct, attempted,
// failed, metrics}.  A timed operation that fails its output check still
// gets the result line (correct: false) and exit code 1; a check that
// fails in set-up, a warm-up or a traced run exits 1 without one.  See
// README.md for the workloads and metrics.

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "ml/flat_forest.hpp"
#include "parallel/thread_pool.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

unsigned host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return 1;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("metric is not finite");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <ingest|scan|train_cv|compact> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir> [--commit <id>]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string commit = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = options.seconds >= 0.0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
        have_trace = true;
      } else if (flag == "--work-dir") {
        options.work_dir = value;
      } else if (flag == "--commit") {
        commit = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_seed || !have_seconds || !have_trace || options.work_dir.empty())
    usage("--seed, --seconds, --trace and --work-dir are required");

  // Pin every knob the library reads from the environment, so a run does
  // not drift with the caller's shell: SSDFAIL_ENGINE here,
  // SSDFAIL_THREADS through set_default_thread_count in each workload
  // (before the global pool exists), SSDFAIL_DRIVES_PER_MODEL and
  // SSDFAIL_SEED by never calling FleetConfig::from_env().
  ssdfail::ml::set_inference_engine(ssdfail::ml::InferenceEngine::kFlat);
  enable_tracing(options.trace);
  options.nproc = host_cpus();
  std::filesystem::create_directories(options.work_dir);

  Outcome outcome;
  try {
    if (options.workload == "ingest") {
      outcome = run_ingest(options);
    } else if (options.workload == "scan") {
      outcome = run_scan(options);
    } else if (options.workload == "train_cv") {
      outcome = run_train_cv(options);
    } else if (options.workload == "compact") {
      outcome = run_compact(options);
    } else {
      usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " failed: " << e.what() << "\n";
    return 1;
  }

  std::cout << "perfbench " << options.workload << " seed=" << options.seed
            << " seconds=" << options.seconds << " trace=" << (options.trace ? 1 : 0)
            << " nproc=" << options.nproc << " commit=" << commit
            << " build=" << PERFBENCH_BUILD_TYPE << "\n";
  for (const auto& [key, value] : outcome.config)
    std::cout << "  config " << key << " = " << value << "\n";
  for (const std::string& line : outcome.report) std::cout << "  " << line << "\n";
  for (const Metric& m : outcome.metrics)
    std::cout << "  metric " << m.name << " = " << json_number(m.value) << " " << m.unit
              << "\n";
  std::cout << "  error_rate = "
            << json_number(outcome.attempted == 0
                               ? 0.0
                               : static_cast<double>(outcome.failed) /
                                     static_cast<double>(outcome.attempted))
            << " ratio (" << outcome.failed << " failed of " << outcome.attempted
            << " attempted)\n";

  std::ostringstream line;
  line << "{\"correct\": " << (outcome.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << outcome.attempted << ", \"failed\": " << outcome.failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    line << (i ? ", " : "") << '"' << m.name << "\": {\"value\": " << json_number(m.value)
         << ", \"unit\": \"" << m.unit << "\"}";
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return outcome.failed == 0 ? 0 : 1;
}
