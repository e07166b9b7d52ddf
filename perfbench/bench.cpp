#include "bench.hpp"

#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <iostream>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/trace_span.hpp"
#include "stats/rng.hpp"

namespace perfbench {

using namespace ssdfail;

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) { return percentile(values, 0.5); }

bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

double timed_setup(int repeats, const std::function<void()>& setup) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    const auto start = Clock::now();
    setup();
    times.push_back(seconds_since(start));
  }
  return median(times);
}

std::string run_in_child(const std::function<std::string()>& setup) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::cout.flush();
  std::cerr.flush();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    try {
      const std::string out = setup();
      for (std::size_t done = 0; done < out.size();) {
        const ssize_t n = write(fds[1], out.data() + done, out.size() - done);
        if (n <= 0) throw std::runtime_error("write to the parent failed");
        done += static_cast<std::size_t>(n);
      }
    } catch (const std::exception& e) {
      std::cerr << "perfbench: set-up failed: " << e.what() << "\n";
      code = 1;
    }
    std::cerr.flush();
    _exit(code);  // no destructors: the parent's threads do not exist here
  }
  close(fds[1]);
  std::string out;
  char buffer[4096];
  for (ssize_t n; (n = read(fds[0], buffer, sizeof(buffer))) != 0;) {
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) break;
    out.append(buffer, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("the set-up process failed");
  return out;
}

trace::FleetTrace generate_fleet(const sim::FleetConfig& config,
                                 parallel::ThreadPool& pool) {
  const sim::FleetSimulator simulator(config);
  trace::FleetTrace fleet;
  fleet.drives.resize(simulator.drive_count());
  parallel::parallel_for(
      fleet.drives.size(), [&](std::size_t i) { fleet.drives[i] = simulator.simulate(i); },
      pool);
  return fleet;
}

std::vector<core::FleetObservation> day_ordered_stream(const trace::FleetTrace& fleet) {
  std::int32_t last_day = -1;
  for (const trace::DriveHistory& d : fleet.drives)
    if (!d.records.empty()) last_day = std::max(last_day, d.records.back().day);
  std::vector<std::size_t> offset(static_cast<std::size_t>(last_day) + 2, 0);
  for (const trace::DriveHistory& d : fleet.drives)
    for (const trace::DailyRecord& r : d.records) ++offset[static_cast<std::size_t>(r.day) + 1];
  for (std::size_t i = 1; i < offset.size(); ++i) offset[i] += offset[i - 1];
  std::vector<core::FleetObservation> stream(offset.back());
  for (const trace::DriveHistory& d : fleet.drives)
    for (const trace::DailyRecord& r : d.records)
      stream[offset[static_cast<std::size_t>(r.day)]++] = {d.model, d.drive_index,
                                                            d.deploy_day, r};
  return stream;
}

sim::FleetConfig study_fleet_config(std::uint64_t seed, std::uint32_t drives_per_model) {
  sim::FleetConfig config;
  config.drives_per_model = drives_per_model;
  config.window_days = sim::kDefaultWindowDays;
  config.seed = seed;
  config.keep_ground_truth = false;
  return config;
}

trace::FleetTrace stratified_fleet(std::uint64_t seed, std::uint32_t failed,
                                   std::uint32_t healthy, parallel::ThreadPool& pool) {
  constexpr std::uint32_t kSearchDrives = 1u << 24;  ///< index space searched per model
  constexpr std::size_t kBatch = 64;
  const sim::FleetSimulator simulator(study_fleet_config(seed, kSearchDrives));
  trace::FleetTrace fleet;
  for (std::size_t m = 0; m < simulator.config().models.size(); ++m) {
    std::uint32_t need_failed = failed, need_healthy = healthy;
    std::size_t next = m * kSearchDrives;
    std::vector<trace::DriveHistory> batch(kBatch);
    while (need_failed > 0 || need_healthy > 0) {
      parallel::parallel_for(
          kBatch, [&](std::size_t i) { batch[i] = simulator.simulate(next + i); }, pool);
      next += kBatch;
      for (trace::DriveHistory& drive : batch) {
        std::uint32_t& need = drive.swaps.empty() ? need_healthy : need_failed;
        if (need == 0) continue;
        --need;
        fleet.drives.push_back(std::move(drive));
      }
    }
  }
  return fleet;
}

double histogram_delta_median(std::string_view name, const obs::RegistrySnapshot& before,
                              const obs::RegistrySnapshot& after) {
  const obs::Sample* a = after.find(name);
  if (a == nullptr) return 0.0;
  const obs::Sample* b = before.find(name);
  std::vector<double> counts(a->buckets.size());
  double total = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = static_cast<double>(a->buckets[i]) -
                (b != nullptr ? static_cast<double>(b->buckets[i]) : 0.0);
    total += counts[i];
  }
  if (total <= 0.0) return 0.0;
  const double target = 0.5 * total;
  double seen = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (seen + counts[i] >= target && counts[i] > 0.0) {
      const double lo = i == 0 ? 0.0 : a->bucket_bounds[i - 1];
      const double hi = i < a->bucket_bounds.size() ? a->bucket_bounds[i] : lo;
      return lo + (hi - lo) * (target - seen) / counts[i];
    }
    seen += counts[i];
  }
  return a->bucket_bounds.empty() ? 0.0 : a->bucket_bounds.back();
}

namespace {

/// Fold raw bytes into a running 64-bit digest, eight at a time.
std::uint64_t digest_bytes(std::uint64_t h, const void* data, std::size_t n) {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  const auto* p = static_cast<const unsigned char*>(data);
  for (; n >= 8; n -= 8, p += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, 8);
    h = (h ^ word) * kPrime;
    h ^= h >> 29;
  }
  for (; n > 0; --n, ++p) h = (h ^ *p) * kPrime;
  return h;
}

}  // namespace

std::uint64_t dataset_digest(const ml::Dataset& data) {
  std::uint64_t h = stats::hash_keys({data.size(), data.features()});
  h = digest_bytes(h, data.x.data().data(), data.x.data().size() * sizeof(float));
  h = digest_bytes(h, data.y.data(), data.y.size() * sizeof(float));
  return digest_bytes(h, data.groups.data(), data.groups.size() * sizeof(std::uint64_t));
}

std::uint64_t file_digest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  std::uint64_t h = stats::hash_keys({0x66696c65});
  std::vector<char> buffer(1 << 20);
  while (in) {
    in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    h = digest_bytes(h, buffer.data(), static_cast<std::size_t>(in.gcount()));
  }
  return h;
}

LoopStats closed_loop(double seconds, int warmup, std::size_t min_ops,
                      const std::function<OpResult()>& op,
                      const std::function<bool()>& check) {
  // A timed operation records its latency; a memory operation starts from
  // a trimmed heap with VmHWM reset and records its peak instead.
  const auto run_one = [&](LoopStats& stats, bool memory) {
    ++stats.attempted;
    try {
      if (memory) {
        malloc_trim(0);
        reset_peak_rss();
      }
      const OpResult r = op();
      if (memory) {
        stats.op_peak_rss_mb.push_back(peak_rss_mb());
      } else {
        stats.op_seconds.push_back(r.seconds);
        stats.op_rows_per_s.push_back(r.rows / r.seconds);
      }
      if (!check()) ++stats.failed;
    } catch (const std::exception&) {
      ++stats.failed;
    }
  };
  LoopStats discarded;
  for (int i = 0; i < warmup; ++i) run_one(discarded, false);
  if (discarded.failed != 0)
    throw CheckFailure("a warm-up operation failed its output check");
  if (seconds <= 0.0) return discarded;  // untimed run: the checks only

  // Timed operations run on the heap the previous ones left.  Trimmed
  // before each, scan's operations spent about a quarter of their time
  // faulting their decoded columns back in (195 against 140 ms on one
  // seed), a share that swings with the host's load; untrimmed, what the
  // earlier operations left in the pool workers' arenas moved VmHWM by up
  // to 30% between runs of one seed.  So latency and memory come from
  // separate operations.
  malloc_trim(0);
  LoopStats stats;
  const auto start = Clock::now();
  for (;;) {
    const double elapsed = seconds_since(start);
    if (elapsed >= 4.0 * seconds) break;
    if (elapsed >= seconds && stats.op_seconds.size() >= min_ops) break;
    run_one(stats, false);
  }
  for (int i = 0; i < kMemoryOps; ++i) run_one(stats, true);
  return stats;
}

void enable_tracing(bool on) {
  obs::set_enabled(on);
  obs::TraceCollector::global().reset();
}

SiteSeconds span_totals() {
  SiteSeconds totals;
  for (const obs::SpanStats& s : obs::TraceCollector::global().aggregate())
    totals[s.name] = s.total_us * 1e-6;
  return totals;
}

double SpanWindow::seconds(const std::string& site) const {
  if (after_.empty()) after_ = span_totals();
  const auto a = after_.find(site);
  if (a == after_.end()) return 0.0;
  const auto b = before_.find(site);
  return a->second - (b != before_.end() ? b->second : 0.0);
}

double trace_coverage(const std::string& root, const std::vector<std::string>& layers) {
  const SiteSeconds totals = span_totals();
  const auto r = totals.find(root);
  if (r == totals.end() || r->second <= 0.0) return 0.0;
  double sum = 0.0;
  for (const std::string& layer : layers) {
    const auto it = totals.find(layer);
    if (it != totals.end()) sum += it->second;
  }
  return sum / r->second;
}

void check_coverage(double coverage, const std::string& what) {
  if (!(coverage >= 0.9 && coverage <= 1.1))
    throw CheckFailure(what + ": trace coverage " + std::to_string(coverage) +
                       " is outside [0.9, 1.1]; a layer span is missing or counted twice");
}

void write_trace(const std::string& path) {
  const obs::TraceCollector& collector = obs::TraceCollector::global();
  std::ofstream out(path);
  out << "{\"sites\": [";
  bool first = true;
  for (const obs::SpanStats& s : collector.aggregate()) {
    out << (first ? "" : ", ") << "{\"site\": \"" << s.name << "\", \"count\": " << s.count
        << ", \"total_us\": " << s.total_us << ", \"self_us\": " << s.self_us
        << ", \"p50_us\": " << s.p50_us << ", \"p99_us\": " << s.p99_us << "}";
    first = false;
  }
  out << "], \"recent\": [";
  first = true;
  for (const obs::SpanRecord& r : collector.recent(4096)) {
    out << (first ? "" : ", ") << "[\"" << obs::site_name(r.site) << "\", \""
        << obs::site_name(r.parent_site) << "\", " << r.duration_ns << ", " << r.self_ns << "]";
    first = false;
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("cannot write the trace file " + path);
}

void add_end_to_end(Outcome& out, const LoopStats& loop, double store_bytes_per_row,
                    double setup_s) {
  out.attempted = loop.attempted;
  out.failed = loop.failed;
  out.add("rows_per_s", "rows/s", median(loop.op_rows_per_s));
  out.add("latency_p50_ms", "ms", 1e3 * median(loop.op_seconds));
  out.add("latency_p90_ms", "ms", 1e3 * percentile(loop.op_seconds, 0.9));
  out.add("peak_rss_mb", "MB", median(loop.op_peak_rss_mb));
  out.add("store_bytes_per_row", "B", store_bytes_per_row);
  out.add("setup_s", "s", setup_s);
  out.note("operations timed: " + std::to_string(loop.op_seconds.size()) +
           " (latency samples), memory operations: " +
           std::to_string(loop.op_peak_rss_mb.size()));
}

void add_layer_metrics(Outcome& out, const std::map<std::string, double>& measured) {
  struct LayerMetricSpec {
    const char* name;
    const char* unit;
  };
  static const std::vector<LayerMetricSpec> specs = {
      // ingest
      {"ml.predict_ns_per_row", "ns"},
      {"daemon.wal_append_ns_per_row", "ns"},
      {"core.features_ns_per_row", "ns"},
      {"robustness.sanitize_ns_per_row", "ns"},
      {"daemon.health_ns_per_row", "ns"},
      {"daemon.wal_bytes_per_row", "B"},
      {"daemon.push_blocked_frac", "ratio"},
      {"daemon.rows_per_batch", "rows"},
      // scan
      {"store.open_ms", "ms"},
      {"store.decode_ns_per_record", "ns"},
      {"core.build_ns_per_record", "ns"},
      {"store.chunks_read_frac", "ratio"},
      {"parallel.task_wait_us_p50", "us"},
      // train_cv
      {"core.build_ms", "ms"},
      {"ml.downsample_ms", "ms"},
      {"ml.fit_ms_per_fold", "ms"},
      {"ml.score_ns_per_row", "ns"},
      {"ml.auc_ms", "ms"},
      {"parallel.busy_frac", "ratio"},
      // compact
      {"daemon.replay_ns_per_record", "ns"},
      {"store.encode_ns_per_record", "ns"},
      {"daemon.compact_rest_ns_per_record", "ns"},
      {"daemon.wal_bytes_in_per_record", "B"},
      // every workload
      {"bench.trace_coverage", "ratio"},
      {"bench.trace_overhead", "ratio"},
  };
  for (const LayerMetricSpec& spec : specs) {
    const auto it = measured.find(spec.name);
    out.add(spec.name, spec.unit, it != measured.end() ? it->second : 0.0);
  }
}

}  // namespace perfbench
