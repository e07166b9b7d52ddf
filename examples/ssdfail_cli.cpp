// ssdfail_cli — command-line front end for the library.
//
// Run it with no arguments for every subcommand and the flags it takes:
// usage() prints them from the command table at the bottom of this file,
// and that table is also what each subcommand accepts — any other flag,
// a non-numeric or negative count, or a value outside an enumerated set
// prints the usage and exits 2 before any work runs.
//
// `simulate` writes a fleet as PREFIX_daily.csv + PREFIX_swaps.csv (or
// PREFIX.bin with --binary for the v1 row format, --columnar for the v2
// columnar store); `analyze` re-imports and prints the headline
// characterization (binary reads auto-detect the version); `convert`
// re-encodes a binary fleet between v1, v2 and v3 (compressed columnar)
// and reports bytes/row; `compact` folds the daemon's sealed WAL segments
// into v3 shards of a sharded store (daemon/compactor.hpp); `drift`
// compares two stored fleets column by column (online/drift.hpp).
// `benchmark` trains the paper's random forest and reports cross-validated
// AUC; `transfer` crosses device classes (core/transfer.hpp).  `train` fits a
// model once and persists it (ml/serialize); `serve` loads it and replays
// a fleet as a day-ordered stream through the telemetry daemon, in memory
// (no WAL), and prints its counts — the always-on scoring service in
// miniature.  `train` and `serve` accept `--fleet FILE` to use a recorded
// binary fleet instead of simulating one; a v2 or v3 file feeds `train`
// through the chunk-parallel dataset build (store/columnar.hpp).
//
// `daemon` runs the crash-safe streaming service (src/daemon): multi-
// threaded producers push the fleet into per-shard ingest rings, appender
// threads WAL every batch before scoring it, and SIGTERM/SIGINT trigger a
// graceful drain (rings emptied, WALs fsynced) before exit.  On startup it
// replays any WAL left in --wal-dir, rebuilding per-drive state; with
// --recover-only it stops there and just reports the replay.
// --state-digest-out writes the order-independent state digest the crash-
// recovery tests compare.
//
// Observability (docs/OBSERVABILITY.md): `train` and `serve` accept
// `--metrics-out FILE` to dump the process-wide metrics registry as
// Prometheus text (FILE) plus JSON lines (FILE.jsonl) on exit; `serve`
// additionally accepts `--metrics-stream FILE` to append per-replay-day
// JSON delta lines.  `metrics` runs a built-in end-to-end smoke (simulate
// -> train -> replay with chaos -> trace round-trip) and prints the
// Prometheus exposition — the target of the CI metrics-lint step.

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/dataset_builder.hpp"
#include "core/transfer.hpp"
#include "daemon/compactor.hpp"
#include "daemon/daemon.hpp"
#include "core/fleet_analysis.hpp"
#include "core/prediction.hpp"
#include "io/file.hpp"
#include "io/table.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshotter.hpp"
#include "obs/trace_span.hpp"
#include "online/drift.hpp"
#include "online/learner.hpp"
#include "ml/downsample.hpp"
#include "ml/flat_forest.hpp"
#include "ml/model_zoo.hpp"
#include "ml/serialize.hpp"
#include "parallel/thread_pool.hpp"
#include "robustness/fault_injector.hpp"
#include "sim/drifting_fleet.hpp"
#include "sim/fleet_simulator.hpp"
#include "store/columnar.hpp"
#include "store/sharded.hpp"
#include "trace/binary_io.hpp"
#include "trace/trace_io.hpp"
#include "trace/validation.hpp"

namespace {

using namespace ssdfail;

/// A malformed invocation: main() prints the reason and the usage, exit 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// `--name value` / `--name` pairs with typed getters that reject what
/// they cannot parse, so a typo fails loudly instead of running a default.
struct Args {
  std::map<std::string, std::string> named;

  const std::string* find(const std::string& name) const {
    const auto it = named.find("--" + name);
    return it == named.end() ? nullptr : &it->second;
  }
  bool flag(const std::string& name) const { return find(name) != nullptr; }
  std::string get(const std::string& name, const std::string& fallback) const {
    const std::string* value = find(name);
    return value == nullptr ? fallback : *value;
  }
  std::string required(const std::string& name) const {
    const std::string value = get(name, "");
    if (value.empty()) throw UsageError("--" + name + " is required");
    return value;
  }
  double real(const std::string& name, double fallback) const {
    const std::string* value = find(name);
    if (value == nullptr) return fallback;
    char* end = nullptr;
    const double x = std::strtod(value->c_str(), &end);
    if (value->empty() || *end != '\0')
      throw UsageError("--" + name + " takes a number, not '" + *value + "'");
    return x;
  }
  /// A non-negative integer that fits T: signs, fractions, exponents and
  /// trailing characters are rejected.
  template <typename T>
  T count(const std::string& name, T fallback) const {
    const std::string* value = find(name);
    if (value == nullptr) return fallback;
    std::uint64_t x = 0;
    const char* last = value->data() + value->size();
    const auto [end, ec] = std::from_chars(value->data(), last, x);
    if (ec != std::errc() || end != last ||
        x > static_cast<std::uint64_t>(std::numeric_limits<T>::max()))
      throw UsageError("--" + name + " takes a count, not '" + *value + "'");
    return static_cast<T>(x);
  }
  std::string choice(const std::string& name, const std::string& fallback,
                     std::initializer_list<std::string_view> options) const {
    const std::string value = get(name, fallback);
    std::string listed;
    for (const std::string_view option : options) {
      if (option == value) return value;
      listed.append(listed.empty() ? "" : "|").append(option);
    }
    throw UsageError("--" + name + " must be " + listed + ", not '" + value + "'");
  }
};

/// Publish the trace aggregates into the global registry, snapshot it, and
/// write it as Prometheus text to `path` (stdout when empty).  nullopt,
/// with a logged reason, on I/O failure.
std::optional<obs::RegistrySnapshot> dump_prometheus(const std::string& path) {
  obs::TraceCollector::global().publish(obs::MetricsRegistry::global());
  obs::RegistrySnapshot snapshot = obs::MetricsRegistry::global().snapshot();
  std::ofstream file;
  if (!path.empty()) file.open(path);
  if (!path.empty() && !file) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return std::nullopt;
  }
  obs::write_prometheus(path.empty() ? std::cout : file, snapshot);
  return snapshot;
}

/// `--metrics-out FILE`: the Prometheus dump plus JSON lines in FILE.jsonl.
/// Returns false (with a logged reason) on I/O failure.
bool write_metrics_out(const Args& args) {
  const std::string path = args.get("metrics-out", "");
  if (path.empty()) return true;
  const auto snapshot = dump_prometheus(path);
  if (!snapshot) return false;
  const std::string jsonl_path = path + ".jsonl";
  std::ofstream jsonl(jsonl_path);
  if (!jsonl) {
    std::fprintf(stderr, "cannot write %s\n", jsonl_path.c_str());
    return false;
  }
  obs::write_json_lines(jsonl, *snapshot);
  std::printf("wrote %s (%zu samples) + %s\n", path.c_str(), snapshot->samples.size(),
              jsonl_path.c_str());
  return true;
}

/// `--state-digest-out FILE`: the daemon's state digest as hex.  Returns
/// false (with a logged reason) on I/O failure.
bool write_digest(const Args& args, std::uint64_t digest) {
  const std::string path = args.get("state-digest-out", "");
  if (path.empty()) return true;
  std::ofstream out(path);
  out << std::hex << digest << "\n";
  if (out) return true;
  std::fprintf(stderr, "cannot write %s\n", path.c_str());
  return false;
}

/// The seeded fault injector behind `--chaos PCT` and `metrics`.
robustness::FaultInjector chaos_injector(std::uint64_t seed, double rate) {
  return {seed ^ 0x9e3779b97f4a7c15ull, robustness::FaultRates::uniform(rate)};
}

/// The simulated fleet behind --drives/--seed/--days, with `drives` as the
/// command's default drives per model.
sim::FleetConfig config_from(const Args& args, std::uint32_t drives) {
  sim::FleetConfig cfg;
  cfg.drives_per_model = args.count<std::uint32_t>("drives", drives);
  cfg.seed = args.count<std::uint64_t>("seed", 2019);
  cfg.window_days = args.count<std::int32_t>("days", cfg.window_days);
  cfg.keep_ground_truth = false;  // CLI emits observable data only
  return cfg;
}

/// The fleet a replaying command runs on: `--fleet FILE` (any binary
/// version; read_binary materializes v2/v3 as row structs) or a simulation
/// of `cfg`.  nullopt, with a logged reason, when FILE cannot be read.
std::optional<trace::FleetTrace> load_fleet(const Args& args, const char* command,
                                            const sim::FleetConfig& cfg,
                                            bool announce = true) {
  const std::string path = args.get("fleet", "");
  if (path.empty()) return sim::FleetSimulator(cfg).generate_all();
  try {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open " + path);
    trace::FleetTrace fleet = trace::read_binary(in);
    if (announce)
      std::printf("loaded %zu drives (%zu drive-days) from %s\n", fleet.drives.size(),
                  fleet.total_records(), path.c_str());
    return fleet;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", command, e.what());
    return std::nullopt;
  }
}

int cmd_simulate(const Args& args) {
  const std::string prefix = args.required("out");
  sim::FleetConfig cfg = config_from(args, 500);
  // --device-class: the default keeps the paper's three MLC models, so
  // every pre-existing invocation stays bit-identical.
  const std::string klass = args.choice("device-class", "mlc", {"mlc", "hdd", "nvme", "mixed"});
  if (klass == "hdd") cfg = cfg.for_class(trace::DeviceClass::kHdd);
  if (klass == "nvme") cfg = cfg.for_class(trace::DeviceClass::kNvmeSsd);
  if (klass == "mixed") cfg = cfg.mixed();
  const auto chunk = args.count<std::uint32_t>("chunk", 0);
  std::printf("simulating %u drives/model x %zu models (seed %llu)...\n",
              cfg.drives_per_model, cfg.models.size(),
              static_cast<unsigned long long>(cfg.seed));
  const trace::FleetTrace fleet = sim::FleetSimulator(cfg).generate_all();
  if (args.flag("columnar")) {
    io::commit_file(prefix + ".bin",
                    [&](std::ostream& out) { trace::write_binary_v2(out, fleet, chunk); });
    std::printf("wrote %s.bin (columnar v2, %zu drive-days)\n", prefix.c_str(),
                fleet.total_records());
  } else if (args.flag("binary")) {
    io::commit_file(prefix + ".bin", [&](std::ostream& out) { trace::write_binary(out, fleet); });
    std::printf("wrote %s.bin (%zu drive-days)\n", prefix.c_str(), fleet.total_records());
  } else {
    std::ofstream daily(prefix + "_daily.csv");
    std::ofstream swaps(prefix + "_swaps.csv");
    trace::write_daily_log(daily, fleet);
    trace::write_swap_log(swaps, fleet);
    std::printf("wrote %s_daily.csv + %s_swaps.csv (%zu drive-days, %zu swaps)\n",
                prefix.c_str(), prefix.c_str(), fleet.total_records(),
                fleet.total_swaps());
  }
  return 0;
}

int cmd_analyze(const Args& args) {
  const std::string prefix = args.required("in");
  trace::FleetTrace fleet;
  if (args.flag("binary")) {
    std::ifstream in(prefix + ".bin", std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot open %s.bin\n", prefix.c_str());
      return 1;
    }
    fleet = trace::read_binary(in);
  } else {
    std::ifstream daily(prefix + "_daily.csv");
    std::ifstream swaps(prefix + "_swaps.csv");
    if (!daily || !swaps) {
      std::fprintf(stderr, "cannot open %s_daily.csv / %s_swaps.csv\n", prefix.c_str(),
                   prefix.c_str());
      return 1;
    }
    fleet = trace::read_fleet(daily, swaps);
  }
  std::printf("loaded %zu drives, %zu drive-days\n", fleet.drives.size(),
              fleet.total_records());

  const auto violations = trace::validate_fleet(fleet);
  if (violations.empty()) {
    std::printf("trace validation: clean\n");
  } else {
    std::printf("trace validation: %zu violation(s); first few:\n", violations.size());
    for (std::size_t i = 0; i < std::min<std::size_t>(5, violations.size()); ++i)
      std::printf("  drive %llu day %d: %s %s\n",
                  static_cast<unsigned long long>(violations[i].drive_uid),
                  violations[i].day,
                  std::string(trace::violation_name(violations[i].kind)).c_str(),
                  violations[i].detail.c_str());
  }

  const core::CharacterizationSuite suite = core::characterize(fleet);
  io::TextTable table("fleet characterization");
  table.set_header({"model", "drives", "%failed", "UE day-rate", "median repair (d)"});
  for (trace::DriveModel m : trace::kAllModels) {
    const auto& fi = suite.failure_incidence(m);
    if (fi.drives == 0) continue;
    const auto& inc = suite.incidence(m);
    const double ue =
        static_cast<double>(
            inc.error_days[static_cast<std::size_t>(trace::ErrorType::kUncorrectable)]) /
        std::max<double>(static_cast<double>(inc.drive_days), 1.0);
    const auto& repair = suite.repair_time_days(m);
    table.add_row({std::string(trace::model_name(m)), std::to_string(fi.drives),
                   io::TextTable::pct(static_cast<double>(fi.drives_failed) /
                                      static_cast<double>(fi.drives)),
                   io::TextTable::num(ue, 5),
                   repair.finite_part().empty()
                       ? std::string("--")
                       : io::TextTable::num(repair.finite_part().quantile(0.5), 0)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_convert(const Args& args) {
  const std::string in_path = args.required("in");
  const std::string out_path = args.required("out");
  const std::string to = args.choice("to", "v2", {"v1", "v2", "v3"});
  const std::uint32_t to_version = to == "v1"   ? trace::kBinaryFormatVersion
                                   : to == "v2" ? trace::kColumnarFormatVersion
                                                : trace::kColumnarV3FormatVersion;
  const auto chunk = args.count<std::uint32_t>("chunk", 0);
  std::ifstream in(in_path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", in_path.c_str());
    return 1;
  }
  try {
    const std::uint32_t from_version = trace::peek_binary_version(in);
    std::size_t rows = 0;
    // A failed conversion leaves any previous file at out_path untouched.
    io::commit_file(out_path, [&](std::ostream& out) {
      rows = trace::convert_binary(in, out, to_version, chunk);
    });
    const auto bytes = std::filesystem::file_size(out_path);
    std::printf("converted %s (v%u, %zu drive-days) -> %s (%s, %llu bytes",
                in_path.c_str(), from_version, rows, out_path.c_str(), to.c_str(),
                static_cast<unsigned long long>(bytes));
    if (rows > 0)
      std::printf(", %.2f bytes/row", static_cast<double>(bytes) /
                                          static_cast<double>(rows));
    std::printf(")\n");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "convert: %s\n", e.what());
    return 1;
  }
  return 0;
}

int cmd_compact(const Args& args) {
  const std::string wal_dir = args.required("wal-dir");
  const std::string store_dir = args.required("store-dir");
  daemon::CompactorOptions options;
  options.keep_wal = args.flag("keep-wal");
  if (const auto chunk = args.count<std::uint32_t>("chunk", 0); chunk > 0)
    options.store.chunk_drives = chunk;
  try {
    const daemon::CompactionResult result =
        daemon::compact_sealed_wals(wal_dir, store_dir, options);
    if (result.shards_written == 0) {
      std::printf("compact: nothing to do (%zu sealed wal file(s), 0 records)\n",
                  result.wal_files);
      return 0;
    }
    std::printf(
        "compacted %zu sealed wal file(s) (%llu bytes) -> %s/%s\n"
        "  %zu drives, %llu records, %llu swaps, %llu out-of-order dropped\n"
        "  %llu bytes (%.2f bytes/row)\n",
        result.wal_files, static_cast<unsigned long long>(result.wal_bytes_in),
        store_dir.c_str(), result.shard_file.c_str(), result.drives,
        static_cast<unsigned long long>(result.records),
        static_cast<unsigned long long>(result.retires),
        static_cast<unsigned long long>(result.out_of_order_dropped),
        static_cast<unsigned long long>(result.shard_bytes_out),
        static_cast<double>(result.shard_bytes_out) /
            static_cast<double>(std::max<std::uint64_t>(result.records, 1)));
    if (result.bad_model_dropped > 0)
      std::printf("  %llu record(s) with an unknown drive model dropped\n",
                  static_cast<unsigned long long>(result.bad_model_dropped));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "compact: %s\n", e.what());
    return 1;
  }
  return 0;
}

int cmd_benchmark(const Args& args) {
  sim::FleetConfig cfg = config_from(args, 500);
  cfg.keep_ground_truth = true;
  core::DatasetBuildOptions opts;
  opts.lookahead_days = args.count<int>("lookahead", 1);
  const sim::FleetSimulator fleet(cfg);
  opts.negative_keep_prob = 0.01;
  std::printf("building N=%d dataset from %zu drives...\n", opts.lookahead_days,
              fleet.drive_count());
  const ml::Dataset data = core::build_dataset(fleet, opts);
  std::printf("%zu rows, %zu positives\n", data.size(), data.positives());
  const auto model = ml::make_model(ml::ModelKind::kRandomForest);
  const auto ms = core::evaluate_auc(*model, data).auc();
  std::printf("random forest ROC AUC (5-fold drive-partitioned CV): %.3f +- %.3f\n",
              ms.mean, ms.sd);
  return 0;
}

/// Cross-device-class transfer matrix (core/transfer.hpp): train on class
/// A's drives, score class B's held-out drives, for all nine ordered
/// pairs.  --gate turns the expected structure — diagonal dominance — into
/// an exit code for CI.
int cmd_transfer(const Args& args) {
  // Defaults are the gate configuration: large enough that every class's
  // train half holds a stable positive count (NVMe failures are the
  // scarcest) and the column structure is well clear of split noise.
  sim::FleetConfig cfg = config_from(args, 800);
  cfg.keep_ground_truth = true;
  cfg = cfg.mixed();  // transfer needs every class present

  core::TransferOptions opts;
  opts.build.lookahead_days = args.count<int>("lookahead", 10);
  opts.build.negative_keep_prob = args.real("neg-keep", 0.05);
  if (args.choice("label", "failure", {"failure", "uncorrectable"}) == "uncorrectable") {
    // Error-occurrence label (Table 8 style): positives are dense, but the
    // UE process is mechanically similar across classes so cross-class
    // transfer works WELL under this label — useful as a contrast run, not
    // expected to show diagonal dominance.
    opts.build.error_label = trace::ErrorType::kUncorrectable;
    opts.build.positive_keep_prob = 0.5;
  }
  opts.train_fraction = args.real("train-frac", 0.5);
  // Keep several negatives per positive: classes with few positives (NVMe
  // failures are infant-heavy and scarce) need the extra rows for a stable
  // forest, and plentiful classes are unaffected in ranking terms.
  opts.protocol.train_downsample_ratio = args.real("train-ratio", 4);
  opts.split_seed = args.count<std::uint64_t>("split-seed", 77);
  if (args.choice("model", "forest", {"forest", "logistic"}) == "logistic")
    opts.model = ml::ModelKind::kLogisticRegression;

  if (!args.flag("fleet"))
    std::printf("simulating mixed fleet: %u drives/model x %zu models (seed %llu)...\n",
                cfg.drives_per_model, cfg.models.size(),
                static_cast<unsigned long long>(cfg.seed));
  const auto fleet = load_fleet(args, "transfer", cfg);
  if (!fleet) return 1;

  core::TransferMatrix matrix;
  try {
    matrix = core::cross_class_transfer(*fleet, opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "transfer: %s\n", e.what());
    return 1;
  }

  io::TextTable shapes("per-class datasets (drive-partitioned halves)");
  shapes.set_header({"class", "train rows", "train pos", "eval rows", "eval pos"});
  for (trace::DeviceClass c : trace::kAllDeviceClasses) {
    const auto i = static_cast<std::size_t>(c);
    shapes.add_row({std::string(trace::device_class_name(c)),
                    std::to_string(matrix.train_rows[i]),
                    std::to_string(matrix.train_positives[i]),
                    std::to_string(matrix.eval_rows[i]),
                    std::to_string(matrix.eval_positives[i])});
  }
  shapes.print(std::cout);

  io::TextTable table("transfer ROC AUC: rows = train class, cols = test class");
  table.set_header({"train \\ test", "mlc-ssd", "hdd", "nvme-ssd"});
  for (trace::DeviceClass train : trace::kAllDeviceClasses) {
    std::vector<std::string> row{std::string(trace::device_class_name(train))};
    for (trace::DeviceClass test : trace::kAllDeviceClasses)
      row.push_back(io::TextTable::num(matrix.cell(train, test), 4));
    table.add_row(row);
  }
  table.print(std::cout);

  const bool dominant = matrix.diagonal_dominant();
  std::printf("diagonal (column) dominance: %s\n", dominant ? "HOLDS" : "VIOLATED");
  if (args.flag("gate") && !dominant) {
    std::fprintf(stderr,
                 "transfer: gate failed — for some test class a foreign-trained "
                 "model matches or beats the same-class model\n");
    return 3;
  }
  return 0;
}

int cmd_train(const Args& args) {
  const std::string out_path = args.required("out");
  const std::string kind = args.choice("model", "forest", {"forest", "logistic"});
  sim::FleetConfig cfg = config_from(args, 500);
  cfg.keep_ground_truth = true;
  core::DatasetBuildOptions opts;
  opts.lookahead_days = args.count<int>("lookahead", 1);
  opts.negative_keep_prob = 0.02;
  const std::string fleet_path = args.get("fleet", "");
  ml::Dataset data;
  if (!fleet_path.empty()) {
    try {
      std::ifstream in(fleet_path, std::ios::binary);
      if (!in) throw std::runtime_error("cannot open " + fleet_path);
      const std::uint32_t version = trace::peek_binary_version(in);
      std::printf("building N=%d dataset from %s (v%u)...\n", opts.lookahead_days,
                  fleet_path.c_str(), version);
      if (version == trace::kBinaryFormatVersion) {
        data = core::build_dataset(trace::read_binary(in), opts);
      } else {
        // v2/v3: chunk-parallel build straight off the mapped file.
        data = core::build_dataset(store::ColumnarFleetView::open(fleet_path), opts);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "train: %s\n", e.what());
      return 1;
    }
  } else {
    const sim::FleetSimulator fleet(cfg);
    std::printf("building N=%d dataset from %zu drives...\n", opts.lookahead_days,
                fleet.drive_count());
    data = core::build_dataset(fleet, opts);
  }
  const ml::Dataset train = ml::downsample_negatives(data, 1.0, cfg.seed);
  std::printf("%zu rows (%zu positives) -> %zu after 1:1 downsampling\n", data.size(),
              data.positives(), train.size());

  // Atomic persistence (tmp + rename): a crash mid-write must never leave a
  // truncated model where `serve` would find it.
  const auto t0 = std::chrono::steady_clock::now();
  try {
    if (kind == "forest") {
      ml::RandomForest forest;
      forest.fit(train);
      ml::save_model_file(out_path, forest);
    } else {
      ml::LogisticRegression logistic;
      logistic.fit(train);
      ml::save_model_file(out_path, logistic);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot write %s: %s\n", out_path.c_str(), e.what());
    return 1;
  }
  const double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  std::printf("trained %s in %.1fs, wrote %s\n", kind.c_str(), secs, out_path.c_str());
  return write_metrics_out(args) ? 0 : 1;
}

/// Try to load the serving model; returns nullptr (with a logged reason)
/// instead of throwing, so `serve` can degrade rather than die.
std::shared_ptr<const ml::Classifier> try_load_model(const std::string& path) {
  try {
    // Compiles tree ensembles into the flat serving engine on load.
    return ml::load_serving_classifier_file(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve: cannot load %s: %s\n", path.c_str(), e.what());
    return nullptr;
  }
}

/// Degraded-mode scorer: the paper's statistical threshold baseline, fitted
/// on a small simulated fleet.  Much weaker than the trained model, but it
/// keeps risk scores flowing while the real model file is broken.
std::shared_ptr<const ml::Classifier> fallback_model(std::uint64_t seed) {
  sim::FleetConfig cfg;
  cfg.drives_per_model = 60;
  cfg.seed = seed;
  cfg.keep_ground_truth = true;
  const sim::FleetSimulator fleet(cfg);
  core::DatasetBuildOptions opts;
  opts.lookahead_days = 1;
  opts.negative_keep_prob = 0.02;
  const ml::Dataset data = core::build_dataset(fleet, opts);
  auto baseline = ml::make_model(ml::ModelKind::kThresholdBaseline);
  baseline->fit(ml::downsample_negatives(data, 1.0, cfg.seed));
  return std::shared_ptr<const ml::Classifier>(std::move(baseline));
}

/// `block` backpressure for a CLI replay.  The stream is finite, so a full
/// ring waits out a slow appender (a rotated, fsync'd WAL can stall one
/// past the library's 100 ms) instead of shedding a record; a blocked push
/// returns as soon as an appender frees a cell.
void block_on_full_ring(daemon::DaemonConfig& cfg) {
  cfg.backpressure = daemon::Backpressure::kBlock;
  cfg.block_timeout = std::chrono::seconds(10);
}

/// Upper bound of the histogram bucket where the cumulative count crosses
/// q (the last finite bound for the +Inf bucket); 0 when nothing was seen.
double histogram_quantile(const obs::Sample& histogram, double q) {
  const double target = q * static_cast<double>(histogram.count);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < histogram.bucket_bounds.size(); ++i) {
    seen += histogram.buckets[i];
    if (seen > 0 && static_cast<double>(seen) >= target) return histogram.bucket_bounds[i];
  }
  return histogram.count == 0 ? 0.0 : histogram.bucket_bounds.back();
}

/// The `serve` report: the daemon's counts once the replay has drained.
/// `degraded` marks a replay that ended on the fallback model.
void print_serve_report(const daemon::TelemetryDaemon& daemon, bool degraded) {
  const daemon::DaemonStats stats = daemon.stats();
  const robustness::SanitizerSnapshot sanitizer = daemon.sanitizer();
  const obs::RegistrySnapshot registry = obs::MetricsRegistry::global().snapshot();
  const obs::Sample* latency = registry.find("daemon_score_latency_us");
  const auto quantile = [&](double q) {
    return latency == nullptr ? 0.0 : histogram_quantile(*latency, q);
  };
  const auto n = [](std::uint64_t x) { return static_cast<unsigned long long>(x); };
  const double alert_pct =
      stats.scored > 0
          ? 100.0 * static_cast<double>(stats.alerts) / static_cast<double>(stats.scored)
          : 0.0;
  const std::uint64_t out_of_order = sanitizer.quarantined[static_cast<std::size_t>(
      trace::ViolationKind::kNonMonotoneDays)];
  std::printf("serve metrics (%zu shard%s)%s\n"
              "  records scored      %llu\n"
              "  alerts raised       %llu (%.2f%%)\n"
              "  drives tracked      %zu (created %llu, retired %llu)\n"
              "  out-of-order drops  %llu\n"
              "  records repaired    %llu (duplicates dropped %llu)\n"
              "  records quarantined %llu (dead-lettered %zu, overflow %llu)\n"
              "  non-finite scores   %llu (clamped to 1.0)\n"
              "  score latency/rec   p50 %.0fus  p90 %.0fus  p99 %.0fus\n",
              daemon.shards(), daemon.shards() == 1 ? "" : "s",
              degraded ? "  [DEGRADED: fallback model]" : "", n(stats.scored),
              n(stats.alerts), alert_pct, stats.drives_tracked,
              n(stats.drives_tracked + stats.drives_retired), n(stats.drives_retired),
              n(out_of_order), n(sanitizer.records_repaired + sanitizer.duplicates_dropped),
              n(sanitizer.duplicates_dropped), n(sanitizer.records_quarantined),
              sanitizer.dead_letters.size(), n(sanitizer.dead_letter_overflow),
              n(stats.non_finite), quantile(0.5), quantile(0.9), quantile(0.99));
  // Per-kind breakdown, printed only for the kinds that actually occurred.
  for (trace::ViolationKind kind : trace::kAllViolationKinds) {
    const auto k = static_cast<std::size_t>(kind);
    if (sanitizer.repaired[k] == 0 && sanitizer.quarantined[k] == 0) continue;
    std::printf("    %-28s repaired %llu  quarantined %llu\n",
                std::string(trace::violation_name(kind)).c_str(), n(sanitizer.repaired[k]),
                n(sanitizer.quarantined[k]));
  }
}

int cmd_serve(const Args& args) {
  const std::string model_path = args.required("model-file");
  const sim::FleetConfig cfg = config_from(args, 200);
  daemon::DaemonConfig dcfg;  // no wal_dir: scoring in memory, nothing logged
  dcfg.threshold = args.real("threshold", 0.9);
  dcfg.shards = args.count<std::size_t>("shards", 8);
  block_on_full_ring(dcfg);
  const auto chaos_pct = args.count<unsigned>("chaos", 0);
  const std::string stream_path = args.get("metrics-stream", "");

  std::shared_ptr<const ml::Classifier> model = try_load_model(model_path);
  bool degraded = model == nullptr;
  if (degraded) {
    std::fprintf(stderr, "serve: DEGRADED — scoring on the threshold baseline\n");
    model = fallback_model(cfg.seed);
  } else {
    const bool flat = dynamic_cast<const ml::FlatForestClassifier*>(model.get()) != nullptr;
    std::printf("loaded %s from %s%s\n", model->name().c_str(), model_path.c_str(),
                flat ? " (engine flat)" : "");
  }

  const auto fleet = load_fleet(args, "serve", cfg);
  if (!fleet) return 1;

  // Optional per-replay-day metric stream: one JSON line per changed
  // sample, diffed by a Snapshotter ticked once per replay day (the replay
  // day is the service's clock).
  std::ofstream stream_out;
  std::optional<obs::Snapshotter> snapshotter;
  if (!stream_path.empty()) {
    stream_out.open(stream_path);
    if (!stream_out) {
      std::fprintf(stderr, "cannot write %s\n", stream_path.c_str());
      return 1;
    }
    stream_out.precision(17);
    snapshotter.emplace(obs::MetricsRegistry::global());
  }

  // Optional chaos: corrupt the replay stream with a seeded injector so the
  // sanitizer's repairs/quarantines show up in the final report.
  robustness::FaultInjector injector = chaos_injector(cfg.seed, chaos_pct / 100.0);

  // Bounded reload-with-backoff while degraded, measured in replay days
  // (the replay clock is the service's wall clock).
  constexpr std::int32_t kMaxBackoffDays = 64;
  std::int32_t backoff_days = 1;

  // Replay the fleet as the live stream a data-center operator would feed
  // the service: all drives reporting one calendar day, then the next.  A
  // drive whose history ends (its slot was swapped out) retires after its
  // last day.
  const std::vector<core::FleetObservation> stream = core::day_ordered_stream(*fleet);
  std::unordered_map<std::uint64_t, std::int32_t> final_day;
  for (const core::FleetObservation& obs : stream) final_day[obs.uid()] = obs.record.day;
  const std::int32_t first_day = std::min(0, stream.empty() ? 0 : stream.front().record.day);
  const std::int32_t last_day = std::max(0, stream.empty() ? 0 : stream.back().record.day);
  std::int32_t next_retry_day = first_day + backoff_days;
  const auto t0 = std::chrono::steady_clock::now();
  daemon::TelemetryDaemon daemon(model, dcfg);
  daemon.start();
  std::vector<core::FleetObservation> day_batch;
  auto run_end = stream.begin();
  for (std::int32_t day = first_day; day <= last_day; ++day) {
    if (degraded && day >= next_retry_day) {
      if (auto reloaded = try_load_model(model_path)) {
        std::printf("serve: model reload succeeded on day %d — leaving degraded mode\n",
                    day);
        daemon.drain();  // the days before stay on the fallback
        daemon.set_model(std::move(reloaded));
        degraded = false;
      } else {
        backoff_days = std::min(backoff_days * 2, kMaxBackoffDays);
        next_retry_day = day + backoff_days;
      }
    }
    const auto run_begin = run_end;
    while (run_end != stream.end() && run_end->record.day == day) ++run_end;
    if (run_begin == run_end) continue;
    day_batch.assign(run_begin, run_end);
    if (chaos_pct > 0) {
      day_batch = injector.corrupt(day_batch).observations;
      if (day_batch.empty()) continue;
    }
    for (const core::FleetObservation& obs : day_batch) (void)daemon.push(obs);
    for (auto it = run_begin; it != run_end; ++it)
      if (final_day.at(it->uid()) == day) (void)daemon.retire(it->drive_model, it->drive_index);
    if (snapshotter) {
      daemon.drain();
      for (const auto& d : snapshotter->tick()) {
        if (d.delta == 0.0) continue;
        stream_out << "{\"day\":" << day << ",\"delta\":" << d.delta
                   << ",\"sample\":" << obs::to_json(d.sample) << "}\n";
      }
    }
  }
  daemon.stop();
  const double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  std::printf("replayed days %d..%d in %.1fs (%.0f records/s%s)\n", first_day, last_day, secs,
              static_cast<double>(daemon.stats().scored) / secs,
              chaos_pct > 0 ? ", chaos on" : "");
  print_serve_report(daemon, degraded);
  if (!stream_path.empty())
    std::printf("streamed per-day metric deltas to %s\n", stream_path.c_str());
  return write_metrics_out(args) ? 0 : 1;
}

/// SIGTERM/SIGINT flag for the daemon's graceful drain.  sig_atomic_t and
/// a lock-free loop check are all a signal handler may touch.
volatile std::sig_atomic_t g_daemon_stop = 0;

extern "C" void daemon_signal_handler(int) { g_daemon_stop = 1; }

int cmd_daemon(const Args& args) {
  daemon::DaemonConfig cfg;
  cfg.wal_dir = args.required("wal-dir");
  cfg.shards = args.count<std::size_t>("shards", 4);
  cfg.ring_capacity = args.count<std::size_t>("ring", 1024);
  cfg.threshold = args.real("threshold", 0.9);
  if (args.choice("backpressure", "block", {"block", "shed"}) == "shed")
    cfg.backpressure = daemon::Backpressure::kShed;
  else
    block_on_full_ring(cfg);
  if (args.choice("fsync", "every", {"every", "never"}) == "never")
    cfg.fsync = daemon::FsyncPolicy::kNever;
  cfg.wal_rotate_bytes = args.count<std::uint64_t>("wal-rotate", 0);
  const auto producers = std::max<std::size_t>(1, args.count<std::size_t>("producers", 2));
  const auto chaos_pct = args.count<unsigned>("chaos", 0);

  // --online: the online-learning loop (src/online) as the daemon's batch
  // observer.  It needs a scoring champion (shadow AUC is meaningless
  // without champion scores) and WAL rotation (the retrainer reads the
  // store compacted from SEALED segments only).
  const bool online = args.flag("online");
  if (online && cfg.wal_rotate_bytes == 0) cfg.wal_rotate_bytes = 64 * 1024;
  online::OnlineConfig ocfg;
  ocfg.wal_dir = cfg.wal_dir;
  ocfg.retrainer.store_dir = args.get("store-dir", cfg.wal_dir + "/store");
  ocfg.model_path = args.get("promote-out", cfg.wal_dir + "/champion.bin");
  ocfg.drift.psi_alert = args.real("drift-psi", 0.25);
  ocfg.drift.ks_alert = args.real("drift-ks", 0.35);
  ocfg.drift.min_window_rows = args.count<std::uint64_t>("drift-min-rows", 512);
  ocfg.retrainer.lookahead_days = args.count<int>("online-lookahead", 7);
  ocfg.arena.min_samples = args.count<std::size_t>("online-min-samples", 256);
  ocfg.arena.min_positives = args.count<std::size_t>("online-min-positives", 8);
  ocfg.arena.promote_margin = args.real("promote-margin", 0.01);
  ocfg.retrainer.negative_keep_prob = args.real("retrain-neg-keep", 0.1);
  const auto step_days =
      std::max<std::int64_t>(1, args.count<std::int64_t>("online-step-days", 15));

  // The stream: --fleet FILE, or a simulated fleet — with --drift-day D, a
  // drifting-regime fleet whose post-drift cohort has shifted workload,
  // error, and hazard characteristics (sim/drifting_fleet.hpp), the
  // drift-gate scenario for --online.
  sim::DriftingFleetConfig dcfg;
  dcfg.base = config_from(args, 100);
  dcfg.drift.drift_day = args.count<std::int32_t>("drift-day", 0);
  dcfg.drift.drifted_fraction = args.real("drift-frac", 0.4);
  dcfg.drift.hazard_mult = args.real("drift-hazard", dcfg.drift.hazard_mult);
  dcfg.drift.error_rate_mult = args.real("drift-errors", dcfg.drift.error_rate_mult);
  dcfg.drift.bad_block_mult = args.real("drift-bad-blocks", dcfg.drift.bad_block_mult);

  {
    // Best-effort: a dir we cannot create degrades the WAL, not the run.
    std::error_code ec;
    std::filesystem::create_directories(cfg.wal_dir, ec);
  }
  const std::string model_path = args.get("model-file", "");
  std::shared_ptr<const ml::Classifier> model;
  if (!model_path.empty()) model = try_load_model(model_path);
  if (model == nullptr)
    std::fprintf(stderr, "daemon: DEGRADED — ingesting and WAL-ing without scores\n");
  std::unique_ptr<online::OnlineLearner> learner;
  if (online) {
    if (model == nullptr) {
      std::fprintf(stderr, "daemon: --online requires a loadable --model-file\n");
      return 2;
    }
    learner = std::make_unique<online::OnlineLearner>(std::move(ocfg));
    cfg.batch_observer = learner.get();
  }

  daemon::TelemetryDaemon daemon(model, cfg);
  if (learner != nullptr) learner->attach(&daemon);
  daemon.start();  // replays any WAL left in --wal-dir
  const daemon::DaemonStats after_recovery = daemon.stats();
  if (after_recovery.recovery.segments_replayed > 0 ||
      after_recovery.recovery.truncated_bytes > 0)
    std::printf(
        "recovered %llu segments (%llu records, %llu retires), skipped %llu "
        "duplicates, truncated %llu torn bytes\n",
        static_cast<unsigned long long>(after_recovery.recovery.segments_replayed),
        static_cast<unsigned long long>(after_recovery.recovery.records_replayed),
        static_cast<unsigned long long>(after_recovery.recovery.retires_replayed),
        static_cast<unsigned long long>(after_recovery.recovery.duplicates_skipped),
        static_cast<unsigned long long>(after_recovery.recovery.truncated_bytes));

  if (args.flag("recover-only")) {
    daemon.stop();
    const std::uint64_t digest = daemon.state_digest();
    std::printf("recovered state: %zu drives tracked, digest %016llx\n",
                after_recovery.drives_tracked,
                static_cast<unsigned long long>(digest));
    return write_digest(args, digest) ? 0 : 1;
  }

  // One observation per drive-day, day-ordered, with optional seeded
  // pre-corruption (single-threaded so the fault sequence is reproducible
  // regardless of --producers).
  const auto fleet = args.flag("drift-day") && !args.flag("fleet")
                         ? sim::DriftingFleetSimulator(dcfg).generate_all()
                         : load_fleet(args, "daemon", dcfg.base, /*announce=*/false);
  if (!fleet) return 1;
  std::vector<core::FleetObservation> stream = core::day_ordered_stream(*fleet);
  if (chaos_pct > 0)
    stream = chaos_injector(dcfg.base.seed, chaos_pct / 100.0).corrupt(stream).observations;

  std::signal(SIGTERM, daemon_signal_handler);
  std::signal(SIGINT, daemon_signal_handler);

  const auto t0 = std::chrono::steady_clock::now();
  if (online) {
    // Day-paced ingest: push one stream day, drain it through the
    // pipeline and the learner's shadow tap, and run the learner's control
    // step every K stream days — so drift windows, retraining, and shadow
    // scoring interleave with ingest exactly as they would against a
    // real-time fleet, just with stream days standing in for wall-clock
    // days.  Draining the tap each day keeps the replay, which runs far
    // faster than a real day, from overrunning the tap's bounded queue:
    // on a busy host a lagging shadow thread would otherwise shed batches
    // and their labels, and the drill's verdicts would depend on timing.
    //
    // Retirements are routed to retire() after the drive's last record:
    // the compactor turns kRetires into SwapEvents, which is what gives
    // the retrainer its positive labels.  A drive retires when its stream
    // carries a dead-flagged limbo record, or when the trace shows a
    // terminal swap (last swap after the last record — the drive was
    // replaced and never re-entered).  Mid-life swaps with repair
    // re-entry are not routed: retire() is terminal in the health
    // tracker, and a retire pinned at the post-repair tail would mislabel
    // the early failure anyway.
    std::unordered_map<std::uint64_t, std::size_t> last_index_of_retired;
    for (const auto& d : fleet->drives) {
      const bool dead_flagged =
          std::any_of(d.records.begin(), d.records.end(),
                      [](const trace::DailyRecord& r) { return r.dead; });
      const bool terminal_swap = !d.swaps.empty() && !d.records.empty() &&
                                 d.swaps.back().day > d.records.back().day;
      if (dead_flagged || terminal_swap) last_index_of_retired[d.uid()] = 0;
    }
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const auto it = last_index_of_retired.find(stream[i].uid());
      if (it != last_index_of_retired.end()) it->second = i;  // last record wins
    }
    std::int64_t last_step_day = std::numeric_limits<std::int64_t>::min() / 2;
    std::size_t i = 0;
    while (i < stream.size() && g_daemon_stop == 0) {
      const std::int32_t day = stream[i].record.day;
      for (; i < stream.size() && stream[i].record.day == day; ++i) {
        (void)daemon.push(stream[i]);
        const auto it = last_index_of_retired.find(stream[i].uid());
        if (it != last_index_of_retired.end() && it->second == i)
          daemon.retire(stream[i].drive_model, stream[i].drive_index);
      }
      daemon.drain();
      learner->drain_shadow();
      if (day - last_step_day >= step_days) {
        const online::StepReport report = learner->step();
        last_step_day = day;
        const online::ArenaVerdict& verdict = report.verdict;
        std::printf(
            "online step day %d: drift psi %.3f ks %.3f%s, window %llu rows%s%s%s",
            day, report.drift.max_psi, report.drift.max_ks,
            report.drift.alert ? " ALERT" : "",
            static_cast<unsigned long long>(report.drift.window_rows),
            report.retrained ? ", retrained" : "",
            verdict.enough_data ? "" : " (gate: warming)",
            report.promoted ? ", PROMOTED" : "");
        // Say why a dropped challenger lost, so a run that never promotes
        // shows what the gate saw.
        if (report.challenger_dropped)
          std::printf(", gate held (%s): %s, champion auc %.4f, challenger auc %.4f",
                      verdict.challenger.c_str(), verdict.reason.c_str(),
                      verdict.champion_auc, verdict.challenger_auc);
        std::printf("\n");
      }
    }
    daemon.stop();  // graceful drain: rings emptied, WALs fsynced
  } else {
    // Producers partition the stream BY DRIVE (uid mod producers) so each
    // drive's records are pushed in day order by exactly one thread.
    std::vector<std::thread> threads;
    threads.reserve(producers);
    for (std::size_t p = 0; p < producers; ++p) {
      threads.emplace_back([&, p] {
        for (const core::FleetObservation& obs : stream) {
          if (g_daemon_stop != 0) return;
          if (static_cast<std::size_t>(obs.uid() % producers) != p) continue;
          (void)daemon.push(obs);
        }
      });
    }
    for (auto& t : threads) t.join();
    daemon.stop();  // graceful drain: rings emptied, WALs fsynced
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  const daemon::DaemonStats stats = daemon.stats();
  std::printf(
      "%s after %.1fs: ingested %llu (%.0f rows/s), shed %llu, scored %llu, "
      "alerts %llu, quarantined %llu, wal segments %llu (%llu bytes)%s%s\n",
      g_daemon_stop != 0 ? "drained on signal" : "stream complete", secs,
      static_cast<unsigned long long>(stats.ingested),
      static_cast<double>(stats.ingested) / std::max(secs, 1e-9),
      static_cast<unsigned long long>(stats.shed),
      static_cast<unsigned long long>(stats.scored),
      static_cast<unsigned long long>(stats.alerts),
      static_cast<unsigned long long>(stats.quarantined),
      static_cast<unsigned long long>(stats.segments_appended),
      static_cast<unsigned long long>(stats.wal_bytes),
      stats.degraded ? ", DEGRADED (no model)" : "",
      stats.wal_degraded ? ", WAL-DEGRADED" : "");
  std::printf("health: %llu healthy, %llu ramping, %llu alert, %llu swapped "
              "(%zu drives tracked)\n",
              static_cast<unsigned long long>(stats.health_counts[0]),
              static_cast<unsigned long long>(stats.health_counts[1]),
              static_cast<unsigned long long>(stats.health_counts[2]),
              static_cast<unsigned long long>(stats.health_counts[3]),
              stats.drives_tracked);
  if (online) {
    std::printf("online: %llu steps, %zu promotions\n",
                static_cast<unsigned long long>(learner->steps_run()),
                learner->promotions().size());
    for (const auto& p : learner->promotions())
      std::printf("promotion: challenger=%s champion_auc=%.4f "
                  "challenger_auc=%.4f matured=%zu day=%d\n",
                  p.challenger.c_str(), p.champion_auc, p.challenger_auc,
                  p.matured_rows, p.watermark_day);
  }
  const std::uint64_t digest = daemon.state_digest();
  std::printf("state digest: %016llx\n", static_cast<unsigned long long>(digest));
  return write_digest(args, digest) && write_metrics_out(args) ? 0 : 1;
}

/// Sketch one fleet for the drift report: a sharded store directory
/// (manifest.ssdm) or a single columnar .ssdf2 file.
std::optional<online::FeatureSketches> sketch_path(const std::string& path) {
  try {
    if (std::filesystem::is_directory(path))
      return online::sketch_fleet(store::ShardedFleetView::open(path));
    return online::sketch_fleet(store::ColumnarFleetView::open(path));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "drift: cannot sketch %s: %s\n", path.c_str(), e.what());
    return std::nullopt;
  }
}

/// Offline shard-vs-shard drift report (online/drift.hpp): per-column PSI
/// and binned KS between a reference fleet and a current one.  Exit 0 when
/// quiet, 3 when drift exceeds the thresholds — scriptable as a CI gate.
int cmd_drift(const Args& args) {
  const std::string ref_path = args.required("reference");
  const std::string cur_path = args.required("current");
  online::DriftConfig config;
  config.psi_alert = args.real("psi", 0.25);
  config.ks_alert = args.real("ks", 0.35);
  config.min_window_rows = args.count<std::uint64_t>("min-rows", 1);
  const auto reference = sketch_path(ref_path);
  const auto current = sketch_path(cur_path);
  if (!reference || !current) return 1;
  const online::DriftReport report =
      online::compare_fleets(*reference, *current, config);

  io::TextTable table("drift: reference vs current, per zone column");
  table.set_header({"column", "psi", "ks", "status"});
  for (std::size_t c = 0; c < store::kNumZoneColumns; ++c) {
    const online::DriftStat& stat = report.columns[c];
    const bool hot = stat.psi >= config.psi_alert || stat.ks >= config.ks_alert;
    table.add_row({online::zone_column_name(static_cast<store::ZoneColumn>(c)),
                   io::TextTable::num(stat.psi), io::TextTable::num(stat.ks),
                   hot ? "DRIFT" : "ok"});
  }
  table.print(std::cout);
  std::printf("reference %llu rows, current %llu rows; max psi %.4f (%s), "
              "max ks %.4f -> %s\n",
              static_cast<unsigned long long>(report.reference_rows),
              static_cast<unsigned long long>(report.window_rows), report.max_psi,
              online::zone_column_name(
                  static_cast<store::ZoneColumn>(report.worst_column))
                  .c_str(),
              report.max_ks, report.alert ? "DRIFT" : "stable");
  return report.alert ? 3 : 0;
}

/// Built-in end-to-end smoke that exercises every instrumented layer —
/// simulator, trace I/O, training (CV + forest), thread pool, daemon,
/// sanitizer (via chaos) — then prints the Prometheus exposition.  CI's
/// metrics-lint step validates this output (scripts/metrics_lint.py).
int cmd_metrics(const Args& args) {
  sim::FleetConfig cfg = config_from(args, 30);
  cfg.keep_ground_truth = true;
  const std::string out_path = args.get("out", "");
  const sim::FleetSimulator sim_fleet(cfg);

  // Trace I/O byte counters: binary round-trip through a string stream.
  const trace::FleetTrace fleet = sim_fleet.generate_all();
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  trace::write_binary(buffer, fleet);
  buffer.seekg(0);
  (void)trace::read_binary(buffer);

  // Training metrics: a small cross-validated forest (cv.fold spans,
  // forest tree counters, thread-pool task metrics).
  core::DatasetBuildOptions opts;
  opts.lookahead_days = 1;
  opts.negative_keep_prob = 0.05;
  const ml::Dataset data = core::build_dataset(sim_fleet, opts);
  const auto model = ml::make_model(ml::ModelKind::kRandomForest);
  (void)core::evaluate_auc(*model, data);

  // Daemon + sanitizer metrics: replay the fleet with chaos, in memory,
  // so repairs and quarantines occur.
  auto scorer = ml::make_model(ml::ModelKind::kThresholdBaseline);
  scorer->fit(ml::downsample_negatives(data, 1.0, cfg.seed));
  daemon::DaemonConfig dcfg;
  dcfg.shards = 4;
  dcfg.threshold = 0.9;
  block_on_full_ring(dcfg);
  daemon::TelemetryDaemon daemon(std::shared_ptr<const ml::Classifier>(std::move(scorer)),
                                 dcfg);
  daemon.start();
  for (const core::FleetObservation& obs :
       chaos_injector(cfg.seed, 0.10).corrupt(core::day_ordered_stream(fleet)).observations)
    (void)daemon.push(obs);
  daemon.stop();

  const auto snapshot = dump_prometheus(out_path);
  if (!snapshot) return 1;
  if (!out_path.empty())
    std::fprintf(stderr, "wrote %s (%zu samples)\n", out_path.c_str(),
                 snapshot->samples.size());
  return 0;
}

/// One subcommand: its name, its handler, and its usage synopsis.  The
/// synopsis is also the flag list: a command takes exactly the `--name`
/// tokens it shows, plus the global --threads.  '\n' continues the
/// synopsis on an indented line.
struct Command {
  const char* name;
  int (*run)(const Args&);
  const char* synopsis;
};

const Command kCommands[] = {
    {"simulate", cmd_simulate,
     "--drives N [--days N] [--seed S] --out PREFIX\n"
     "[--device-class mlc|hdd|nvme|mixed]\n"
     "[--binary | --columnar [--chunk N]]"},
    {"analyze", cmd_analyze, "--in PREFIX [--binary]"},
    {"convert", cmd_convert, "--in FILE --out FILE [--to v1|v2|v3] [--chunk N]"},
    {"compact", cmd_compact, "--wal-dir DIR --store-dir DIR [--chunk N] [--keep-wal]"},
    {"benchmark", cmd_benchmark, "[--drives N] [--days N] [--lookahead N] [--seed S]"},
    {"transfer", cmd_transfer,
     "[--drives N | --fleet FILE] [--days N] [--seed S]\n"
     "[--lookahead N] [--label failure|uncorrectable]\n"
     "[--neg-keep P] [--train-frac F] [--train-ratio R]\n"
     "[--split-seed S] [--model forest|logistic] [--gate]\n"
     "(3x3 train-class x test-class AUC matrix;\n"
     "--gate: exit 3 unless the diagonal dominates)"},
    {"train", cmd_train,
     "--out MODEL.bin [--model forest|logistic]\n"
     "[--drives N | --fleet FILE] [--days N] [--seed S]\n"
     "[--lookahead N] [--metrics-out FILE]"},
    {"serve", cmd_serve,
     "--model-file MODEL.bin [--drives N | --fleet FILE]\n"
     "[--days N] [--seed S] [--threshold T] [--shards K]\n"
     "[--chaos PCT] [--metrics-out FILE]\n"
     "[--metrics-stream FILE]"},
    {"daemon", cmd_daemon,
     "--wal-dir DIR [--model-file MODEL.bin]\n"
     "[--drives N | --fleet FILE] [--days N] [--seed S]\n"
     "[--producers P] [--shards K] [--ring N]\n"
     "[--backpressure block|shed] [--fsync every|never]\n"
     "[--wal-rotate BYTES]\n"
     "[--threshold T] [--chaos PCT] [--recover-only]\n"
     "[--state-digest-out FILE] [--metrics-out FILE]\n"
     "[--online --store-dir DIR [--promote-out FILE]\n"
     " --online-step-days K --online-lookahead N\n"
     " --online-min-samples N --online-min-positives N\n"
     " --promote-margin M --drift-psi T --drift-ks T\n"
     " --drift-min-rows N --retrain-neg-keep P\n"
     " --drift-day D --drift-frac F --drift-hazard M\n"
     " --drift-errors M --drift-bad-blocks M]"},
    {"drift", cmd_drift,
     "--reference PATH --current PATH [--psi T] [--ks T]\n"
     "[--min-rows N]   (PATH: .ssdf2 file or store dir;\n"
     "exit 3 when drift exceeds thresholds)"},
    {"metrics", cmd_metrics, "[--out FILE] [--drives N] [--days N] [--seed S]"},
};

int usage() {
  std::string text = "usage:\n";
  for (const Command& c : kCommands) {
    text += "  ssdfail_cli " + std::string(c.name) + std::string(10 - std::strlen(c.name), ' ');
    for (const char* p = c.synopsis; *p != '\0'; ++p)
      text += *p == '\n' ? "\n" + std::string(24, ' ') : std::string(1, *p);
    text += '\n';
  }
  std::fprintf(stderr, "%s  every subcommand also takes [--threads K] (worker-thread cap)\n",
               text.c_str());
  return 2;
}

/// Whether `command` takes `key`: one of the `--name` tokens of its
/// synopsis, or the global --threads.
bool takes(const Command& command, std::string_view key) {
  const std::string_view synopsis = command.synopsis;
  for (auto at = synopsis.find("--"); at != std::string_view::npos;
       at = synopsis.find("--", at + 2)) {
    const auto end = synopsis.find_first_not_of("abcdefghijklmnopqrstuvwxyz0123456789-", at + 2);
    if (synopsis.substr(at, end - at) == key) return true;
  }
  return key == "--threads";
}

/// `--name [value]` pairs (a flag followed by another flag, or last, is
/// "1").  Throws UsageError on anything `command` does not take.
Args parse(const Command& command, int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    if (!takes(command, key)) throw UsageError("does not take '" + key + "'");
    const bool valued = i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0;
    args.named[key] = valued ? argv[++i] : "1";
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Command* command = nullptr;
  for (const Command& c : kCommands)
    if (argc >= 2 && std::string_view(argv[1]) == c.name) command = &c;
  if (command == nullptr) return usage();
  try {
    const Args args = parse(*command, argc, argv);
    // Cap worker threads before the first pool use (beats SSDFAIL_THREADS).
    // Results are identical at any thread count; only wall time changes.
    if (const auto threads = args.count<unsigned>("threads", 0); threads > 0)
      parallel::set_default_thread_count(threads);
    return command->run(args);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "ssdfail_cli %s: %s\n", command->name, e.what());
    return usage();
  }
}
