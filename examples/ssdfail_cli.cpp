// ssdfail_cli — command-line front end for the library.
//
//   ssdfail_cli simulate   --drives N --seed S --out PREFIX [--binary|--columnar]
//   ssdfail_cli analyze    --in PREFIX [--binary]
//   ssdfail_cli convert    --in FILE --out FILE [--to v1|v2|v3] [--chunk N]
//   ssdfail_cli compact    --wal-dir DIR --store-dir DIR
//   ssdfail_cli benchmark  --drives N [--lookahead N]
//   ssdfail_cli transfer   [--drives N | --fleet FILE] [--gate] ...
//   ssdfail_cli train      --out MODEL.bin [--model forest|logistic] ...
//   ssdfail_cli serve      --model-file MODEL.bin [--shards K] ...
//   ssdfail_cli daemon     --wal-dir DIR [--model-file MODEL.bin] ...
//   ssdfail_cli metrics    [--out FILE] [--drives N]
//
// `simulate` writes a fleet as PREFIX_daily.csv + PREFIX_swaps.csv (or
// PREFIX.bin with --binary for the v1 row format, --columnar for the v2
// columnar store); `analyze` re-imports and prints the headline
// characterization (binary reads auto-detect the version); `convert`
// re-encodes a binary fleet between v1, v2 and v3 (compressed columnar)
// and reports bytes/row; `compact` folds the daemon's sealed WAL segments
// into v3 shards of a sharded store (daemon/compactor.hpp); `benchmark`
// trains the
// paper's random forest and reports cross-validated AUC.  `train` fits a
// model once and persists it (ml/serialize); `serve` loads it and replays
// a fleet as a day-ordered stream through the sharded FleetMonitor,
// printing the metrics snapshot — the always-on scoring service in
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
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/dataset_builder.hpp"
#include "core/transfer.hpp"
#include "daemon/compactor.hpp"
#include "daemon/daemon.hpp"
#include "core/fleet_analysis.hpp"
#include "core/online_monitor.hpp"
#include "core/prediction.hpp"
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

struct Args {
  std::map<std::string, std::string> named;
  bool flag(const std::string& name) const { return named.count("--" + name) > 0; }
  std::string get(const std::string& name, const std::string& fallback) const {
    const auto it = named.find("--" + name);
    return it == named.end() ? fallback : it->second;
  }
  long get_long(const std::string& name, long fallback) const {
    const auto it = named.find("--" + name);
    return it == named.end() ? fallback : std::strtol(it->second.c_str(), nullptr, 10);
  }
};

Args parse(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) continue;
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args.named[key] = argv[i + 1];
      ++i;
    } else {
      args.named[key] = "1";
    }
  }
  return args;
}

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  ssdfail_cli simulate  --drives N [--days N] [--seed S] --out PREFIX\n"
      "                        [--device-class mlc|hdd|nvme|mixed]\n"
      "                        [--binary | --columnar [--chunk N]]\n"
      "  ssdfail_cli analyze   --in PREFIX [--binary]\n"
      "  ssdfail_cli convert   --in FILE --out FILE [--to v1|v2|v3] [--chunk N]\n"
      "  ssdfail_cli compact   --wal-dir DIR --store-dir DIR [--chunk N] [--keep-wal]\n"
      "  ssdfail_cli benchmark [--drives N] [--lookahead N] [--seed S]\n"
      "  ssdfail_cli transfer  [--drives N | --fleet FILE] [--days N] [--seed S]\n"
      "                        [--lookahead N] [--label failure|uncorrectable]\n"
      "                        [--neg-keep P] [--train-frac F] [--train-ratio R]\n"
      "                        [--split-seed S] [--model forest|logistic] [--gate]\n"
      "                        (3x3 train-class x test-class AUC matrix;\n"
      "                        --gate: exit 3 unless the diagonal dominates)\n"
      "  ssdfail_cli train     --out MODEL.bin [--model forest|logistic]\n"
      "                        [--drives N | --fleet FILE] [--seed S]\n"
      "                        [--lookahead N] [--threads K] [--metrics-out FILE]\n"
      "  ssdfail_cli serve     --model-file MODEL.bin [--drives N | --fleet FILE]\n"
      "                        [--seed S] [--threshold T] [--shards K]\n"
      "                        [--engine flat|walker] [--sequential]\n"
      "                        [--chaos PCT] [--metrics-out FILE]\n"
      "                        [--metrics-stream FILE]\n"
      "  ssdfail_cli daemon    --wal-dir DIR [--model-file MODEL.bin]\n"
      "                        [--drives N | --fleet FILE] [--days N] [--seed S]\n"
      "                        [--producers P] [--shards K] [--ring N]\n"
      "                        [--backpressure block|shed] [--fsync every|never]\n"
      "                        [--wal-rotate BYTES]\n"
      "                        [--threshold T] [--chaos PCT] [--recover-only]\n"
      "                        [--state-digest-out FILE] [--metrics-out FILE]\n"
      "                        [--online --store-dir DIR [--promote-out FILE]\n"
      "                         --online-step-days K --online-lookahead N\n"
      "                         --online-min-samples N --online-min-positives N\n"
      "                         --promote-margin M --drift-psi T --drift-ks T\n"
      "                         --drift-min-rows N\n"
      "                         --retrain-always --drift-day D --drift-frac F\n"
      "                         --drift-hazard M --drift-errors M\n"
      "                         --drift-bad-blocks M]\n"
      "  ssdfail_cli drift     --reference PATH --current PATH [--psi T] [--ks T]\n"
      "                        [--min-rows N]   (PATH: .ssdf2 file or store dir;\n"
      "                        exit 3 when drift exceeds thresholds)\n"
      "  ssdfail_cli metrics   [--out FILE] [--drives N] [--seed S]\n");
  return 2;
}

/// Publish the trace aggregates into the global registry and dump it as
/// Prometheus text to `path` plus JSON lines to `path`.jsonl.  Returns
/// false (with a logged reason) on I/O failure.
bool write_metrics_out(const std::string& path) {
  obs::TraceCollector::global().publish(obs::MetricsRegistry::global());
  const obs::RegistrySnapshot snapshot = obs::MetricsRegistry::global().snapshot();
  std::ofstream prom(path);
  if (!prom) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  obs::write_prometheus(prom, snapshot);
  const std::string jsonl_path = path + ".jsonl";
  std::ofstream jsonl(jsonl_path);
  if (!jsonl) {
    std::fprintf(stderr, "cannot write %s\n", jsonl_path.c_str());
    return false;
  }
  obs::write_json_lines(jsonl, snapshot);
  std::printf("wrote %s (%zu samples) + %s\n", path.c_str(), snapshot.samples.size(),
              jsonl_path.c_str());
  return true;
}

/// Resolve `--device-class mlc|hdd|nvme|mixed` into the fleet's model list.
/// Default "mlc" keeps every pre-existing CLI invocation bit-identical.
bool apply_device_class(sim::FleetConfig& cfg, const Args& args) {
  const std::string klass = args.get("device-class", "mlc");
  if (klass == "mlc") {
    // FleetConfig default: the paper's three MLC models.
  } else if (klass == "hdd") {
    cfg = cfg.for_class(trace::DeviceClass::kHdd);
  } else if (klass == "nvme") {
    cfg = cfg.for_class(trace::DeviceClass::kNvmeSsd);
  } else if (klass == "mixed") {
    cfg = cfg.mixed();
  } else {
    std::fprintf(stderr, "--device-class must be 'mlc', 'hdd', 'nvme' or 'mixed'\n");
    return false;
  }
  return true;
}

sim::FleetConfig config_from(const Args& args) {
  sim::FleetConfig cfg;
  cfg.drives_per_model = static_cast<std::uint32_t>(args.get_long("drives", 500));
  cfg.seed = static_cast<std::uint64_t>(args.get_long("seed", 2019));
  cfg.window_days =
      static_cast<std::int32_t>(args.get_long("days", cfg.window_days));
  cfg.keep_ground_truth = false;  // CLI emits observable data only
  return cfg;
}

int cmd_simulate(const Args& args) {
  const std::string prefix = args.get("out", "");
  if (prefix.empty()) return usage();
  sim::FleetConfig cfg = config_from(args);
  if (!apply_device_class(cfg, args)) return 2;
  std::printf("simulating %u drives/model x %zu models (seed %llu)...\n",
              cfg.drives_per_model, cfg.models.size(),
              static_cast<unsigned long long>(cfg.seed));
  const trace::FleetTrace fleet = sim::FleetSimulator(cfg).generate_all();
  if (args.flag("columnar")) {
    std::ofstream out(prefix + ".bin", std::ios::binary);
    trace::write_binary_v2(out, fleet,
                           static_cast<std::uint32_t>(args.get_long("chunk", 0)));
    std::printf("wrote %s.bin (columnar v2, %zu drive-days)\n", prefix.c_str(),
                fleet.total_records());
  } else if (args.flag("binary")) {
    std::ofstream out(prefix + ".bin", std::ios::binary);
    trace::write_binary(out, fleet);
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
  const std::string prefix = args.get("in", "");
  if (prefix.empty()) return usage();
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
  const std::string in_path = args.get("in", "");
  const std::string out_path = args.get("out", "");
  if (in_path.empty() || out_path.empty()) return usage();
  const std::string to = args.get("to", "v2");
  std::uint32_t to_version = 0;
  if (to == "v1") to_version = trace::kBinaryFormatVersion;
  else if (to == "v2") to_version = trace::kColumnarFormatVersion;
  else if (to == "v3") to_version = trace::kColumnarV3FormatVersion;
  else {
    std::fprintf(stderr, "convert: --to must be 'v1', 'v2' or 'v3'\n");
    return 2;
  }
  std::ifstream in(in_path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", in_path.c_str());
    return 1;
  }
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  try {
    const std::uint32_t from_version = trace::peek_binary_version(in);
    const std::size_t rows = trace::convert_binary(
        in, out, to_version, static_cast<std::uint32_t>(args.get_long("chunk", 0)));
    out.flush();
    if (!out) {
      std::fprintf(stderr, "write failed for %s\n", out_path.c_str());
      return 1;
    }
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
  const std::string wal_dir = args.get("wal-dir", "");
  const std::string store_dir = args.get("store-dir", "");
  if (wal_dir.empty() || store_dir.empty()) return usage();
  daemon::CompactorOptions options;
  options.keep_wal = args.flag("keep-wal");
  const long chunk = args.get_long("chunk", 0);
  if (chunk > 0) options.store.chunk_drives = static_cast<std::uint32_t>(chunk);
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
  } catch (const std::exception& e) {
    std::fprintf(stderr, "compact: %s\n", e.what());
    return 1;
  }
  return 0;
}

int cmd_benchmark(const Args& args) {
  sim::FleetConfig cfg = config_from(args);
  cfg.keep_ground_truth = true;
  const sim::FleetSimulator fleet(cfg);
  core::DatasetBuildOptions opts;
  opts.lookahead_days = static_cast<int>(args.get_long("lookahead", 1));
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
  sim::FleetConfig cfg = config_from(args);
  // Defaults are the gate configuration: large enough that every class's
  // train half holds a stable positive count (NVMe failures are the
  // scarcest) and the column structure is well clear of split noise.
  cfg.drives_per_model = static_cast<std::uint32_t>(args.get_long("drives", 800));
  cfg.keep_ground_truth = true;
  cfg = cfg.mixed();  // transfer needs every class present

  trace::FleetTrace fleet;
  const std::string fleet_path = args.get("fleet", "");
  if (!fleet_path.empty()) {
    try {
      std::ifstream in(fleet_path, std::ios::binary);
      if (!in) throw std::runtime_error("cannot open " + fleet_path);
      fleet = trace::read_binary(in);
      std::printf("loaded %zu drives (%zu drive-days) from %s\n", fleet.drives.size(),
                  fleet.total_records(), fleet_path.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "transfer: %s\n", e.what());
      return 1;
    }
  } else {
    std::printf("simulating mixed fleet: %u drives/model x %zu models (seed %llu)...\n",
                cfg.drives_per_model, cfg.models.size(),
                static_cast<unsigned long long>(cfg.seed));
    fleet = sim::FleetSimulator(cfg).generate_all();
  }

  core::TransferOptions opts;
  opts.build.lookahead_days = static_cast<int>(args.get_long("lookahead", 10));
  opts.build.negative_keep_prob =
      std::strtod(args.get("neg-keep", "0.05").c_str(), nullptr);
  const std::string label = args.get("label", "failure");
  if (label == "uncorrectable") {
    // Error-occurrence label (Table 8 style): positives are dense, but the
    // UE process is mechanically similar across classes so cross-class
    // transfer works WELL under this label — useful as a contrast run, not
    // expected to show diagonal dominance.
    opts.build.error_label = trace::ErrorType::kUncorrectable;
    opts.build.positive_keep_prob = 0.5;
  } else if (label != "failure") {
    std::fprintf(stderr, "transfer: --label must be 'failure' or 'uncorrectable'\n");
    return 2;
  }
  opts.train_fraction = std::strtod(args.get("train-frac", "0.5").c_str(), nullptr);
  // Keep several negatives per positive: classes with few positives (NVMe
  // failures are infant-heavy and scarce) need the extra rows for a stable
  // forest, and plentiful classes are unaffected in ranking terms.
  opts.protocol.train_downsample_ratio =
      std::strtod(args.get("train-ratio", "4").c_str(), nullptr);
  opts.split_seed = static_cast<std::uint64_t>(args.get_long("split-seed", 77));
  const std::string kind = args.get("model", "forest");
  if (kind == "logistic") {
    opts.model = ml::ModelKind::kLogisticRegression;
  } else if (kind != "forest") {
    std::fprintf(stderr, "transfer: --model must be 'forest' or 'logistic'\n");
    return 2;
  }

  core::TransferMatrix matrix;
  try {
    matrix = core::cross_class_transfer(fleet, opts);
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
  const std::string out_path = args.get("out", "");
  if (out_path.empty()) return usage();
  const std::string kind = args.get("model", "forest");
  if (kind != "forest" && kind != "logistic") {
    std::fprintf(stderr, "train: --model must be 'forest' or 'logistic'\n");
    return 2;
  }

  sim::FleetConfig cfg = config_from(args);
  cfg.keep_ground_truth = true;
  core::DatasetBuildOptions opts;
  opts.lookahead_days = static_cast<int>(args.get_long("lookahead", 1));
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
  const std::string metrics_path = args.get("metrics-out", "");
  if (!metrics_path.empty() && !write_metrics_out(metrics_path)) return 1;
  return 0;
}

/// Try to load the serving model; returns nullptr (with a logged reason)
/// instead of throwing, so `serve` can degrade rather than die.
std::shared_ptr<const ml::Classifier> try_load_model(const std::string& path) {
  try {
    // Compiles tree ensembles for the selected inference engine on load.
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

int cmd_serve(const Args& args) {
  const std::string model_path = args.get("model-file", "");
  if (model_path.empty()) return usage();

  const std::string engine_name =
      args.get("engine", std::string(ml::inference_engine_name(ml::inference_engine())));
  const auto engine = ml::parse_inference_engine(engine_name);
  if (!engine) {
    std::fprintf(stderr, "serve: unknown engine '%s' (flat|walker)\n",
                 engine_name.c_str());
    return usage();
  }
  ml::set_inference_engine(*engine);

  sim::FleetConfig cfg = config_from(args);
  cfg.drives_per_model = static_cast<std::uint32_t>(args.get_long("drives", 200));

  std::shared_ptr<const ml::Classifier> model = try_load_model(model_path);
  bool degraded = model == nullptr;
  if (degraded) {
    std::fprintf(stderr, "serve: DEGRADED — scoring on the threshold baseline\n");
    model = fallback_model(cfg.seed);
  } else {
    std::printf("loaded %s from %s (engine %s)\n", model->name().c_str(),
                model_path.c_str(), engine_name.c_str());
  }

  trace::FleetTrace fleet;
  const std::string fleet_path = args.get("fleet", "");
  if (!fleet_path.empty()) {
    try {
      // read_binary auto-detects v1/v2; the replay loop needs row structs
      // either way, so a v2 file is materialized on load.
      std::ifstream in(fleet_path, std::ios::binary);
      if (!in) throw std::runtime_error("cannot open " + fleet_path);
      fleet = trace::read_binary(in);
      std::printf("loaded %zu drives (%zu drive-days) from %s\n", fleet.drives.size(),
                  fleet.total_records(), fleet_path.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "serve: %s\n", e.what());
      return 1;
    }
  } else {
    fleet = sim::FleetSimulator(cfg).generate_all();
  }

  const double threshold = std::strtod(args.get("threshold", "0.9").c_str(), nullptr);
  const auto shards = static_cast<std::size_t>(args.get_long("shards", 8));
  core::FleetMonitor monitor(model, threshold, shards);
  monitor.set_degraded(degraded);

  // Optional per-replay-day metric stream: one JSON line per changed
  // sample, diffed by a manually ticked Snapshotter (the replay day is the
  // service's clock, so cadence 0 + force gives one capture per day).
  const std::string stream_path = args.get("metrics-stream", "");
  std::ofstream stream_out;
  std::optional<obs::Snapshotter> snapshotter;
  if (!stream_path.empty()) {
    stream_out.open(stream_path);
    if (!stream_out) {
      std::fprintf(stderr, "cannot write %s\n", stream_path.c_str());
      return 1;
    }
    stream_out.precision(17);
    snapshotter.emplace(obs::MetricsRegistry::global(), std::chrono::milliseconds(0));
  }

  // Optional chaos: corrupt the replay stream with a seeded injector so the
  // sanitizer's repairs/quarantines show up in the final report.
  const long chaos_pct = args.get_long("chaos", 0);
  robustness::FaultInjector injector(
      cfg.seed ^ 0x9e3779b97f4a7c15ull,
      robustness::FaultRates::uniform(static_cast<double>(chaos_pct) / 100.0));

  // Bounded reload-with-backoff while degraded, measured in replay days
  // (the replay clock is the service's wall clock).
  constexpr std::int32_t kMaxBackoffDays = 64;
  std::int32_t backoff_days = 1;

  // Replay the fleet as the live stream a data-center operator would feed
  // the service: one batch per calendar day, all drives reporting that day.
  std::int32_t first_day = 0;
  std::int32_t last_day = 0;
  for (const auto& d : fleet.drives) {
    if (d.records.empty()) continue;
    first_day = std::min(first_day, d.records.front().day);
    last_day = std::max(last_day, d.records.back().day);
  }
  std::int32_t next_retry_day = first_day + backoff_days;
  std::vector<std::size_t> cursor(fleet.drives.size(), 0);
  const bool sequential = args.flag("sequential");
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<core::FleetObservation> day_batch;
  for (std::int32_t day = first_day; day <= last_day; ++day) {
    if (degraded && day >= next_retry_day) {
      if (auto reloaded = try_load_model(model_path)) {
        std::printf("serve: model reload succeeded on day %d — leaving degraded mode\n",
                    day);
        model = std::move(reloaded);
        monitor.set_model(model);
        degraded = false;
        monitor.set_degraded(false);
      } else {
        backoff_days = std::min(backoff_days * 2, kMaxBackoffDays);
        next_retry_day = day + backoff_days;
      }
    }
    day_batch.clear();
    for (std::size_t d = 0; d < fleet.drives.size(); ++d) {
      const auto& drive = fleet.drives[d];
      if (cursor[d] >= drive.records.size() || drive.records[cursor[d]].day != day)
        continue;
      day_batch.push_back({drive.model, drive.drive_index, drive.deploy_day,
                           drive.records[cursor[d]]});
      ++cursor[d];
    }
    if (day_batch.empty()) continue;
    if (chaos_pct > 0) {
      const auto corrupted = injector.corrupt(day_batch);
      day_batch = corrupted.observations;
      if (day_batch.empty()) continue;
    }
    if (sequential) {
      for (const auto& obs : day_batch)
        (void)monitor.observe(obs.drive_model, obs.drive_index, obs.deploy_day,
                              obs.record);
    } else {
      (void)monitor.observe_batch(day_batch);
    }
    // Retire drives whose history ended (their slot was swapped out).
    for (std::size_t d = 0; d < fleet.drives.size(); ++d) {
      const auto& drive = fleet.drives[d];
      if (cursor[d] == drive.records.size() && !drive.records.empty() &&
          drive.records.back().day == day)
        monitor.retire(drive.model, drive.drive_index);
    }
    if (snapshotter) {
      if (auto deltas = snapshotter->tick(obs::Snapshotter::Clock::now(), true)) {
        for (const auto& d : *deltas) {
          if (d.delta == 0.0) continue;
          stream_out << "{\"day\":" << day << ",\"delta\":" << d.delta
                     << ",\"sample\":" << obs::to_json(d.sample) << "}\n";
        }
      }
    }
  }
  const double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  const auto snapshot = monitor.metrics();
  std::printf("replayed days %d..%d in %.1fs (%.0f records/s, %s path%s)\n", first_day,
              last_day, secs, static_cast<double>(snapshot.records_scored) / secs,
              sequential ? "sequential" : "batched",
              chaos_pct > 0 ? ", chaos on" : "");
  std::fputs(snapshot.to_text().c_str(), stdout);
  if (!stream_path.empty())
    std::printf("streamed per-day metric deltas to %s\n", stream_path.c_str());
  const std::string metrics_path = args.get("metrics-out", "");
  if (!metrics_path.empty() && !write_metrics_out(metrics_path)) return 1;
  return 0;
}

/// SIGTERM/SIGINT flag for the daemon's graceful drain.  sig_atomic_t and
/// a lock-free loop check are all a signal handler may touch.
volatile std::sig_atomic_t g_daemon_stop = 0;

extern "C" void daemon_signal_handler(int) { g_daemon_stop = 1; }

int cmd_daemon(const Args& args) {
  const std::string wal_dir = args.get("wal-dir", "");
  if (wal_dir.empty()) return usage();
  {
    // Best-effort: a dir we cannot create degrades the WAL, not the run.
    std::error_code ec;
    std::filesystem::create_directories(wal_dir, ec);
  }

  daemon::DaemonConfig cfg;
  cfg.wal_dir = wal_dir;
  cfg.shards = static_cast<std::size_t>(args.get_long("shards", 4));
  cfg.ring_capacity = static_cast<std::size_t>(args.get_long("ring", 1024));
  cfg.threshold = std::strtod(args.get("threshold", "0.9").c_str(), nullptr);
  const std::string bp = args.get("backpressure", "block");
  if (bp == "shed") {
    cfg.backpressure = daemon::Backpressure::kShed;
  } else if (bp != "block") {
    std::fprintf(stderr, "daemon: --backpressure must be 'block' or 'shed'\n");
    return 2;
  }
  const std::string fsync = args.get("fsync", "every");
  if (fsync == "never") {
    cfg.fsync = daemon::FsyncPolicy::kNever;
  } else if (fsync != "every") {
    std::fprintf(stderr, "daemon: --fsync must be 'every' or 'never'\n");
    return 2;
  }
  cfg.wal_rotate_bytes =
      static_cast<std::uint64_t>(args.get_long("wal-rotate", 0));

  const std::string model_path = args.get("model-file", "");
  std::shared_ptr<const ml::Classifier> model;
  if (!model_path.empty()) model = try_load_model(model_path);
  if (model == nullptr)
    std::fprintf(stderr, "daemon: DEGRADED — ingesting and WAL-ing without scores\n");

  // --online: attach the online-learning loop (src/online) as the daemon's
  // batch observer.  Needs a scoring champion (shadow AUC is meaningless
  // without champion scores) and WAL rotation (the retrainer reads the
  // store compacted from SEALED segments only).
  const bool online = args.flag("online");
  std::unique_ptr<online::OnlineLearner> learner;
  if (online) {
    if (model == nullptr) {
      std::fprintf(stderr, "daemon: --online requires a loadable --model-file\n");
      return 2;
    }
    if (cfg.wal_rotate_bytes == 0) cfg.wal_rotate_bytes = 64 * 1024;
    online::OnlineConfig ocfg;
    ocfg.wal_dir = wal_dir;
    ocfg.store_dir = args.get("store-dir", wal_dir + "/store");
    ocfg.model_path = args.get("promote-out", wal_dir + "/champion.bin");
    ocfg.drift.psi_alert = std::strtod(args.get("drift-psi", "0.25").c_str(), nullptr);
    ocfg.drift.ks_alert = std::strtod(args.get("drift-ks", "0.35").c_str(), nullptr);
    ocfg.drift.min_window_rows =
        static_cast<std::uint64_t>(args.get_long("drift-min-rows", 512));
    ocfg.arena.lookahead_days =
        static_cast<int>(args.get_long("online-lookahead", 7));
    ocfg.arena.min_samples =
        static_cast<std::size_t>(args.get_long("online-min-samples", 256));
    ocfg.arena.min_positives =
        static_cast<std::size_t>(args.get_long("online-min-positives", 8));
    ocfg.arena.promote_margin =
        std::strtod(args.get("promote-margin", "0.01").c_str(), nullptr);
    ocfg.retrainer.lookahead_days = ocfg.arena.lookahead_days;
    ocfg.retrainer.negative_keep_prob =
        std::strtod(args.get("retrain-neg-keep", "0.1").c_str(), nullptr);
    ocfg.retrain_on_alert_only = !args.flag("retrain-always");
    learner = std::make_unique<online::OnlineLearner>(nullptr, std::move(ocfg));
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
    const std::string digest_path = args.get("state-digest-out", "");
    if (!digest_path.empty()) {
      std::ofstream out(digest_path);
      out << std::hex << digest << "\n";
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", digest_path.c_str());
        return 1;
      }
    }
    return 0;
  }

  // Build the stream: one observation per drive-day, day-ordered, with
  // optional seeded pre-corruption (single-threaded so the fault sequence
  // is reproducible regardless of --producers).
  sim::FleetConfig fleet_cfg = config_from(args);
  fleet_cfg.drives_per_model = static_cast<std::uint32_t>(args.get_long("drives", 100));
  trace::FleetTrace fleet;
  const std::string fleet_path = args.get("fleet", "");
  if (!fleet_path.empty()) {
    try {
      std::ifstream in(fleet_path, std::ios::binary);
      if (!in) throw std::runtime_error("cannot open " + fleet_path);
      fleet = trace::read_binary(in);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "daemon: %s\n", e.what());
      return 1;
    }
  } else if (const long drift_day = args.get_long("drift-day", -1); drift_day >= 0) {
    // Drifting-regime fleet: a post-drift cohort with shifted workload,
    // error, and hazard characteristics (sim/drifting_fleet.hpp) — the
    // drift-gate scenario for --online.
    sim::DriftingFleetConfig dcfg;
    dcfg.base = fleet_cfg;
    dcfg.drift.drift_day = static_cast<std::int32_t>(drift_day);
    dcfg.drift.drifted_fraction =
        std::strtod(args.get("drift-frac", "0.4").c_str(), nullptr);
    dcfg.drift.hazard_mult = std::strtod(
        args.get("drift-hazard", std::to_string(dcfg.drift.hazard_mult)).c_str(),
        nullptr);
    dcfg.drift.error_rate_mult = std::strtod(
        args.get("drift-errors", std::to_string(dcfg.drift.error_rate_mult)).c_str(),
        nullptr);
    dcfg.drift.bad_block_mult = std::strtod(
        args.get("drift-bad-blocks", std::to_string(dcfg.drift.bad_block_mult))
            .c_str(),
        nullptr);
    fleet = sim::DriftingFleetSimulator(dcfg).generate_all();
  } else {
    fleet = sim::FleetSimulator(fleet_cfg).generate_all();
  }
  std::vector<core::FleetObservation> stream;
  for (const auto& d : fleet.drives)
    for (const auto& r : d.records)
      stream.push_back({d.model, d.drive_index, d.deploy_day, r});
  std::stable_sort(stream.begin(), stream.end(),
                   [](const core::FleetObservation& a, const core::FleetObservation& b) {
                     return a.record.day < b.record.day;
                   });
  const long chaos_pct = args.get_long("chaos", 0);
  if (chaos_pct > 0) {
    robustness::FaultInjector injector(
        fleet_cfg.seed ^ 0x9e3779b97f4a7c15ull,
        robustness::FaultRates::uniform(static_cast<double>(chaos_pct) / 100.0));
    stream = injector.corrupt(stream).observations;
  }

  std::signal(SIGTERM, daemon_signal_handler);
  std::signal(SIGINT, daemon_signal_handler);

  const auto t0 = std::chrono::steady_clock::now();
  if (online) {
    // Day-paced ingest: push one stream day, drain it through the
    // pipeline, and run the learner's control step every K stream days —
    // so drift windows, retraining, and shadow scoring interleave with
    // ingest exactly as they would against a real-time fleet, just with
    // stream days standing in for wall-clock days.
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
    for (const auto& d : fleet.drives) {
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
    const auto drained = [&] {
      const daemon::DaemonStats s = daemon.stats();
      return s.scored + s.quarantined + s.duplicates_dropped + s.shed >= s.ingested;
    };
    const long step_days = std::max(1L, args.get_long("online-step-days", 15));
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
      while (!drained()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      if (day - last_step_day >= step_days) {
        const online::StepReport report = learner->step();
        last_step_day = day;
        std::printf(
            "online step day %d: drift psi %.3f ks %.3f%s, window %llu rows%s%s%s\n",
            day, report.drift.max_psi, report.drift.max_ks,
            report.drift.alert ? " ALERT" : "",
            static_cast<unsigned long long>(report.drift.window_rows),
            report.retrained ? ", retrained" : "",
            report.verdict.enough_data ? "" : " (gate: warming)",
            report.promoted ? ", PROMOTED" : "");
      }
    }
    daemon.stop();  // graceful drain: rings emptied, WALs fsynced
  } else {
    // Producers partition the stream BY DRIVE (uid mod producers) so each
    // drive's records are pushed in day order by exactly one thread.
    const auto producers = std::max<std::size_t>(
        1, static_cast<std::size_t>(args.get_long("producers", 2)));
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
  const std::string digest_path = args.get("state-digest-out", "");
  if (!digest_path.empty()) {
    std::ofstream out(digest_path);
    out << std::hex << digest << "\n";
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", digest_path.c_str());
      return 1;
    }
  }
  const std::string metrics_path = args.get("metrics-out", "");
  if (!metrics_path.empty() && !write_metrics_out(metrics_path)) return 1;
  return 0;
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
  const std::string ref_path = args.get("reference", "");
  const std::string cur_path = args.get("current", "");
  if (ref_path.empty() || cur_path.empty()) return usage();
  const auto reference = sketch_path(ref_path);
  const auto current = sketch_path(cur_path);
  if (!reference || !current) return 1;

  online::DriftConfig config;
  config.psi_alert = std::strtod(args.get("psi", "0.25").c_str(), nullptr);
  config.ks_alert = std::strtod(args.get("ks", "0.35").c_str(), nullptr);
  config.min_window_rows = static_cast<std::uint64_t>(args.get_long("min-rows", 1));
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
/// simulator, trace I/O, training (CV + forest), thread pool, monitor,
/// sanitizer (via chaos) — then prints the Prometheus exposition.  CI's
/// metrics-lint step validates this output (scripts/metrics_lint.py).
int cmd_metrics(const Args& args) {
  sim::FleetConfig cfg = config_from(args);
  cfg.drives_per_model = static_cast<std::uint32_t>(args.get_long("drives", 30));
  cfg.keep_ground_truth = true;
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

  // Monitor + sanitizer metrics: replay the fleet with chaos so repairs
  // and quarantines occur.
  auto scorer = ml::make_model(ml::ModelKind::kThresholdBaseline);
  scorer->fit(ml::downsample_negatives(data, 1.0, cfg.seed));
  core::FleetMonitor monitor(std::shared_ptr<const ml::Classifier>(std::move(scorer)),
                             0.9, 4);
  robustness::FaultInjector injector(cfg.seed ^ 0x9e3779b97f4a7c15ull,
                                     robustness::FaultRates::uniform(0.10));
  std::vector<core::FleetObservation> batch;
  for (const auto& d : fleet.drives)
    for (const auto& r : d.records)
      batch.push_back({d.model, d.drive_index, d.deploy_day, r});
  std::stable_sort(batch.begin(), batch.end(),
                   [](const core::FleetObservation& a, const core::FleetObservation& b) {
                     return a.record.day < b.record.day;
                   });
  const auto corrupted = injector.corrupt(batch);
  (void)monitor.observe_batch(corrupted.observations);

  obs::TraceCollector::global().publish(obs::MetricsRegistry::global());
  const obs::RegistrySnapshot snapshot = obs::MetricsRegistry::global().snapshot();
  const std::string out_path = args.get("out", "");
  if (out_path.empty()) {
    obs::write_prometheus(std::cout, snapshot);
    return 0;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  obs::write_prometheus(out, snapshot);
  std::fprintf(stderr, "wrote %s (%zu samples)\n", out_path.c_str(),
               snapshot.samples.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const Args args = parse(argc, argv, 2);
  // Cap worker threads before the first pool use (beats SSDFAIL_THREADS).
  // Results are identical at any thread count; only wall time changes.
  const long threads = args.get_long("threads", 0);
  if (threads > 0)
    parallel::set_default_thread_count(static_cast<unsigned>(threads));
  if (command == "simulate") return cmd_simulate(args);
  if (command == "analyze") return cmd_analyze(args);
  if (command == "convert") return cmd_convert(args);
  if (command == "compact") return cmd_compact(args);
  if (command == "benchmark") return cmd_benchmark(args);
  if (command == "transfer") return cmd_transfer(args);
  if (command == "train") return cmd_train(args);
  if (command == "serve") return cmd_serve(args);
  if (command == "daemon") return cmd_daemon(args);
  if (command == "drift") return cmd_drift(args);
  if (command == "metrics") return cmd_metrics(args);
  return usage();
}
