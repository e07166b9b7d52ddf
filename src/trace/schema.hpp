#pragma once

// The drive-log schema of Section 2 of the paper.
//
// Each drive emits at most one DailyRecord per day of operation: workload
// counters, cumulative wear, status flags, bad-block counts, and the counts
// of ten error types.  Swap events (Section 3) live in a separate log.

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

namespace ssdfail::trace {

/// The three MLC drive models of the study, plus the HDD and NVMe device
/// classes of the heterogeneous-fleet extension (calibrated to Pinciroli
/// et al., "The Life and Death of SSDs and HDDs" — see PAPERS.md).
enum class DriveModel : std::uint8_t {
  MlcA = 0,
  MlcB = 1,
  MlcD = 2,
  Hdd = 3,
  Nvme = 4,
};

inline constexpr std::size_t kNumModels = 5;
inline constexpr std::array<DriveModel, kNumModels> kAllModels = {
    DriveModel::MlcA, DriveModel::MlcB, DriveModel::MlcD, DriveModel::Hdd,
    DriveModel::Nvme};

/// The original MLC study models (the paper's Tables 1-8 universe).  Code
/// reproducing a paper table iterates these; fleet-composition defaults
/// stay MLC-only so every pre-extension artifact is bit-identical.
inline constexpr std::size_t kNumMlcModels = 3;
inline constexpr std::array<DriveModel, kNumMlcModels> kMlcModels = {
    DriveModel::MlcA, DriveModel::MlcB, DriveModel::MlcD};

[[nodiscard]] std::string_view model_name(DriveModel m) noexcept;

/// Globally unique drive id across models: the model tag in the high 32
/// bits, the per-model drive index in the low 32.  Every layer that keys
/// per-drive state (traces, the store, the scoring paths, the WAL) uses it.
[[nodiscard]] constexpr std::uint64_t drive_uid(DriveModel model,
                                                std::uint32_t drive_index) noexcept {
  return (static_cast<std::uint64_t>(model) << 32) | drive_index;
}

/// Coarse hardware class of a drive model.  Each class carries its own
/// hazard shape and its own telemetry channels (the class-specific
/// DailyRecord fields below).
enum class DeviceClass : std::uint8_t { kMlcSsd = 0, kHdd = 1, kNvmeSsd = 2 };

inline constexpr std::size_t kNumDeviceClasses = 3;
inline constexpr std::array<DeviceClass, kNumDeviceClasses> kAllDeviceClasses = {
    DeviceClass::kMlcSsd, DeviceClass::kHdd, DeviceClass::kNvmeSsd};

[[nodiscard]] constexpr DeviceClass device_class(DriveModel m) noexcept {
  switch (m) {
    case DriveModel::Hdd: return DeviceClass::kHdd;
    case DriveModel::Nvme: return DeviceClass::kNvmeSsd;
    default: return DeviceClass::kMlcSsd;
  }
}

[[nodiscard]] std::string_view device_class_name(DeviceClass c) noexcept;

/// Models belonging to one device class, in kAllModels order.
[[nodiscard]] std::vector<DriveModel> models_of_class(DeviceClass c);

/// Bitmask over model ids (1 << model) of the models in class `c` —
/// directly comparable against a store chunk's model_mask.
[[nodiscard]] constexpr std::uint32_t class_model_mask(DeviceClass c) noexcept {
  std::uint32_t mask = 0;
  for (DriveModel m : kAllModels)
    if (device_class(m) == c) mask |= 1u << static_cast<std::uint32_t>(m);
  return mask;
}

/// The ten error types reported by the custom firmware (Section 2).
enum class ErrorType : std::uint8_t {
  kCorrectable = 0,   // bits corrected by internal ECC during reads
  kErase = 1,         // erase operations that failed
  kFinalRead = 2,     // reads that failed even after retries
  kFinalWrite = 3,    // writes that failed even after retries
  kMeta = 4,          // errors reading drive-internal metadata
  kRead = 5,          // reads that errored but succeeded on retry
  kResponse = 6,      // bad responses from the drive
  kTimeout = 7,       // operations that timed out
  kUncorrectable = 8, // uncorrectable ECC errors during reads
  kWrite = 9,         // writes that errored but succeeded on retry
};

inline constexpr std::size_t kNumErrorTypes = 10;
inline constexpr std::array<ErrorType, kNumErrorTypes> kAllErrorTypes = {
    ErrorType::kCorrectable, ErrorType::kErase,     ErrorType::kFinalRead,
    ErrorType::kFinalWrite,  ErrorType::kMeta,      ErrorType::kRead,
    ErrorType::kResponse,    ErrorType::kTimeout,   ErrorType::kUncorrectable,
    ErrorType::kWrite};

[[nodiscard]] std::string_view error_name(ErrorType e) noexcept;

/// Transparent errors may be hidden from the user (correctable, erase,
/// read, write); non-transparent errors may not (final read/write, meta,
/// response, timeout, uncorrectable).  Section 2.
[[nodiscard]] constexpr bool is_transparent(ErrorType e) noexcept {
  switch (e) {
    case ErrorType::kCorrectable:
    case ErrorType::kErase:
    case ErrorType::kRead:
    case ErrorType::kWrite:
      return true;
    default:
      return false;
  }
}

/// One day of drive activity, as reported by the log.
struct DailyRecord {
  std::int32_t day = 0;          ///< absolute day index within the trace window
  std::uint32_t reads = 0;       ///< read operations this day
  std::uint32_t writes = 0;      ///< write operations this day
  std::uint32_t erases = 0;      ///< erase operations this day
  std::uint32_t pe_cycles = 0;   ///< cumulative program/erase cycles
  std::uint32_t bad_blocks = 0;  ///< cumulative non-factory bad blocks
  std::uint16_t factory_bad_blocks = 0;  ///< bad on arrival (constant)
  bool read_only = false;        ///< drive operating in read-only mode
  bool dead = false;             ///< drive reports itself dead
  std::array<std::uint32_t, kNumErrorTypes> errors{};  ///< per-type daily counts

  // Class-specific telemetry channels (always zero outside their class).
  std::uint32_t reallocated_sectors = 0;  ///< cumulative remapped sectors (HDD)
  std::uint32_t seek_errors = 0;          ///< seek errors this day (HDD)
  std::uint32_t media_wear = 0;           ///< cumulative media wearout units (NVMe)
  std::uint32_t throttle_events = 0;      ///< thermal throttles this day (NVMe)

  [[nodiscard]] std::uint32_t error(ErrorType e) const noexcept {
    return errors[static_cast<std::size_t>(e)];
  }
  [[nodiscard]] bool any_nontransparent_error() const noexcept {
    for (ErrorType e : kAllErrorTypes)
      if (!is_transparent(e) && error(e) > 0) return true;
    return false;
  }
  /// A day with no read and no write activity (the paper's notion of
  /// inactivity used when locating the failure point).
  [[nodiscard]] bool inactive() const noexcept { return reads == 0 && writes == 0; }

  /// Field-wise equality (the sanitizer's exact-duplicate test).
  [[nodiscard]] bool operator==(const DailyRecord&) const noexcept = default;
};

/// A swap event: the drive was physically extracted for repair on `day`.
/// Every swap corresponds to exactly one preceding catastrophic failure.
struct SwapEvent {
  std::int32_t day = 0;
};

/// Schema metadata for every 32-bit counter field of DailyRecord.
/// Validation, the record sanitizer, and the format tests derive their
/// field lists from this table instead of hard-coding the original SSD
/// columns, so class-specific channels are covered automatically when the
/// schema grows (the per-error counters are appended separately by the
/// consumers — they share one spec).
struct RecordCounterField {
  std::string_view name;
  /// Non-decreasing within a drive's history (a controller reset that
  /// rewinds it is a violation the sanitizer repairs by clamping).
  bool cumulative = false;
  std::uint32_t DailyRecord::* field = nullptr;
  /// Class whose hardware reports the channel; kMlcSsd doubles as "every
  /// class" for the original SMART-style counters.
  DeviceClass owner = DeviceClass::kMlcSsd;
};

inline constexpr std::array<RecordCounterField, 9> kRecordCounterFields = {{
    {"reads", false, &DailyRecord::reads, DeviceClass::kMlcSsd},
    {"writes", false, &DailyRecord::writes, DeviceClass::kMlcSsd},
    {"erases", false, &DailyRecord::erases, DeviceClass::kMlcSsd},
    {"pe_cycles", true, &DailyRecord::pe_cycles, DeviceClass::kMlcSsd},
    {"bad_blocks", true, &DailyRecord::bad_blocks, DeviceClass::kMlcSsd},
    {"reallocated_sectors", true, &DailyRecord::reallocated_sectors,
     DeviceClass::kHdd},
    {"seek_errors", false, &DailyRecord::seek_errors, DeviceClass::kHdd},
    {"media_wear", true, &DailyRecord::media_wear, DeviceClass::kNvmeSsd},
    {"throttle_events", false, &DailyRecord::throttle_events,
     DeviceClass::kNvmeSsd},
}};

/// The class-specific extension fields (the tail of kRecordCounterFields),
/// in the order store::kColumnTable lists them, which every record format
/// follows.
inline constexpr std::size_t kNumExtCounterFields = 4;
inline constexpr std::array<RecordCounterField, kNumExtCounterFields>
    kExtCounterFields = {{
        kRecordCounterFields[5],
        kRecordCounterFields[6],
        kRecordCounterFields[7],
        kRecordCounterFields[8],
    }};

/// Running cumulative totals over a drive's records; used by feature
/// extraction and the correlation study.
struct CumulativeState {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t erases = 0;
  std::array<std::uint64_t, kNumErrorTypes> errors{};

  void apply(const DailyRecord& r) noexcept {
    reads += r.reads;
    writes += r.writes;
    erases += r.erases;
    for (std::size_t i = 0; i < kNumErrorTypes; ++i) errors[i] += r.errors[i];
  }
  [[nodiscard]] std::uint64_t error(ErrorType e) const noexcept {
    return errors[static_cast<std::size_t>(e)];
  }
};

}  // namespace ssdfail::trace
