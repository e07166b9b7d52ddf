#pragma once

// The SSDF2 column table: every stored column, in ZoneColumn order (the
// order of v2 columns, v3 frames and zone-map entries on disk), with its
// name, element type (which fixes width and signedness) and the row field
// it carries.  It is the one statement of which columns exist and of how a
// DailyRecord is laid out (docs/DATA_FORMAT.md): both SSDF2 writers and
// readers, ChunkView::record, ChunkView::gather_drive, the drift sketches,
// the v1 row codec, the WAL observation payload and the CSV daily log walk
// it at compile time, so each per-value access inlines to a direct member
// load or store.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>

#include "store/columnar.hpp"

namespace ssdfail::store {

/// The flags byte, packed and unpacked here only: bit 0 read_only, bit 1
/// dead.
struct FlagsField {
  /// Bit b's name is kBitNames[b] (the CSV daily log's 0/1 columns).
  static constexpr std::array<std::string_view, 2> kBitNames = {"read_only", "dead"};
  [[nodiscard]] static std::uint8_t get(const trace::DailyRecord& r) noexcept {
    return static_cast<std::uint8_t>((r.read_only ? 1 : 0) | (r.dead ? 2 : 0));
  }
  static void set(trace::DailyRecord& r, std::uint8_t flags) noexcept {
    r.read_only = (flags & 1) != 0;
    r.dead = (flags & 2) != 0;
  }
};

inline constexpr std::size_t kWholeMember = static_cast<std::size_t>(-1);

/// One stored column of element type T.  `Field` is the row member it
/// carries (a DailyRecord or SwapEvent member pointer, or FlagsField{});
/// `View` is the ChunkView span it is read through; `Index` picks one
/// element when both are arrays (the per-error-type counters).
template <typename T, auto Field, auto View, std::size_t Index = kWholeMember>
struct Column {
  using value_type = T;
  static constexpr std::size_t width = sizeof(T);
  /// The packed read_only/dead flags byte (FlagsField).
  static constexpr bool is_flags =
      std::is_same_v<std::remove_cv_t<decltype(Field)>, FlagsField>;
  /// Swap-day values come from DriveHistory::swaps, all others from records.
  static constexpr bool is_record =
      !std::is_same_v<decltype(Field), std::int32_t trace::SwapEvent::*>;

  std::string_view name;

  template <typename Row>
  [[nodiscard]] static T get(const Row& row) noexcept {
    if constexpr (std::is_member_object_pointer_v<decltype(Field)>) {
      static_assert(std::is_same_v<std::remove_cvref_t<decltype(pick(row.*Field))>, T>);
      return pick(row.*Field);
    } else {
      return decltype(Field)::get(row);
    }
  }
  template <typename Row>
  static void set(Row& row, T value) noexcept {
    if constexpr (std::is_member_object_pointer_v<decltype(Field)>)
      pick(row.*Field) = value;
    else
      decltype(Field)::set(row, value);
  }
  /// This column's span in `view` (assignable when `view` is mutable).
  template <typename ViewT>
  [[nodiscard]] static auto& span(ViewT& view) noexcept {
    return pick(view.*View);
  }
  /// The rows of `drive` this column stores one value per.
  template <typename Drive>
  [[nodiscard]] static auto& rows(Drive& drive) noexcept {
    if constexpr (is_record) return drive.records;
    else return drive.swaps;
  }
  /// Values of this column in a chunk of `n_records` rows and `n_swaps` swaps.
  [[nodiscard]] static constexpr std::size_t count(std::size_t n_records,
                                                   std::size_t n_swaps) noexcept {
    return is_record ? n_records : n_swaps;
  }

 private:
  template <typename M>
  static constexpr auto& pick(M& member) noexcept {
    if constexpr (Index == kWholeMember) return member;
    else return member[Index];
  }
};

template <std::size_t E>
using ErrorColumn =
    Column<std::uint32_t, &trace::DailyRecord::errors, &ChunkView::errors, E>;

inline constexpr auto kColumnTable = std::tuple{
    Column<std::int32_t, &trace::DailyRecord::day, &ChunkView::day>{"day"},
    Column<std::uint32_t, &trace::DailyRecord::reads, &ChunkView::reads>{"reads"},
    Column<std::uint32_t, &trace::DailyRecord::writes, &ChunkView::writes>{"writes"},
    Column<std::uint32_t, &trace::DailyRecord::erases, &ChunkView::erases>{"erases"},
    Column<std::uint32_t, &trace::DailyRecord::pe_cycles, &ChunkView::pe_cycles>{
        "pe_cycles"},
    Column<std::uint32_t, &trace::DailyRecord::bad_blocks, &ChunkView::bad_blocks>{
        "bad_blocks"},
    Column<std::uint16_t, &trace::DailyRecord::factory_bad_blocks,
           &ChunkView::factory_bad_blocks>{"factory_bad_blocks"},
    Column<std::uint8_t, FlagsField{}, &ChunkView::flags>{"flags"},
    // One column per trace::ErrorType, in kAllErrorTypes order.
    ErrorColumn<0>{"err_correctable"},
    ErrorColumn<1>{"err_erase"},
    ErrorColumn<2>{"err_final_read"},
    ErrorColumn<3>{"err_final_write"},
    ErrorColumn<4>{"err_meta"},
    ErrorColumn<5>{"err_read"},
    ErrorColumn<6>{"err_response"},
    ErrorColumn<7>{"err_timeout"},
    ErrorColumn<8>{"err_uncorrectable"},
    ErrorColumn<9>{"err_write"},
    // Class-specific channels (trace::kExtCounterFields order).
    Column<std::uint32_t, &trace::DailyRecord::reallocated_sectors,
           &ChunkView::reallocated_sectors>{"reallocated_sectors"},
    Column<std::uint32_t, &trace::DailyRecord::seek_errors, &ChunkView::seek_errors>{
        "seek_errors"},
    Column<std::uint32_t, &trace::DailyRecord::media_wear, &ChunkView::media_wear>{
        "media_wear"},
    Column<std::uint32_t, &trace::DailyRecord::throttle_events,
           &ChunkView::throttle_events>{"throttle_events"},
    Column<std::int32_t, &trace::SwapEvent::day, &ChunkView::swap_days>{"swap_day"},
};
static_assert(std::tuple_size_v<decltype(kColumnTable)> == kNumZoneColumns);
static_assert(trace::kNumErrorTypes == 10 && trace::kNumExtCounterFields == 4);

/// Call f(c, column) for the columns Lo..Hi-1 in table order; `c` is its
/// ZoneColumn index and `column` a Column<...> value.
template <std::size_t Lo, std::size_t Hi, typename F>
void for_each_column_in(F&& f) {
  [&]<std::size_t... C>(std::index_sequence<C...>) {
    (f(Lo + C, std::get<Lo + C>(kColumnTable)), ...);
  }(std::make_index_sequence<Hi - Lo>{});
}

/// Call f(c, column) for every column in table order.
template <typename F>
void for_each_column(F&& f) {
  for_each_column_in<0, kNumZoneColumns>(f);
}

/// for_each_column over the DailyRecord columns only (all but swap_day).
template <typename F>
void for_each_record_column(F&& f) {
  for_each_column([&](std::size_t c, auto column) {
    if constexpr (decltype(column)::is_record) f(c, column);
  });
}

/// Sum of f(column) over the DailyRecord columns (all but swap_day), at
/// compile time: e.g. their packed width, the size of a v1 row.
template <typename F>
constexpr std::size_t sum_record_columns(F f) {
  return std::apply(
      [&](auto... c) { return ((decltype(c)::is_record ? f(c) : 0) + ... + std::size_t{0}); },
      kColumnTable);
}

/// Column names in ZoneColumn order ("reads", "err_uncorrectable", ...).
inline constexpr auto kColumnNames = std::apply(
    [](auto... column) {
      return std::array<std::string_view, kNumZoneColumns>{column.name...};
    },
    kColumnTable);

}  // namespace ssdfail::store
