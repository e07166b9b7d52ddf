#include "trace/trace_io.hpp"

#include <charconv>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "io/csv.hpp"
#include "obs/trace_span.hpp"
#include "store/column_table.hpp"
#include "trace/io_metrics.hpp"

namespace ssdfail::trace {
namespace {

template <typename T>
T parse_number(const std::string& s) {
  T value{};
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size())
    throw std::runtime_error("trace_io: bad numeric field '" + s + "'");
  return value;
}

DriveModel parse_model(const std::string& s) {
  for (DriveModel m : kAllModels)
    if (s == model_name(m)) return m;
  throw std::runtime_error("trace_io: unknown model '" + s + "'");
}

/// A daily-log row is the drive's uid, model, index and deploy day, then
/// the record columns of store::kColumnTable in table order, with the flags
/// byte written as one 0/1 column per bit (read_only,dead).  Logs written
/// before the class-specific counters existed end after the error columns.
using Flags = store::FlagsField;
constexpr std::size_t kDriveCols = 4;
constexpr std::size_t kDailyCols = kDriveCols + store::sum_record_columns([](auto column) {
  return column.is_flags ? Flags::kBitNames.size() : 1;
});
constexpr std::size_t kLegacyDailyCols = kDailyCols - kNumExtCounterFields;

}  // namespace

std::string daily_log_header() {
  std::string h = "drive_uid,model,drive_index,deploy_day";
  store::for_each_record_column([&](std::size_t, auto column) {
    if constexpr (column.is_flags)
      for (std::string_view bit : Flags::kBitNames) h.append(",").append(bit);
    else if (column.name.starts_with("err_"))  // spelled <type>_errors in the log
      h.append(",").append(column.name.substr(4)).append("_errors");
    else
      h.append(",").append(column.name);
  });
  return h;
}

void write_daily_log(std::ostream& out, const FleetTrace& fleet) {
  static const obs::SiteId kSite = obs::intern_site("trace.write_daily_log");
  obs::Span span(kSite);
  detail::WriteByteCount bytes(out, "csv");
  out << daily_log_header() << '\n';
  for (const auto& d : fleet.drives) {
    for (const auto& r : d.records) {
      out << d.uid() << ',' << model_name(d.model) << ',' << d.drive_index << ','
          << d.deploy_day;
      store::for_each_record_column([&](std::size_t, auto column) {
        const auto value = column.get(r);
        if constexpr (column.is_flags)
          for (std::size_t bit = 0; bit < Flags::kBitNames.size(); ++bit)
            out << ',' << (value >> bit & 1);
        else
          out << ',' << value;
      });
      out << '\n';
    }
  }
}

void write_swap_log(std::ostream& out, const FleetTrace& fleet) {
  detail::WriteByteCount bytes(out, "csv");
  out << "drive_uid,model,drive_index,day\n";
  for (const auto& d : fleet.drives)
    for (const auto& s : d.swaps)
      out << d.uid() << ',' << model_name(d.model) << ',' << d.drive_index << ','
          << s.day << '\n';
}

FleetTrace read_fleet(std::istream& daily_log, std::istream& swap_log) {
  static const obs::SiteId kSite = obs::intern_site("trace.read_fleet");
  obs::Span span(kSite);
  detail::ReadByteCount daily_bytes(daily_log, "csv");
  detail::ReadByteCount swap_bytes(swap_log, "csv");
  const auto daily_rows = io::read_csv(daily_log);
  const auto swap_rows = io::read_csv(swap_log);
  if (daily_rows.empty()) throw std::runtime_error("trace_io: empty daily log");

  // uid -> drive, preserving first-seen order via an index map.
  std::map<std::uint64_t, std::size_t> index;
  FleetTrace fleet;

  for (std::size_t row = 1; row < daily_rows.size(); ++row) {
    const auto& f = daily_rows[row];
    if (f.size() != kDailyCols && f.size() != kLegacyDailyCols)
      throw std::runtime_error("trace_io: wrong daily-log column count");
    const auto uid = parse_number<std::uint64_t>(f[0]);
    auto [it, inserted] = index.try_emplace(uid, fleet.drives.size());
    if (inserted) {
      DriveHistory d;
      d.model = parse_model(f[1]);
      d.drive_index = parse_number<std::uint32_t>(f[2]);
      d.deploy_day = parse_number<std::int32_t>(f[3]);
      fleet.drives.push_back(std::move(d));
    }
    DailyRecord& r = fleet.drives[it->second].records.emplace_back();
    std::size_t at = kDriveCols;
    store::for_each_record_column([&](std::size_t, auto column) {
      if (at == f.size()) return;  // legacy row: the class counters stay 0
      if constexpr (column.is_flags) {
        std::uint8_t flags = 0;
        for (std::size_t bit = 0; bit < Flags::kBitNames.size(); ++bit)
          flags |= static_cast<std::uint8_t>((parse_number<int>(f[at++]) != 0) << bit);
        column.set(r, flags);
      } else {
        column.set(r, parse_number<typename decltype(column)::value_type>(f[at++]));
      }
    });
  }

  for (std::size_t row = 1; row < swap_rows.size(); ++row) {
    const auto& f = swap_rows[row];
    if (f.size() != 4) throw std::runtime_error("trace_io: wrong swap-log column count");
    const auto uid = parse_number<std::uint64_t>(f[0]);
    const auto it = index.find(uid);
    if (it == index.end())
      throw std::runtime_error("trace_io: swap event for unknown drive");
    fleet.drives[it->second].swaps.push_back({parse_number<std::int32_t>(f[3])});
  }
  return fleet;
}

}  // namespace ssdfail::trace
