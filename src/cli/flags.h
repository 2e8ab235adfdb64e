// tmcsim -- one declarative flag table for every binary.
//
// Each row names one flag, its value kind, the range it accepts (checked
// against the destination type), the field it writes, its help line and the
// family it belongs to. Families with shared rows declare them beside their
// config structs (obs::cli_flags, fault::cli_flags,
// sched::stealing::cli_flags); a binary adds the rows it knows about and
// says which families it accepts. A flag of a family the binary does not
// accept is rejected with that family's message, so an unwired feature can
// never be silently ignored.
//
// Table::parse takes `--flag value` and `--flag=value` for every value
// flag, stops at the first error and returns it instead of exiting, so
// tests can drive it directly; Table::parse_or_exit is the binaries' policy
// (help on stdout and exit 0, error on stderr and exit 2).
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

namespace tmc::cli {

enum class Family : std::uint8_t {
  kOwn,      // the binary's own flags
  kThreads,  // --threads N
  kFigure,   // --csv, --with-16h, --quick (figure benches)
  kObs,      // --metrics, --timeline, ... (obs::cli_flags)
  kSlo,      // --slo (serving harness only)
  kFault,    // --fault-*, --heartbeat, --retry-* (fault::cli_flags)
  kSteal,    // --steal-* (sched::stealing::cli_flags)
};

class Families {
 public:
  constexpr Families() = default;
  constexpr Families(std::initializer_list<Family> families) {
    for (const Family family : families) bits_ |= bit(family);
  }
  [[nodiscard]] constexpr Families operator|(Family family) const {
    Families out = *this;
    out.bits_ |= bit(family);
    return out;
  }
  [[nodiscard]] constexpr bool contains(Family family) const {
    return (bits_ & bit(family)) != 0;
  }

 private:
  static constexpr std::uint32_t bit(Family family) {
    return 1U << static_cast<unsigned>(family);
  }
  std::uint32_t bits_ = 0;
};

enum class Kind : std::uint8_t {
  kSwitch,      // no value
  kInteger,     // signed integer
  kUnsigned,    // unsigned integer, up to 64 bits
  kReal,        // finite double
  kChoice,      // one of a fixed set of words
  kText,        // non-empty string (paths, lists, specs)
  kInlinePath,  // --flag or --flag=PATH; never takes the next token
};

/// One row. `name` and `help` view string literals, which outlive the row;
/// `store` writes the destination the row was built for, which must
/// outlive every parse.
struct Flag {
  std::string_view name;  // "--fault-rate"
  Kind kind = Kind::kSwitch;
  std::string metavar;    // "R" in the help line; empty for switches
  std::string_view help;  // may hold '\n' for continuation lines
  Family family = Family::kOwn;
  /// Parses and stores one value (empty for switches); returns an error
  /// message, or an empty string on success.
  std::function<std::string(std::string_view value)> store;
};

/// Accepted interval of a real-valued row.
struct Interval {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
  bool hi_open = false;
};
[[nodiscard]] constexpr Interval at_least(double lo) { return {lo}; }
[[nodiscard]] constexpr Interval positive() {
  return {0.0, std::numeric_limits<double>::infinity(), true};
}

/// Parses a base-10 integer in [lo, hi] into `out`; returns an error
/// message naming `flag`, or "" on success. No sign on unsigned types, no
/// whitespace, no trailing characters.
template <std::integral T>
[[nodiscard]] std::string parse_integer(std::string_view flag,
                                        std::string_view text, T lo, T hi,
                                        T& out) {
  using Wide = std::conditional_t<std::is_signed_v<T>, long long,
                                  unsigned long long>;
  Wide v{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || v < static_cast<Wide>(lo) ||
      v > static_cast<Wide>(hi)) {
    return std::string(flag) + ": expected an integer in [" +
           std::to_string(lo) + ", " + std::to_string(hi) + "], got '" +
           std::string(text) + "'";
  }
  out = static_cast<T>(v);
  return {};
}

/// Parses a finite real in `range` into `out` (same contract).
[[nodiscard]] std::string parse_real(std::string_view flag,
                                     std::string_view text, Interval range,
                                     double& out);

/// Row factories. Each returns a kOwn row; in_family stamps a shared
/// family on a whole group.
[[nodiscard]] Flag toggle(std::string_view name, bool& dst,
                          std::string_view help, bool value = true);
template <std::integral T>
[[nodiscard]] Flag integer(std::string_view name, std::string metavar, T& dst,
                           std::string_view help,
                           T lo = std::numeric_limits<T>::min(),
                           T hi = std::numeric_limits<T>::max()) {
  return {name, std::is_signed_v<T> ? Kind::kInteger : Kind::kUnsigned,
          std::move(metavar), help, Family::kOwn,
          [name, &dst, lo, hi](std::string_view v) {
            return parse_integer(name, v, lo, hi, dst);
          }};
}
[[nodiscard]] Flag real(std::string_view name, std::string metavar,
                        double& dst, std::string_view help, Interval range);
/// A choice row; the metavar lists the words ("poisson|weibull").
template <typename T>
[[nodiscard]] Flag choice(std::string_view name, T& dst,
                          std::vector<std::pair<std::string_view, T>> words,
                          std::string_view help) {
  std::string metavar;
  for (const auto& word : words) {
    if (!metavar.empty()) metavar += '|';
    metavar += word.first;
  }
  return {name, Kind::kChoice, metavar, help, Family::kOwn,
          [name, &dst, words = std::move(words),
           metavar](std::string_view v) -> std::string {
            for (const auto& [word, value] : words) {
              if (word == v) {
                dst = value;
                return {};
              }
            }
            return std::string(name) + ": expected one of " + metavar +
                   ", got '" + std::string(v) + "'";
          }};
}
[[nodiscard]] Flag text(std::string_view name, std::string metavar,
                        std::string& dst, std::string_view help);
/// `--flag` sets `on`; `--flag=PATH` also stores PATH.
[[nodiscard]] Flag inline_path(std::string_view name, bool& on,
                               std::string& path, std::string_view help);
/// The shared --threads row (family kThreads, range [0, 4096]).
[[nodiscard]] Flag threads(int& dst);
/// `rows`, each moved into `family`.
[[nodiscard]] std::vector<Flag> in_family(Family family,
                                          std::vector<Flag> rows);

class Table {
 public:
  enum class Status { kOk, kHelp, kError };
  struct Result {
    Status status = Status::kOk;
    std::string error;  // set when status == kError
  };

  /// `program` names the binary in messages and help; `accepted` lists the
  /// families it wires (kOwn is always accepted).
  Table(std::string program, Families accepted);

  Table& add(std::vector<Flag> rows);
  /// Text printed after the flag list by --help.
  Table& notes(std::string text);

  /// Parses argv[1..argc). Stops at the first error; --help or -h anywhere
  /// before it yields kHelp. Never throws on any argv.
  [[nodiscard]] Result parse(int argc, const char* const* argv);
  /// The binaries' exit policy around parse: kHelp prints help() to stdout
  /// and exits 0; kError prints the error and a --help hint to stderr and
  /// exits 2.
  void parse_or_exit(int argc, const char* const* argv);

  /// Whether the named flag appeared in the last parse.
  [[nodiscard]] bool was_set(std::string_view name) const;
  /// Whether any flag of `family` appeared in the last parse.
  [[nodiscard]] bool any_set(Family family) const;
  /// Usage text generated from the accepted rows.
  [[nodiscard]] std::string help() const;
  [[nodiscard]] const std::vector<Flag>& rows() const { return rows_; }

 private:
  std::string program_;
  Families accepted_;
  std::vector<Flag> rows_;
  std::vector<char> set_;
  std::string notes_;
};

}  // namespace tmc::cli
