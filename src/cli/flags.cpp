#include "cli/flags.h"

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>

namespace tmc::cli {
namespace {

/// Why a family's flags are refused by a binary that does not wire them.
std::string_view rejection(Family family) {
  switch (family) {
    case Family::kFigure:
      return "figure flags only apply to the figure benches (fig3-7)";
    case Family::kSlo:
      return "SLO targets only apply to the serving harness "
             "(serve_sustained)";
    case Family::kFault:
      return "fault-injection flags only apply to benches wired for them "
             "(fig3-7, a2, a8, a10, a12_faults, a13_stealing, "
             "serve_sustained)";
    case Family::kSteal:
      return "work-stealing flags only apply to binaries wired for the "
             "stealing architecture (fig7_matmul_stealing, a13_stealing, "
             "serve_sustained, tmc_cli --arch stealing)";
    default:
      return "flag does not apply to this binary";
  }
}

std::string fmt_bound(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

/// Help-line label: "--name METAVAR", or "--name[=PATH]" for inline paths.
std::string label(const Flag& row) {
  std::string out(row.name);
  if (row.kind == Kind::kInlinePath) return out + "[=" + row.metavar + "]";
  if (!row.metavar.empty()) out += " " + row.metavar;
  return out;
}

}  // namespace

std::string parse_real(std::string_view flag, std::string_view text,
                       Interval range, double& out) {
  double v = 0.0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  const bool inside = std::isfinite(v) &&
                      (range.lo_open ? v > range.lo : v >= range.lo) &&
                      (range.hi_open ? v < range.hi : v <= range.hi);
  if (ec != std::errc{} || ptr != end || !inside) {
    return std::string(flag) + ": expected a number in " +
           (range.lo_open ? "(" : "[") + fmt_bound(range.lo) + ", " +
           fmt_bound(range.hi) + (range.hi_open ? ")" : "]") + ", got '" +
           std::string(text) + "'";
  }
  out = v;
  return {};
}

Flag toggle(std::string_view name, bool& dst, std::string_view help,
            bool value) {
  return {name, Kind::kSwitch, "", help, Family::kOwn,
          [&dst, value](std::string_view) {
            dst = value;
            return std::string();
          }};
}

Flag real(std::string_view name, std::string metavar, double& dst,
          std::string_view help, Interval range) {
  return {name, Kind::kReal, std::move(metavar), help, Family::kOwn,
          [name, &dst, range](std::string_view v) {
            return parse_real(name, v, range, dst);
          }};
}

Flag text(std::string_view name, std::string metavar, std::string& dst,
          std::string_view help) {
  return {name, Kind::kText, std::move(metavar), help, Family::kOwn,
          [name, &dst](std::string_view v) -> std::string {
            if (v.empty()) return std::string(name) + " requires a value";
            dst = v;
            return {};
          }};
}

Flag inline_path(std::string_view name, bool& on, std::string& path,
                 std::string_view help) {
  return {name, Kind::kInlinePath, "PATH", help, Family::kOwn,
          [&on, &path](std::string_view v) {
            on = true;
            if (!v.empty()) path = v;
            return std::string();
          }};
}

Flag threads(int& dst) {
  Flag row = integer("--threads", "N", dst,
                     "worker threads for independent runs (0 = hardware\n"
                     "thread count; output is identical at any count)",
                     0, 4096);
  row.family = Family::kThreads;
  return row;
}

std::vector<Flag> in_family(Family family, std::vector<Flag> rows) {
  for (Flag& row : rows) row.family = family;
  return rows;
}

Table::Table(std::string program, Families accepted)
    : program_(std::move(program)), accepted_(accepted | Family::kOwn) {}

Table& Table::add(std::vector<Flag> rows) {
  for (Flag& row : rows) rows_.push_back(std::move(row));
  set_.assign(rows_.size(), 0);
  return *this;
}


Table& Table::notes(std::string text) {
  notes_ = std::move(text);
  return *this;
}

Table::Result Table::parse(int argc, const char* const* argv) {
  set_.assign(rows_.size(), 0);
  const auto fail = [](std::string error) {
    return Result{Status::kError, std::move(error)};
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") return {Status::kHelp, {}};
    const std::size_t eq = arg.find('=');
    const std::string_view name = arg.substr(0, eq);
    std::size_t r = 0;
    while (r < rows_.size() && rows_[r].name != name) ++r;
    if (r == rows_.size()) {
      return fail("unknown flag '" + std::string(arg) + "'");
    }
    const Flag& row = rows_[r];
    if (!accepted_.contains(row.family)) {
      return fail(std::string(name) + ": " +
                  std::string(rejection(row.family)));
    }
    std::string_view value;
    if (eq != arg.npos) {
      if (row.kind == Kind::kSwitch) {
        return fail(std::string(name) + " takes no value");
      }
      value = arg.substr(eq + 1);
    } else if (row.kind != Kind::kSwitch && row.kind != Kind::kInlinePath) {
      if (i + 1 >= argc) return fail(std::string(name) + " requires a value");
      value = argv[++i];
    }
    if (std::string error = row.store(value); !error.empty()) {
      return fail(std::move(error));
    }
    set_[r] = 1;
  }
  return {};
}

bool Table::was_set(std::string_view name) const {
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    if (rows_[r].name == name) return set_[r] != 0;
  }
  return false;
}

bool Table::any_set(Family family) const {
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    if (rows_[r].family == family && set_[r] != 0) return true;
  }
  return false;
}

std::string Table::help() const {
  constexpr std::size_t kColumn = 28;
  std::string out = "usage: " + program_ + " [flags]\n";
  const auto row_line = [&out](const std::string& lead, std::string_view help) {
    out += "  " + lead;
    if (lead.size() + 4 > kColumn) {
      out += "\n" + std::string(kColumn, ' ');
    } else {
      out += std::string(kColumn - 2 - lead.size(), ' ');
    }
    for (const char c : help) {
      out += c;
      if (c == '\n') out += std::string(kColumn, ' ');
    }
    out += "\n";
  };
  for (const Flag& row : rows_) {
    if (accepted_.contains(row.family)) row_line(label(row), row.help);
  }
  row_line("--help, -h", "print this help and exit");
  out += notes_;
  return out;
}

void Table::parse_or_exit(int argc, const char* const* argv) {
  const Result result = parse(argc, argv);
  if (result.status == Status::kHelp) {
    std::cout << help();
    std::exit(0);
  }
  if (result.status == Status::kError) {
    std::cerr << program_ << ": " << result.error << "\n(run " << program_
              << " --help for the flag list)\n";
    std::exit(2);
  }
}

}  // namespace tmc::cli
