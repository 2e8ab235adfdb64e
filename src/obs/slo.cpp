#include "obs/slo.h"

#include <iterator>
#include <utility>

#include "cli/flags.h"

namespace tmc::obs {
namespace {

/// Parses a latency literal ("50ms", "2s", "750us", "0.05") into seconds.
bool parse_latency(std::string_view text, double& out_s) {
  double scale = 1.0;
  if (text.size() >= 2 && text.substr(text.size() - 2) == "ns") {
    scale = 1e-9;
    text.remove_suffix(2);
  } else if (text.size() >= 2 && text.substr(text.size() - 2) == "us") {
    scale = 1e-6;
    text.remove_suffix(2);
  } else if (text.size() >= 2 && text.substr(text.size() - 2) == "ms") {
    scale = 1e-3;
    text.remove_suffix(2);
  } else if (!text.empty() && text.back() == 's') {
    text.remove_suffix(1);
  }
  double value = 0.0;
  if (!cli::parse_real("--slo", text, cli::positive(), value).empty()) {
    return false;
  }
  out_s = value * scale;
  return true;
}

bool parse_entry(std::string_view entry, SloTarget& target,
                 std::string& error) {
  const std::size_t eq = entry.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    error = "--slo entry '" + std::string(entry) +
            "' wants class=latency (e.g. interactive=50ms)";
    return false;
  }
  target.job_class = std::string(entry.substr(0, eq));
  std::string_view value = entry.substr(eq + 1);

  const std::size_t at = value.find('@');
  if (at != std::string_view::npos) {
    const std::string_view pct_text = value.substr(at + 1);
    double pct = 0.0;
    if (!cli::parse_real("--slo", pct_text, {0.0, 100.0, true, true}, pct)
             .empty()) {
      error = "--slo objective '" + std::string(pct_text) +
              "' wants a percentage in (0, 100), e.g. @99.9";
      return false;
    }
    target.objective = pct / 100.0;
    value = value.substr(0, at);
  }

  if (!parse_latency(value, target.target_s)) {
    error = "--slo latency '" + std::string(value) +
            "' wants a positive duration (ns/us/ms/s suffix; bare = seconds)";
    return false;
  }
  return true;
}

}  // namespace

bool parse_slo_spec(std::string_view spec, std::vector<SloTarget>& out,
                    std::string& error) {
  if (spec.empty()) {
    error = "--slo wants class=latency[,class=latency...]";
    return false;
  }
  std::vector<SloTarget> targets;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t comma = spec.find(',', start);
    if (comma == std::string_view::npos) comma = spec.size();
    SloTarget target;
    if (!parse_entry(spec.substr(start, comma - start), target, error)) {
      return false;
    }
    for (const SloTarget& existing : targets) {
      if (existing.job_class == target.job_class) {
        error = "--slo lists class '" + target.job_class + "' twice";
        return false;
      }
    }
    targets.push_back(std::move(target));
    start = comma + 1;
  }
  out.insert(out.end(), std::make_move_iterator(targets.begin()),
             std::make_move_iterator(targets.end()));
  return true;
}

SloTracker::SloTracker(std::vector<SloTarget> targets) {
  classes_.reserve(targets.size());
  for (SloTarget& target : targets) {
    ClassState state;
    state.target = std::move(target);
    classes_.push_back(std::move(state));
  }
}

int SloTracker::index_of(std::string_view job_class) const {
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    if (classes_[i].target.job_class == job_class) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

}  // namespace tmc::obs
