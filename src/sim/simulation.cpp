#include "sim/simulation.h"

#include <algorithm>
#include <cassert>
#include <ostream>

namespace tmc::sim {

std::ostream& operator<<(std::ostream& os, SimTime t) {
  return os << t.to_seconds() << "s";
}

std::uint64_t Simulation::run(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && !queue_.empty()) {
    auto fired = queue_.pop();
    assert(fired.time >= now_);
    now_ = fired.time;
    fired.callback();
    ++n;
  }
  fired_ += n;
  return n;
}

std::uint64_t Simulation::run_until(SimTime until) {
  std::uint64_t n = 0;
  EventQueue::Fired fired;
  while (queue_.pop_if_at_most(until, fired)) {
    now_ = fired.time;
    fired.callback();
    ++n;
  }
  if (until > now_) now_ = until;
  fired_ += n;
  return n;
}

bool Simulation::step() {
  if (queue_.empty()) return false;
  auto fired = queue_.pop();
  now_ = fired.time;
  fired.callback();
  ++fired_;
  return true;
}

bool Simulation::step_until(SimTime limit) {
  EventQueue::Fired fired;
  if (!queue_.pop_if_at_most(limit, fired)) {
    now_ = std::max(now_, queue_.current_time());
    return false;
  }
  now_ = fired.time;
  fired.callback();
  ++fired_;
  return true;
}

}  // namespace tmc::sim
