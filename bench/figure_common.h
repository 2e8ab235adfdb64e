// tmcsim -- shared driver for the paper's figure benches.
//
// Each of figures 3-6 plots mean response time against partition size
// (1, 2, 4, 8, 16) with the per-partition topology letter (L/R/M/H), one
// line for the static policy and one for time-sharing (the pure TS policy
// at partition size 16; the hybrid policy below it -- paper section 5.2).
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "cli/flags.h"
#include "core/experiment.h"
#include "fault/fault.h"
#include "obs/hub.h"
#include "sched/stealing/stealing.h"

namespace tmc::bench {

struct FigureOptions {
  /// The real machine could not wire a 16-node hypercube (one Transputer
  /// serves the host link); follow the paper and skip 16H by default.
  bool with_16h = false;
  /// Also emit CSV after the table.
  bool csv = false;
  /// Reduced problem: smaller batch (3+1 jobs), smaller job sizes, and the
  /// {1, 4, 16} partition column only. The shape conclusions survive; the
  /// golden-figure ctest rows use this to cover fig3-6 cheaply.
  bool quick = false;
  /// Worker threads for the sweep (0 = hardware thread count). The table is
  /// bit-identical at any thread count; only wall-clock changes. The
  /// ablations use this struct too, ignoring the figure-only fields.
  int threads = 1;
  /// Partition sizes to sweep.
  std::vector<int> partition_sizes{1, 2, 4, 8, 16};
  /// Shared observability flags (--metrics / --timeline / --sample-interval).
  obs::Options obs;
  /// Fault-injection knobs (--fault-rate etc.; all zero = reliable machine,
  /// byte-identical to a run without the flags).
  fault::FaultConfig faults{};
  /// Work-stealing knobs (--steal-rate etc.; rate zero = no engine, the
  /// kStealing fallback scripts reproduce the fixed goldens byte for byte).
  sched::stealing::StealParams stealing{};
};

/// The families every figure bench (fig3-7), and every ablation, accepts;
/// a bench adds the families it also wires, e.g.
/// `kAblationFamilies | cli::Family::kFault`.
inline constexpr cli::Families kFigureFamilies{
    cli::Family::kThreads, cli::Family::kFigure, cli::Family::kObs,
    cli::Family::kFault};
inline constexpr cli::Families kAblationFamilies{cli::Family::kThreads,
                                              cli::Family::kObs};

/// Parses argv into `options`, whose fields hold the defaults, against the
/// shared bench rows: --threads, the figure switches, and the obs, slo,
/// fault and steal families. Flags outside `families` are rejected with
/// their family's message. Exits 2 on a bad flag and 0 after --help.
/// --quick also narrows the partition sizes to {1, 4, 16}.
[[nodiscard]] FigureOptions parse_bench_options(int argc, char** argv,
                                                cli::Families families,
                                                FigureOptions options = {});

/// Runs `body(argc, argv)` as a bench's whole main. A simulation that cannot
/// finish -- the machine watchdog's std::runtime_error, e.g. under a fault
/// rate that leaves too few nodes alive -- prints `<binary>: <what>` on
/// stderr and exits 3 instead of aborting.
[[nodiscard]] int run_main(int argc, char** argv, int (*body)(int, char**));

/// Owns the optional hub for one bench invocation. A sweep runs many
/// simulations (often in parallel); exactly one -- the representative point
/// the caller designates -- is observed, because the hub's instruments are
/// single-threaded.
class ObsSession {
 public:
  explicit ObsSession(const obs::Options& options) {
    if (options.any()) hub_.emplace(options);
  }

  /// Attaches the hub to `machine` when this is the representative run and
  /// observability was requested; a no-op otherwise.
  void attach(core::MachineConfig& machine, bool representative) {
    if (hub_ && representative) machine.obs = &*hub_;
  }

  /// Writes the requested outputs. Returns the process exit code to use
  /// (1 if an output file could not be written, else 0).
  [[nodiscard]] int flush(std::ostream& diag) {
    return hub_ && !hub_->write_outputs(diag) ? 1 : 0;
  }

 private:
  std::optional<obs::Hub> hub_;
};

struct FigureRow {
  std::string label;        // e.g. "8L"
  double static_mrt = 0.0;  // seconds
  double ts_mrt = 0.0;      // hybrid below p=16, pure TS at p=16
  double static_best = 0.0;
  double static_worst = 0.0;
};

/// Runs the full sweep for one application/architecture combination,
/// farming the independent figure points across options.threads. When `obs`
/// is given, the first sweep point's static primary-order run is observed.
[[nodiscard]] std::vector<FigureRow> run_figure_sweep(
    workload::App app, sched::SoftwareArch arch, const FigureOptions& options,
    std::ostream& progress, ObsSession* obs = nullptr);

/// Prints the sweep in the paper's row layout.
void print_figure(std::ostream& os, const std::string& title,
                  const std::vector<FigureRow>& rows, bool csv);

}  // namespace tmc::bench
