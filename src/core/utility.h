// Utility functions (paper §5, "The Evaluation Component").
//
// A per-UE utility u(r) maps a UE's actual downlink rate to a goodness
// value; the overall utility f is the UE-density-weighted sum of u over all
// grids. Two standard utilities from the paper:
//
//   - performance (Formula 6): u(r) = log r for r > 0, else 0 — the
//     proportional-fair log-rate objective of §3 (Kelly),
//   - coverage (Formula 5):    u(r) = 1 for r > 0, else 0 — count of UEs
//     with qualified service.
//
// plus a hook for custom utilities (e.g. rate-threshold QoS targets).
#pragma once

#include <functional>
#include <string>

namespace magus::core {

class Utility {
 public:
  /// Formula 6: sum of log rates. Rates are in bit/s; the log is natural.
  [[nodiscard]] static Utility performance();

  /// Formula 5: number of UEs with service.
  [[nodiscard]] static Utility coverage();

  /// UEs whose rate meets a minimum target count 1, others 0.
  [[nodiscard]] static Utility rate_threshold(double min_rate_bps);

  /// Custom per-UE utility. `u` receives the actual rate in bit/s and is
  /// only called with positive rates; out-of-service UEs contribute 0.
  /// `u` must be a pure function of the rate (same rate, same double, no
  /// side effects): the evaluator calls it once per distinct (serving
  /// sector, CQI) pair and reuses the result for every cell sharing it.
  Utility(std::string name, std::function<double(double)> u);

  /// Per-UE utility of a positive rate. Requires rate_bps > 0 (callers
  /// handle the out-of-service case as a 0 contribution).
  [[nodiscard]] double per_ue(double rate_bps) const { return u_(rate_bps); }

  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::function<double(double)> u_;
};

}  // namespace magus::core
