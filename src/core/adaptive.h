#ifndef APCM_CORE_ADAPTIVE_H_
#define APCM_CORE_ADAPTIVE_H_

#include <cstdint>

#include "src/base/macros.h"
#include "src/base/rng.h"

namespace apcm::core {

/// Evaluation mode of one cluster for one batch.
enum class EvalMode : uint8_t {
  kCompressed = 0,  ///< dictionary + bitmap and-not evaluation
  kLazy = 1,        ///< per-subscription short-circuit evaluation
};

/// Printable name ("compressed" / "lazy").
const char* EvalModeName(EvalMode mode);

/// Per-cluster controller implementing A-PCM's adaptivity.
///
/// Compressed evaluation always pays for every distinct predicate on the
/// event's present attributes (early zero-exit aside); lazy evaluation quits
/// each subscription at its first failing predicate. Which is cheaper
/// depends on sharing and on match probability, and drifts with the stream.
/// The controller keeps an EWMA of the measured per-event cost of each mode
/// (PcmMatcher records wall nanoseconds per event) and picks the cheaper
/// one, re-probing the other with probability epsilon so estimates track
/// drift (an epsilon-greedy bandit).
class AdaptiveState {
 public:
  /// `epsilon` is the exploration probability; `alpha` the EWMA weight of a
  /// new observation.
  AdaptiveState(double epsilon, double alpha)
      : epsilon_(epsilon), alpha_(alpha) {
    APCM_CHECK(epsilon >= 0 && epsilon <= 1);
    APCM_CHECK(alpha > 0 && alpha <= 1);
  }

  /// Picks the mode for the next batch. Deterministic given the rng stream.
  EvalMode Choose(Rng& rng) {
    // Sample each arm once before exploiting.
    if (observations_[0] == 0) return EvalMode::kCompressed;
    if (observations_[1] == 0) return EvalMode::kLazy;
    const EvalMode best = cost_[0] <= cost_[1] ? EvalMode::kCompressed
                                               : EvalMode::kLazy;
    if (rng.Bernoulli(epsilon_)) {
      return best == EvalMode::kCompressed ? EvalMode::kLazy
                                           : EvalMode::kCompressed;
    }
    return best;
  }

  /// Records the measured cost per event (wall nanoseconds in PcmMatcher)
  /// of running `mode`.
  void Record(EvalMode mode, double cost_per_event) {
    const auto i = static_cast<size_t>(mode);
    if (observations_[i] == 0) {
      cost_[i] = cost_per_event;
    } else {
      cost_[i] = (1 - alpha_) * cost_[i] + alpha_ * cost_per_event;
    }
    ++observations_[i];
  }

  /// Current cost estimate of `mode` (cost per event, in the unit Record was
  /// given; 0 if unsampled).
  double EstimatedCost(EvalMode mode) const {
    return cost_[static_cast<size_t>(mode)];
  }

  /// Batches executed in `mode` so far.
  uint64_t Observations(EvalMode mode) const {
    return observations_[static_cast<size_t>(mode)];
  }

 private:
  double epsilon_;
  double alpha_;
  double cost_[2] = {0, 0};
  uint64_t observations_[2] = {0, 0};
};

}  // namespace apcm::core

#endif  // APCM_CORE_ADAPTIVE_H_
