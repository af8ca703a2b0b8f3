#include "src/index/scan.h"

#include "src/base/macros.h"

namespace apcm::index {

void ScanMatcher::Match(const Event& event,
                        std::vector<SubscriptionId>* matches) {
  matches->clear();
  uint64_t evals = 0;
  for (const BooleanExpression* sub : subscriptions_) {
    ++stats_.candidates_checked;
    if (sub->MatchesCounting(event, &evals)) {
      matches->push_back(sub->id());
    }
  }
  stats_.predicate_evals += evals;
  stats_.events_matched++;
  stats_.matches_emitted += matches->size();
}

}  // namespace apcm::index
