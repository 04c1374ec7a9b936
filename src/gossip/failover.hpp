// Aggregator failover: promote a standby when a primary is declared DEAD.
//
// The controller watches MemberEvents for a configured set of primary ids
// and turns the level-free edge stream into exactly-once promote/demote
// actions:
//
//   died(primary)               → promote, once, while the primary stays
//                                 down (SUSPECT alone never promotes — a
//                                 slow link must not steal a subtree);
//   recovered/joined(primary)   → demote, once, when the primary proves
//                                 alive again.
//
// `died` comes only from the standby's own timer, t_fail + t_cleanup after
// it suspected the primary; no message can declare a member DEAD.  A
// repeated `died` without a recovery between (a later suspicion of a DEAD
// row) promotes nothing new, and `removed` while promoted does not demote
// (the primary is still gone), so the promoted flag cannot flap across a
// SUSPECT window: suspicion either refutes (no event we act on) or hardens
// into a `died` edge.  The agent hands events out in the order the table
// made them, so a refutation cannot overtake the `died` it followed.
//
// The controller is protocol-agnostic — the gmetad layer supplies the
// actions (adopt/drop the primary's advertised sources); deterministic
// tests count promotions()/demotions() directly.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "gossip/member_table.hpp"

namespace ganglia::gossip {

class FailoverController {
 public:
  /// `action(primary_id)` runs outside the controller lock.
  using Action = std::function<void(const std::string& primary_id)>;

  explicit FailoverController(std::vector<std::string> primary_ids);

  void set_on_promote(Action action);
  void set_on_demote(Action action);

  /// Feed one membership event (wire this as the Agent's event handler or
  /// call from a composite handler).
  void observe(const MemberEvent& event);

  /// Is this primary currently covered by us?
  bool promoted(const std::string& primary_id) const;
  /// Any primary covered?
  bool any_promoted() const;
  std::uint64_t promotions() const;
  std::uint64_t demotions() const;

 private:
  mutable std::mutex mutex_;
  std::set<std::string> primaries_;       ///< ids we stand by for
  std::set<std::string> covering_;        ///< currently promoted-for
  std::uint64_t promotions_ = 0;
  std::uint64_t demotions_ = 0;
  Action on_promote_;
  Action on_demote_;
};

}  // namespace ganglia::gossip
