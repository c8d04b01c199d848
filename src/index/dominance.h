// Incremental dominance graph over processed records (paper Sec 5).
//
// P-CTA maintains, for every processed record, the set of processed records
// that dominate it. During hyperplane insertion the graph provides the
// case-II shortcut: if a dominator of r_i contributes a negative halfspace
// to the node's full halfspace set, h_i^- covers the node outright.

#ifndef KSPR_INDEX_DOMINANCE_H_
#define KSPR_INDEX_DOMINANCE_H_

#include <vector>

#include "common/dataset.h"
#include "common/types.h"

namespace kspr {

class DominanceGraph {
 public:
  explicit DominanceGraph(const Dataset* data) : data_(data) {}

  /// Adds `rid`, computing its dominance relations against current members
  /// (O(|members| * d)). No-op if already present.
  void Add(RecordId rid);

  bool Contains(RecordId rid) const {
    return rid >= 0 && static_cast<size_t>(rid) < index_.size() &&
           index_[rid] >= 0;
  }

  /// Processed records that dominate `rid`. `rid` must have been Added.
  const std::vector<RecordId>& Dominators(RecordId rid) const;

  int size() const { return static_cast<int>(members_.size()); }

 private:
  const Dataset* data_;
  std::vector<RecordId> members_;
  /// Record id -> position in members_, -1 for non-members; grows on
  /// demand to the largest id added.
  std::vector<int> index_;
  std::vector<std::vector<RecordId>> dominators_;
};

}  // namespace kspr

#endif  // KSPR_INDEX_DOMINANCE_H_
