#include "index/dominance.h"

#include <cassert>

namespace kspr {

void DominanceGraph::Add(RecordId rid) {
  if (Contains(rid)) return;
  const int idx = static_cast<int>(members_.size());
  std::vector<RecordId> doms;
  for (int i = 0; i < idx; ++i) {
    const RecordId other = members_[i];
    if (data_->Dominates(other, rid)) {
      doms.push_back(other);
    } else if (data_->Dominates(rid, other)) {
      dominators_[i].push_back(rid);
    }
  }
  members_.push_back(rid);
  if (static_cast<size_t>(rid) >= index_.size()) index_.resize(rid + 1, -1);
  index_[rid] = idx;
  dominators_.push_back(std::move(doms));
}

const std::vector<RecordId>& DominanceGraph::Dominators(RecordId rid) const {
  assert(Contains(rid));
  return dominators_[index_[rid]];
}

}  // namespace kspr
