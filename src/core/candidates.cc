#include "core/candidates.h"

#include <algorithm>
#include <cassert>

#include "common/dataset.h"
#include "core/solver.h"
#include "index/rtree.h"

namespace kspr {

void ReduceToGlobalSkyband(std::vector<Candidate>* candidates, int k) {
  // O(|U|^2) pairwise counting with an early cap at k. The merged union U
  // is skyband-sized (hundreds at serving scale), so quadratic work here
  // is dwarfed by the arrangement that follows.
  const std::vector<Candidate>& u = *candidates;
  std::vector<char> keep(u.size(), 1);
  for (size_t i = 0; i < u.size(); ++i) {
    int dominators = 0;
    for (size_t j = 0; j < u.size(); ++j) {
      if (j == i) continue;
      if (Dataset::Dominates(u[j].value, u[i].value) && ++dominators >= k) {
        break;
      }
    }
    if (dominators >= k) keep[i] = 0;
  }
  size_t out = 0;
  for (size_t i = 0; i < u.size(); ++i) {
    if (keep[i]) (*candidates)[out++] = (*candidates)[i];
  }
  candidates->resize(out);
}

void FilterFocalCovered(std::vector<Candidate>* candidates,
                        const Vec& focal) {
  candidates->erase(
      std::remove_if(candidates->begin(), candidates->end(),
                     [&focal](const Candidate& c) {
                       return WeaklyDominates(focal, c.value);
                     }),
      candidates->end());
}

bool FocalCoversAll(const Vec& focal, const std::vector<Vec>& changed) {
  return std::all_of(changed.begin(), changed.end(), [&focal](const Vec& r) {
    return WeaklyDominates(focal, r);
  });
}

void SortCandidates(std::vector<Candidate>* candidates) {
  std::sort(candidates->begin(), candidates->end(),
            [](const Candidate& a, const Candidate& b) {
              return a.global_id < b.global_id;
            });
}

KsprResult SolveOnCandidates(const std::vector<Candidate>& candidates,
                             const Vec& focal, const KsprOptions& options,
                             int leaf_capacity, int fanout) {
  Dataset mini(focal.dim);
  mini.Reserve(static_cast<RecordId>(candidates.size()));
  for (const Candidate& c : candidates) {
    assert(c.value.dim == focal.dim);
    mini.Add(c.value);
  }
  RTree tree = RTree::BulkLoad(mini, leaf_capacity, fanout);
  KsprSolver solver(&mini, &tree);
  return solver.Query(focal, options);
}

}  // namespace kspr
