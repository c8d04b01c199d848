#include "index/bbs.h"

#include <queue>

#include "index/mbr.h"

namespace kspr {

namespace {

struct HeapEntry {
  double key;        // MaxSum of the entry; larger pops first
  bool is_record;
  int id;            // node id or (leaf position for records, see below)
  RecordId rid = kInvalidRecord;

  bool operator<(const HeapEntry& o) const { return key < o.key; }
};

// Pushes the children of `node` (records for leaves).
void PushChildren(const Dataset& data, const RTree& tree,
                  const RTree::Node& node, std::priority_queue<HeapEntry>* pq) {
  if (node.leaf) {
    for (RecordId rid : node.items) {
      HeapEntry e;
      e.is_record = true;
      e.id = -1;
      e.rid = rid;
      e.key = data.RowSum(rid);
      pq->push(e);
    }
  } else {
    for (int c : node.items) {
      HeapEntry e;
      e.is_record = false;
      e.id = c;
      e.key = tree.Fetch(c).mbr.MaxSum();
      pq->push(e);
    }
  }
}

}  // namespace

std::vector<RecordId> Skyline(const Dataset& data, const RTree& tree,
                              const std::vector<char>* exclude) {
  std::vector<RecordId> sky;
  if (tree.empty()) return sky;

  const int dim = data.dim();
  std::vector<const double*> sky_rows;  // parallel to `sky`
  // Tries first the member that answered the previous test: consecutive
  // pops are close in the tree and tend to share a dominator. Only the
  // probe order changes, never the verdict.
  size_t last = 0;
  auto dominated = [&](const double* v) {
    if (sky_rows.empty()) return false;
    if (Dataset::Dominates(sky_rows[last], v, dim)) return true;
    for (size_t i = 0; i < sky_rows.size(); ++i) {
      if (i != last && Dataset::Dominates(sky_rows[i], v, dim)) {
        last = i;
        return true;
      }
    }
    return false;
  };

  std::priority_queue<HeapEntry> pq;
  {
    HeapEntry e;
    e.is_record = false;
    e.id = tree.root();
    e.key = tree.Fetch(tree.root()).mbr.MaxSum();
    pq.push(e);
  }
  while (!pq.empty()) {
    HeapEntry e = pq.top();
    pq.pop();
    if (e.is_record) {
      if (exclude != nullptr && (*exclude)[e.rid]) continue;
      const double* v = data.Row(e.rid);
      if (dominated(v)) continue;
      sky.push_back(e.rid);
      sky_rows.push_back(v);
    } else {
      const RTree::Node& node = tree.Fetch(e.id);
      if (dominated(node.mbr.hi.v.data())) continue;
      PushChildren(data, tree, node, &pq);
    }
  }
  return sky;
}

std::vector<RecordId> KSkyband(const Dataset& data, const RTree& tree, int k) {
  std::vector<RecordId> band;
  if (tree.empty()) return band;

  auto dominator_count = [&](const Vec& v) {
    int cnt = 0;
    for (RecordId s : band) {
      if (Dataset::Dominates(data.Get(s), v) && ++cnt >= k) break;
    }
    return cnt;
  };

  std::priority_queue<HeapEntry> pq;
  {
    HeapEntry e;
    e.is_record = false;
    e.id = tree.root();
    e.key = tree.Fetch(tree.root()).mbr.MaxSum();
    pq.push(e);
  }
  while (!pq.empty()) {
    HeapEntry e = pq.top();
    pq.pop();
    if (e.is_record) {
      if (dominator_count(data.Get(e.rid)) < k) band.push_back(e.rid);
    } else {
      const RTree::Node& node = tree.Fetch(e.id);
      if (dominator_count(node.mbr.hi) >= k) continue;
      PushChildren(data, tree, node, &pq);
    }
  }
  return band;
}

int CountDominators(const Dataset& data, RecordId r) {
  int cnt = 0;
  for (RecordId i = 0; i < data.size(); ++i) {
    if (i != r && data.IsLive(i) && data.Dominates(i, r)) ++cnt;
  }
  return cnt;
}

bool ExistsUnprocessedNotDominated(const Dataset& data, const RTree& tree,
                                   const std::vector<const double*>& pivots,
                                   const std::vector<char>& processed,
                                   const std::vector<char>* skip,
                                   RecordId* witness) {
  if (tree.empty()) return false;
  PivotScan scan(&pivots, data.dim());
  // Reused across calls; each thread runs one check at a time.
  thread_local std::vector<int> stack;
  stack.assign(1, tree.root());
  while (!stack.empty()) {
    const RTree::Node& node = tree.Fetch(stack.back());
    stack.pop_back();
    // Prune: some pivot weakly dominates the whole box (Lemma 5 -- no
    // record inside can change the cell's rank or extent).
    if (scan.Dominates(node.mbr)) continue;
    if (node.leaf) {
      for (RecordId rid : node.items) {
        if (processed[rid]) continue;
        if (skip != nullptr && (*skip)[rid]) continue;
        if (!scan.Dominates(data.Row(rid))) {
          if (witness != nullptr) *witness = rid;
          return true;
        }
      }
    } else {
      for (int c : node.items) {
        stack.push_back(c);
      }
    }
  }
  return false;
}

}  // namespace kspr
