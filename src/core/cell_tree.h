// The CellTree data structure (paper Sec 4).
//
// A binary tree that incrementally maintains the arrangement of the
// hyperplanes inserted so far. Leaves correspond to arrangement cells;
// every cell is represented IMPLICITLY by the halfspaces labelling the
// edges on its root path plus the cover sets of its ancestors — exact
// geometry is never computed during insertion.
//
// Implements all the optimisations of Sec 4.3:
//  * top-down insertion with case I/II/III classification,
//  * Lemma-2 elimination of inconsequential halfspaces from LPs,
//  * witness-point caching to skip feasibility tests,
//  * the dominance-graph shortcut of Sec 5 (case-II without any LP),
//  * lazy subtree elimination once a node's rank exceeds k.
//
// Parallel insertion: an insertion descends the whole live tree, and the
// descents into disjoint subtrees are independent. When a TraversalContext
// is supplied, InsertHyperplane runs a serial SEED descent from the root
// that, instead of recursing into sufficiently large live subtrees, emits
// them as tasks (carrying a snapshot of the descent-scoped state); the
// executor's workers then claim tasks from a shared frontier and run the
// identical recursion, allocating any split-off leaves in a task-local
// arena. A deterministic reduction step splices the arenas into the node
// store in task-emission (= DFS) order, merges per-task counters (integer
// sums, order-free) and replays the parent-death checks bottom-up —
// so the resulting tree state, result regions and statistics are
// bitwise-identical to the serial insertion for every thread count.

#ifndef KSPR_CORE_CELL_TREE_H_
#define KSPR_CORE_CELL_TREE_H_

#include <deque>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "common/vec.h"
#include "core/options.h"
#include "core/parallel.h"
#include "geom/hyperplane.h"
#include "lp/feasibility.h"

namespace kspr {

/// Per-query intra-parallelism handle threaded through the traversal.
/// `executor` is not owned; null (or concurrency 1) means serial.
struct TraversalContext {
  Executor* executor = nullptr;
  int min_cells_per_task = 32;
};

class CellTree {
 public:
  /// `k_tree` is the tree-local rank threshold (the query k minus the
  /// number of records dominating the focal record, which are not
  /// inserted). `store`, `options` and `stats` must outlive the tree.
  CellTree(HyperplaneStore* store, int k_tree, const KsprOptions* options,
           KsprStats* stats);

  /// Inserts the hyperplane of record `rid`. `dominators`, when provided,
  /// lists already-processed records dominating `rid` (enables the Sec 5
  /// case-II shortcut). Degenerate hyperplanes are handled: always-negative
  /// ones are ignored; always-positive ones raise the base rank of the
  /// whole tree. `parallel` (may be null) runs the descent over independent
  /// subtrees on the context's executor; the outcome is bitwise-identical
  /// to the serial insertion.
  void InsertHyperplane(RecordId rid,
                        const std::vector<RecordId>* dominators = nullptr,
                        const TraversalContext* parallel = nullptr);

  /// True when every leaf has been eliminated or reported.
  bool RootDead() const { return nodes_[0].dead(); }

  int k_tree() const { return k_tree_; }

  /// Rank contribution shared by every cell (1 + always-positive records
  /// inserted so far). Normally 1 because preprocessing removes dominators.
  int base_rank() const { return 1 + base_positives_; }

  struct LeafInfo {
    int node_id = -1;
    /// Tree-local rank: base_rank() + positive halfspaces covering the leaf.
    int rank = 0;
    /// Edge labels on the root path (the candidate bounding halfspaces).
    std::vector<HalfspaceRef> path;
    /// Records contributing a negative halfspace to the full defining set
    /// (the PIVOTS of Sec 5) and those contributing a positive one.
    std::vector<RecordId> neg_records;
    std::vector<RecordId> pos_records;
    bool has_witness = false;
    Vec witness;
  };

  /// Collects all live leaves with node_id >= min_node_id. Leaves whose
  /// rank exceeds k are never returned; with `prune` (the default) they
  /// are eliminated on the fly and their deaths propagated upward. The
  /// amortized query path passes prune = false so that a harvest leaves
  /// the tree bitwise-identical to one that was never harvested — eager
  /// death propagation would let later delta insertions skip zombie
  /// subtrees a from-scratch run still classifies (fewer LPs, diverging
  /// stats).
  void CollectLiveLeaves(std::vector<LeafInfo>* out, int min_node_id = 0,
                         bool prune = true);

  /// Marks a leaf as part of the kSPR answer; it is removed from all
  /// subsequent processing.
  void MarkReported(int node_id);

  /// Eliminates a node (look-ahead pruning).
  void MarkEliminated(int node_id);

  /// True iff `node_id` is a leaf that is neither eliminated nor reported.
  bool IsLiveLeaf(int node_id) const {
    const Node& n = nodes_[node_id];
    return n.leaf() && !n.dead();
  }

  /// Strict inequalities of the edge labels on the root path of `node_id`
  /// (the Lemma-2 candidate bounding set), space bounds excluded.
  std::vector<LinIneq> PathConstraints(int node_id);

  /// Node ids are assigned monotonically; leaves created after a call to
  /// NextNodeId() have ids >= the returned value.
  int NextNodeId() const { return static_cast<int>(nodes_.size()); }

  int64_t NumNodes() const { return static_cast<int64_t>(nodes_.size()); }

  /// Approximate memory footprint (Fig 12(b)).
  int64_t SizeBytes() const;

  /// Ids of leaves created by splits during the most recent
  /// InsertHyperplane call (consumed by per-split look-ahead), in the
  /// order the serial descent would have created them.
  const std::vector<int>& last_new_leaves() const { return last_new_leaves_; }

 private:
  struct Node {
    int32_t parent = -1;
    int32_t left = -1;   // child inside h-
    int32_t right = -1;  // child inside h+
    HalfspaceRef edge;   // label of the edge from the parent (root: invalid)
    std::vector<HalfspaceRef> cover;
    int16_t cover_pos = 0;  // positive halfspaces in `cover`
    bool eliminated = false;
    bool reported = false;
    bool has_witness = false;
    Vec witness;
    /// Radius of a ball around `witness` inscribed in the node's cell
    /// (0 = unknown). Source: the side-test LP that produced the witness,
    /// or the spherical cap of the parent ball on a ball-filter split.
    /// Backs the zero-LP side-test pre-filter: a hyperplane that cuts the
    /// ball proves case III outright.
    double ball_radius = 0.0;

    bool leaf() const { return left < 0 && right < 0; }
    bool dead() const { return eliminated || reported; }
  };

  /// Descent-scoped constraint state: the warm-started LP context holding
  /// the edge-label inequalities root..current (plus cover-set rows in the
  /// lemma2 ablation) as pushed constraints, and the multiset of records
  /// contributing a negative halfspace to the current node's full
  /// halfspace set. One instance per concurrent descent; constraints are
  /// pushed/popped in lockstep with the recursion instead of being copied
  /// into a fresh vector per side test.
  struct DescentState {
    CellLpContext lp;
    /// Record id -> multiplicity in the multiset; grows on demand to the
    /// largest id pushed. Every count is back to 0 once a descent unwinds.
    std::vector<int> neg_on_path;
    /// Ids pushed into neg_on_path, in push order; each recursion scope
    /// pops back to the mark it started from.
    std::vector<RecordId> neg_pushed;

    bool NegOnPath(RecordId rid) const {
      return static_cast<size_t>(rid) < neg_on_path.size() &&
             neg_on_path[rid] > 0;
    }
    void PushNeg(RecordId rid) {
      if (static_cast<size_t>(rid) >= neg_on_path.size()) {
        neg_on_path.resize(static_cast<size_t>(rid) + 1, 0);
      }
      ++neg_on_path[rid];
      neg_pushed.push_back(rid);
    }
    void PopNegTo(size_t mark) {
      while (neg_pushed.size() > mark) {
        --neg_on_path[neg_pushed.back()];
        neg_pushed.pop_back();
      }
    }

    /// Seeds a forked task's state: full solver state minus the pop
    /// snapshots of seed frames the task will never unwind. The counts
    /// are rebuilt from the seed's push log, which holds exactly the
    /// multiset, so the copy costs the path length rather than the id
    /// range; the task never pops below the replayed entries.
    void CopyForFork(const DescentState& o) {
      lp.AssignForFork(o.lp);
      for (RecordId rid : o.neg_pushed) PushNeg(rid);
    }
  };

  /// Nodes created by one task, spliced into `nodes_` during reduction.
  /// Within the task they are addressed by encoded ids (see EncodeLocal).
  struct TaskArena {
    std::vector<Node> nodes;
  };

  /// One forked subtree descent. `state` snapshots the seed descent at the
  /// moment of emission (including the subtree root's edge/cover pushes).
  struct InsertTask {
    int nid = -1;       // subtree root (pre-existing node id)
    int pos_above = 0;  // positives strictly above the subtree root
    DescentState state;
    TaskArena arena;
    KsprStats stats;
    std::vector<int> new_leaves;  // encoded arena ids, task-DFS order
    size_t splice_pos = 0;  // seed new-leaf count when the task was emitted
  };

  /// Seed-descent bookkeeping for one parallel insertion.
  struct ForkPlan {
    /// Live leaves under each existing node; borrows cell_count_scratch_,
    /// which is only rewritten by the next insertion's count pass (after
    /// this plan is done).
    const std::vector<int>* subtree_cells = nullptr;
    int min_cells = 1;
    int chunk = 1;  // target cells per task
    std::vector<InsertTask> tasks;
    std::vector<int> deferred_kills;  // ancestors of forks, bottom-up
  };

  /// Everything one descent needs. Serial inserts use the members
  /// (seed_state_/stats_/last_new_leaves_) with arena/plan null; tasks use
  /// their own copies.
  struct InsertCtx {
    DescentState* ds = nullptr;
    KsprStats* stats = nullptr;
    std::vector<int>* new_leaves = nullptr;
    TaskArena* arena = nullptr;  // null: allocate directly in nodes_
    ForkPlan* plan = nullptr;    // non-null only during the seed descent
  };

  // Arena ids are encoded as negatives distinct from the -1 "no node"
  // sentinel; pre-existing nodes keep their non-negative ids everywhere.
  static int EncodeLocal(int index) { return -2 - index; }
  static int DecodeLocal(int id) { return -2 - id; }

  Node& NodeAt(int id, TaskArena* arena) {
    return id >= 0 ? nodes_[id] : arena->nodes[DecodeLocal(id)];
  }

  /// Appends a node to the arena (encoded id) or to nodes_ (global id).
  int AllocNode(Node&& node, InsertCtx* ctx);

  /// True when this insertion can take the Sec 5 dominance shortcut: it
  /// is enabled and `rid` has processed dominators to look for.
  bool UsesDominanceShortcut(const std::vector<RecordId>* dominators) const {
    return options_->use_dominance_shortcut && dominators != nullptr &&
           !dominators->empty();
  }

  /// Returns true when a fork was emitted somewhere in this subtree (the
  /// caller must then defer its both-children-dead check to the reduction).
  bool InsertRec(int nid, RecordId rid, const RecordHyperplane& h,
                 int pos_above, const std::vector<RecordId>* dominators,
                 InsertCtx* ctx);

  /// Feasibility of (path constraints) ∩ (side of h) using the Lemma-2
  /// constraint set (or the full set when the ablation disables it).
  FeasibilityResult TestSide(const RecordHyperplane& h, bool positive_side,
                             InsertCtx* ctx);

  /// Fills plan->subtree_cells with per-node live-leaf counts; returns the
  /// total (the root's count).
  int CountLiveCells(std::vector<int>* counts);

  /// Runs the emitted tasks on the executor and performs the deterministic
  /// reduction (arena splice, counter merge, deferred kills, new-leaf
  /// ordering).
  void RunTasksAndReduce(ForkPlan* plan, Executor* executor, RecordId rid,
                         const RecordHyperplane& h,
                         const std::vector<RecordId>* dominators);

  void Kill(int nid, TaskArena* arena = nullptr);
  /// Propagates death upward while both children of the parent are dead.
  void PropagateDeath(int nid);

  HyperplaneStore* store_;
  int k_tree_;
  const KsprOptions* options_;
  KsprStats* stats_;
  int base_positives_ = 0;

  std::deque<Node> nodes_;

  // Scratch for the serial / seed descent (kept across insertions to
  // avoid reallocation).
  DescentState seed_state_;
  std::vector<int> cell_count_scratch_;
  std::vector<int> last_new_leaves_;
};

}  // namespace kspr

#endif  // KSPR_CORE_CELL_TREE_H_
