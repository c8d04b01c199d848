#include "core/cell_tree.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/types.h"

namespace kspr {

CellTree::CellTree(HyperplaneStore* store, int k_tree,
                   const KsprOptions* options, KsprStats* stats)
    : store_(store), k_tree_(k_tree), options_(options), stats_(stats) {
  Node root;
  nodes_.push_back(root);
  stats_->cell_tree_nodes = 1;
  if (base_rank() > k_tree_) nodes_[0].eliminated = true;  // k <= 0
}

void CellTree::InsertHyperplane(RecordId rid,
                                const std::vector<RecordId>* dominators,
                                const TraversalContext* parallel) {
  last_new_leaves_.clear();
  if (RootDead()) return;
  const RecordHyperplane& h = store_->Get(rid);
  switch (h.kind) {
    case RecordHyperplane::Kind::kAlwaysNegative:
      return;  // never outscores the focal record: no cell is affected
    case RecordHyperplane::Kind::kAlwaysPositive:
      // Outscores the focal record everywhere (a dominator that survived
      // preprocessing): every cell's rank grows by one.
      ++base_positives_;
      if (base_rank() > k_tree_) Kill(0);
      return;
    case RecordHyperplane::Kind::kRegular:
      break;
  }
  assert(seed_state_.neg_pushed.empty() && seed_state_.lp.depth() == 0);
  assert(std::all_of(seed_state_.neg_on_path.begin(),
                     seed_state_.neg_on_path.end(),
                     [](int count) { return count == 0; }));
  // Cheap when the context is already bound to this space: pops restored
  // the base tableau bitwise, so only the first insertion pays a build.
  seed_state_.lp.Reset(store_->space(), store_->pref_dim());

  InsertCtx ctx;
  ctx.ds = &seed_state_;
  ctx.stats = stats_;
  ctx.new_leaves = &last_new_leaves_;

  // Parallel eligibility: an executor with real concurrency and a tree
  // large enough that splitting it into >= 2 tasks can pay off. The fork
  // decisions never change the outcome (a task runs the identical
  // recursion on identical state), only where the work executes.
  ForkPlan plan;
  Executor* executor = parallel != nullptr ? parallel->executor : nullptr;
  if (executor != nullptr && executor->concurrency() > 1) {
    const int min_cells =
        parallel->min_cells_per_task > 1 ? parallel->min_cells_per_task : 1;
    const int total = CountLiveCells(&cell_count_scratch_);
    if (total >= 2 * min_cells) {
      plan.subtree_cells = &cell_count_scratch_;
      plan.min_cells = min_cells;
      const int target_tasks = 4 * executor->concurrency();
      plan.chunk = (total + target_tasks - 1) / target_tasks;
      if (plan.chunk < min_cells) plan.chunk = min_cells;
      ctx.plan = &plan;
    }
  }

  InsertRec(0, rid, h, 0, dominators, &ctx);

  if (!plan.tasks.empty()) {
    RunTasksAndReduce(&plan, executor, rid, h, dominators);
  }
}

FeasibilityResult CellTree::TestSide(const RecordHyperplane& h,
                                     bool positive_side, InsertCtx* ctx) {
  // The path (and, in the lemma2 ablation, cover) constraints are already
  // pushed into the descent's warm LP context; the side test is
  // "parent-optimal tableau + one extra row" with no per-call copy.
  const int dim = store_->pref_dim();
  LinIneq side;
  if (positive_side) {
    side.a = h.a * -1.0;
    side.b = -h.b;
  } else {
    side.a = h.a;
    side.b = h.b;
  }
  CellLpContext& lp = ctx->ds->lp;
  ctx->stats->constraints_full +=
      static_cast<int64_t>(lp.depth()) + 1 + dim + 1;
  return lp.TestWithRow(side, ctx->stats);
}

int CellTree::AllocNode(Node&& node, InsertCtx* ctx) {
  if (ctx->arena != nullptr) {
    ctx->arena->nodes.push_back(std::move(node));
    return EncodeLocal(static_cast<int>(ctx->arena->nodes.size()) - 1);
  }
  nodes_.push_back(std::move(node));
  return static_cast<int>(nodes_.size()) - 1;
}

int CellTree::CountLiveCells(std::vector<int>* counts) {
  counts->assign(nodes_.size(), 0);
  // Depth is bounded by the number of inserted planes, exactly like the
  // insertion descent itself; only the live spine is visited.
  auto dfs = [&](auto&& self, int nid) -> int {
    const Node& n = nodes_[nid];
    if (n.dead()) return 0;
    const int cells =
        n.leaf() ? 1 : self(self, n.left) + self(self, n.right);
    (*counts)[nid] = cells;
    return cells;
  };
  return dfs(dfs, 0);
}

bool CellTree::InsertRec(int nid, RecordId rid, const RecordHyperplane& h,
                         int pos_above,
                         const std::vector<RecordId>* dominators,
                         InsertCtx* ctx) {
  // `nid` always names a pre-existing node: leaves split off during this
  // insertion are never descended into again, so arena nodes are only ever
  // touched through the split branch below.
  Node& n = nodes_[nid];
  if (n.dead()) return false;
  if (!n.leaf() && NodeAt(n.left, ctx->arena).dead() &&
      NodeAt(n.right, ctx->arena).dead()) {
    Kill(nid, ctx->arena);
    return false;
  }

  const int pos_here = pos_above + (n.edge.rid != kInvalidRecord &&
                                            n.edge.positive
                                        ? 1
                                        : 0) +
                       n.cover_pos;
  if (base_rank() + pos_here > k_tree_) {
    Kill(nid, ctx->arena);
    return false;
  }

  // Sec 5 shortcut: if a processed dominator of rid contributes a negative
  // halfspace to this node's full halfspace set, h- covers the node.
  const bool shortcut = UsesDominanceShortcut(dominators);
  if (shortcut) {
    for (RecordId dom : *dominators) {
      if (ctx->ds->NegOnPath(dom)) {
        ++ctx->stats->dominance_shortcuts;
        n.cover.push_back({rid, false});
        return false;
      }
    }
  }

  // Witness shortcut (Sec 4.3.2) plus the inscribed-ball pre-filter: the
  // cached interior point decides its own side without an LP, and when the
  // cached ball is CUT by h (the witness-to-hyperplane distance stays
  // below the ball radius by a safety margin) BOTH sides are provably
  // nonempty — case III is decided with zero LPs, and a split seeds the
  // children with the two spherical caps of the parent ball.
  int witness_side = 0;    // +1: witness in h+, -1: witness in h-
  bool ball_cut = false;
  double margin = 0.0;     // signed distance h.Eval(witness); ||h.a|| = 1
  if (options_->use_witness_cache && n.has_witness) {
    margin = h.Eval(n.witness);
    if (margin > tol::kWitness) {
      witness_side = 1;
    } else if (margin < -tol::kWitness) {
      witness_side = -1;
    }
    if (witness_side != 0) ++ctx->stats->witness_hits;
    ball_cut = options_->use_ball_filter && n.ball_radius > 0.0 &&
               n.ball_radius - std::abs(margin) > tol::kBallCut;
  }

  bool neg_nonempty;
  bool pos_nonempty;
  Vec neg_witness;
  Vec pos_witness;
  double neg_radius = 0.0;
  double pos_radius = 0.0;
  bool have_neg_witness = false;
  bool have_pos_witness = false;

  if (ball_cut) {
    // The witness shortcut would have decided at most one side; the ball
    // saves the LPs for the remaining one or two.
    ctx->stats->lp_skipped_by_ball += witness_side != 0 ? 1 : 2;
    neg_nonempty = true;
    pos_nonempty = true;
    if (n.leaf()) {
      // Cap balls of B(witness, r) on either side of h: centre shifted
      // along the unit normal, radius (r -+ margin) / 2 — both strictly
      // positive because the cut margin exceeded tol::kBallCut.
      const double r = n.ball_radius;
      neg_witness = n.witness - h.a * ((margin + r) * 0.5);
      neg_radius = (r - margin) * 0.5;
      have_neg_witness = true;
      pos_witness = n.witness + h.a * ((r - margin) * 0.5);
      pos_radius = (r + margin) * 0.5;
      have_pos_witness = true;
    }
  } else if (witness_side == -1) {
    neg_nonempty = true;
    neg_witness = n.witness;
    neg_radius = std::min(n.ball_radius, -margin);
    have_neg_witness = true;
  } else {
    FeasibilityResult f = TestSide(h, /*positive_side=*/false, ctx);
    neg_nonempty = f.feasible;
    if (f.feasible) {
      neg_witness = f.witness;
      neg_radius = f.radius;
      have_neg_witness = true;
      if (!n.has_witness) {
        n.has_witness = true;
        n.witness = f.witness;
        n.ball_radius = f.radius;
      }
    }
  }

  if (!neg_nonempty) {
    // Case I: the node lies entirely inside h+.
    n.cover.push_back({rid, true});
    ++n.cover_pos;
    if (base_rank() + pos_here + 1 > k_tree_) Kill(nid, ctx->arena);
    return false;
  }

  if (ball_cut) {
    // pos_nonempty already true; nothing to test.
  } else if (witness_side == 1) {
    pos_nonempty = true;
    pos_witness = n.witness;
    pos_radius = std::min(n.ball_radius, margin);
    have_pos_witness = true;
  } else {
    FeasibilityResult f = TestSide(h, /*positive_side=*/true, ctx);
    pos_nonempty = f.feasible;
    if (f.feasible) {
      pos_witness = f.witness;
      pos_radius = f.radius;
      have_pos_witness = true;
      if (!n.has_witness) {
        n.has_witness = true;
        n.witness = f.witness;
        n.ball_radius = f.radius;
      }
    }
  }

  if (!pos_nonempty) {
    // Case II: the node lies entirely inside h-.
    n.cover.push_back({rid, false});
    return false;
  }

  // Case III: h cuts through the node.
  if (n.leaf()) {
    Node left;
    left.parent = nid;
    left.edge = {rid, false};
    if (have_neg_witness) {
      left.has_witness = true;
      left.witness = neg_witness;
      left.ball_radius = neg_radius;
    }
    Node right;
    right.parent = nid;
    right.edge = {rid, true};
    if (have_pos_witness) {
      right.has_witness = true;
      right.witness = pos_witness;
      right.ball_radius = pos_radius;
    }
    const int left_id = AllocNode(std::move(left), ctx);
    const int right_id = AllocNode(std::move(right), ctx);
    ctx->stats->cell_tree_nodes += 2;
    // Re-fetch: the deque reference stays valid, but keep the intent
    // explicit (and arenas DO reallocate).
    Node& parent = nodes_[nid];
    parent.left = left_id;
    parent.right = right_id;
    ctx->new_leaves->push_back(left_id);
    ctx->new_leaves->push_back(right_id);
    // The h+ child may already exceed k.
    if (base_rank() + pos_here + 1 > k_tree_) Kill(right_id, ctx->arena);
    return false;
  }

  // Internal node: descend into both children, maintaining the path scope.
  // The child ids are cached up front: `n` must not be dereferenced after
  // a recursion that may append nodes.
  const int child_ids[2] = {n.left, n.right};
  bool forked = false;
  for (int child_id : child_ids) {
    Node& child = nodes_[child_id];
    if (child.dead()) continue;
    DescentState& ds = *ctx->ds;
    ds.lp.PushConstraint(store_->AsStrictIneq(child.edge));
    int pushed = 1;
    // Mark what this scope pushes so the unwind pops exactly that —
    // without re-reading the child's cover, which a descent into the
    // child (here or later in its task) may have grown via case I/II.
    // Only the shortcut reads the counts, so without it none are kept.
    const size_t neg_mark = ds.neg_pushed.size();
    if (shortcut && !child.edge.positive) ds.PushNeg(child.edge.rid);
    for (const HalfspaceRef& ref : child.cover) {
      if (!options_->use_lemma2) {
        ds.lp.PushConstraint(store_->AsStrictIneq(ref));
        ++pushed;
      }
      if (shortcut && !ref.positive) ds.PushNeg(ref.rid);
    }

    const int cells =
        ctx->plan != nullptr ? (*ctx->plan->subtree_cells)[child_id] : 0;
    if (ctx->plan != nullptr && cells >= ctx->plan->min_cells &&
        cells <= ctx->plan->chunk) {
      // Fork: snapshot the descent state — including the warm LP solver,
      // so the worker's side tests are bitwise those of a serial descent;
      // a worker continues the identical recursion from this child later.
      InsertTask task;
      task.nid = child_id;
      task.pos_above = pos_here;
      task.state.CopyForFork(ds);
      task.splice_pos = ctx->new_leaves->size();
      ctx->plan->tasks.push_back(std::move(task));
      forked = true;
    } else if (ctx->plan != nullptr && cells < ctx->plan->min_cells) {
      // Too small to be worth a task: finish this subtree inline.
      ForkPlan* saved = ctx->plan;
      ctx->plan = nullptr;
      InsertRec(child_id, rid, h, pos_here, dominators, ctx);
      ctx->plan = saved;
    } else if (InsertRec(child_id, rid, h, pos_here, dominators, ctx)) {
      forked = true;
    }

    // Unwind exactly what this scope pushed.
    while (pushed-- > 0) ds.lp.PopConstraint();
    ds.PopNegTo(neg_mark);
  }

  if (forked) {
    // A child's fate is decided only after its task ran; the reduction
    // replays this check bottom-up.
    ctx->plan->deferred_kills.push_back(nid);
  } else {
    const Node& after = nodes_[nid];
    if (NodeAt(after.left, ctx->arena).dead() &&
        NodeAt(after.right, ctx->arena).dead()) {
      Kill(nid, ctx->arena);
    }
  }
  return forked;
}

void CellTree::RunTasksAndReduce(ForkPlan* plan, Executor* executor,
                                 RecordId rid, const RecordHyperplane& h,
                                 const std::vector<RecordId>* dominators) {
  // Workers claim tasks from the executor's shared cursor; each task is a
  // pure function of its snapshot, so execution order is irrelevant.
  executor->ParallelFor(
      static_cast<int>(plan->tasks.size()), [&](int t) {
        InsertTask& task = plan->tasks[t];
        InsertCtx ctx;
        ctx.ds = &task.state;
        ctx.stats = &task.stats;
        ctx.new_leaves = &task.new_leaves;
        ctx.arena = &task.arena;
        InsertRec(task.nid, rid, h, task.pos_above, dominators, &ctx);
      });

  // Deterministic reduction. Arenas are spliced in task-emission (= DFS)
  // order, so node ids and the new-leaf order match what a single serial
  // descent interleaving seed and task splits would produce; counters are
  // integer sums, hence order-free.
  std::vector<int> merged;
  merged.reserve(last_new_leaves_.size());
  size_t seed_pos = 0;
  for (InsertTask& task : plan->tasks) {
    for (; seed_pos < task.splice_pos; ++seed_pos) {
      merged.push_back(last_new_leaves_[seed_pos]);
    }
    const int base = static_cast<int>(nodes_.size());
    const size_t count = task.arena.nodes.size();
    for (Node& node : task.arena.nodes) {
      nodes_.push_back(std::move(node));
    }
    // Arena nodes are always split-off leaves whose parent pre-existed;
    // rewrite the parents' encoded child links to the global ids.
    for (size_t i = 0; i < count; ++i) {
      const Node& node = nodes_[base + static_cast<int>(i)];
      assert(node.parent >= 0);
      Node& split = nodes_[node.parent];
      if (split.left <= EncodeLocal(0)) {
        split.left = base + DecodeLocal(split.left);
      }
      if (split.right <= EncodeLocal(0)) {
        split.right = base + DecodeLocal(split.right);
      }
    }
    for (int leaf : task.new_leaves) {
      merged.push_back(base + DecodeLocal(leaf));
    }
    stats_->Add(task.stats);
  }
  for (; seed_pos < last_new_leaves_.size(); ++seed_pos) {
    merged.push_back(last_new_leaves_[seed_pos]);
  }
  last_new_leaves_ = std::move(merged);

  // Replay the deferred both-children-dead checks; the list is recorded on
  // recursion unwind, so children always precede their ancestors.
  for (int nid : plan->deferred_kills) {
    const Node& n = nodes_[nid];
    if (!n.dead() && !n.leaf() && nodes_[n.left].dead() &&
        nodes_[n.right].dead()) {
      Kill(nid);
    }
  }
}

void CellTree::Kill(int nid, TaskArena* arena) {
  Node& n = NodeAt(nid, arena);
  if (n.dead()) return;
  n.eliminated = true;
}

void CellTree::PropagateDeath(int nid) {
  int cur = nodes_[nid].parent;
  while (cur >= 0) {
    Node& n = nodes_[cur];
    if (n.dead()) break;
    if (n.leaf()) break;
    if (!nodes_[n.left].dead() || !nodes_[n.right].dead()) break;
    n.eliminated = true;
    cur = n.parent;
  }
}

void CellTree::MarkReported(int node_id) {
  Node& n = nodes_[node_id];
  assert(n.leaf() && !n.dead());
  n.reported = true;
  PropagateDeath(node_id);
}

void CellTree::MarkEliminated(int node_id) {
  Kill(node_id);
  PropagateDeath(node_id);
}

void CellTree::CollectLiveLeaves(std::vector<LeafInfo>* out, int min_node_id,
                                 bool prune) {
  // Iterative DFS maintaining path/neg/pos record stacks.
  std::vector<HalfspaceRef> path;
  std::vector<RecordId> neg_records;
  std::vector<RecordId> pos_records;

  // Recursive lambda over the tree; depth is bounded by inserted planes.
  auto dfs = [&](auto&& self, int nid, int pos_above) -> void {
    Node& n = nodes_[nid];
    if (n.dead()) return;
    int pos_here = pos_above;
    const size_t path_mark = path.size();
    const size_t neg_mark = neg_records.size();
    const size_t pos_mark = pos_records.size();
    if (n.edge.rid != kInvalidRecord) {
      path.push_back(n.edge);
      if (n.edge.positive) {
        ++pos_here;
        pos_records.push_back(n.edge.rid);
      } else {
        neg_records.push_back(n.edge.rid);
      }
    }
    for (const HalfspaceRef& ref : n.cover) {
      if (ref.positive) {
        ++pos_here;
        pos_records.push_back(ref.rid);
      } else {
        neg_records.push_back(ref.rid);
      }
    }
    const int rank = base_rank() + pos_here;
    if (rank > k_tree_) {
      if (prune) {
        Kill(nid);
        PropagateDeath(nid);
      }
    } else if (n.leaf()) {
      if (nid >= min_node_id) {
        LeafInfo info;
        info.node_id = nid;
        info.rank = rank;
        info.path.assign(path.begin(), path.end());
        info.neg_records = neg_records;
        info.pos_records = pos_records;
        info.has_witness = n.has_witness;
        info.witness = n.witness;
        out->push_back(std::move(info));
      }
    } else {
      self(self, n.left, pos_here);
      self(self, n.right, pos_here);
      if (prune && nodes_[n.left].dead() && nodes_[n.right].dead()) {
        Kill(nid);
      }
    }
    path.resize(path_mark);
    neg_records.resize(neg_mark);
    pos_records.resize(pos_mark);
  };
  dfs(dfs, 0, 0);
}

std::vector<LinIneq> CellTree::PathConstraints(int node_id) {
  std::vector<LinIneq> cons;
  int cur = node_id;
  while (cur >= 0) {
    const Node& n = nodes_[cur];
    if (n.edge.rid != kInvalidRecord) {
      cons.push_back(store_->AsStrictIneq(n.edge));
    }
    cur = n.parent;
  }
  return cons;
}

int64_t CellTree::SizeBytes() const {
  int64_t bytes = static_cast<int64_t>(nodes_.size()) * sizeof(Node);
  for (const Node& n : nodes_) {
    bytes += static_cast<int64_t>(n.cover.capacity()) * sizeof(HalfspaceRef);
  }
  return bytes;
}

}  // namespace kspr
