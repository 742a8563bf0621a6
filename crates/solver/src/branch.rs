//! Best-first branch & bound for mixed-integer programs.
//!
//! Solves the LP relaxation on the revised simplex ([`crate::revised`]);
//! while the relaxed optimum assigns a fractional value to an integer
//! variable, branches on the most fractional one with `x ≤ ⌊v⌋` /
//! `x ≥ ⌈v⌉` bound splits. Nodes are explored best-bound-first, so the
//! first incumbent found tends to be good and pruning is effective. The
//! search is anytime: one that finishes within its node budget returns
//! the true optimum (or `Infeasible`); one cut short returns its best
//! incumbent with the open gap ([`Solution::budget_gap`]).
//!
//! Child nodes **warm-start** from their parent's optimal basis: each
//! node keeps its relaxation's solved [`RevisedState`] (held in an
//! `Arc` — branching only changes one variable's bounds, never the
//! constraint matrix), and the child repairs primal feasibility with a
//! dual-simplex phase instead of re-running two full phases from the
//! all-slack basis. A child's state also shares its parent's LU factors
//! and eta entries instead of copying them. The rounding dive chains
//! warm starts the same way. A node's two children (and a dive level's
//! two candidate fixings) re-solve through one `revised::Siblings`,
//! which computes the parent's reduced costs and the branching row's
//! pricing row once for both and applies only the branched bound; their
//! pivots and plans are bit-identical to two independent warm starts
//! (`check_sibling_resolves` checks it). Before either replays a
//! fractional root, the root's basis is refactorized once
//! (`refresh_root`), so no solve below it replays the root solve's eta
//! file. Warm and cold solves reach the same optima (pivot order may
//! differ on degenerate ties, so alternate optimal *vertices* are
//! possible); [`solve_mip_bounded_with`] exposes a cold mode for
//! differential tests and pivot-count comparisons.
//!
//! Every root is a cold solve. The co-scheduler builds a new model each
//! epoch: arrivals change its app classes, and its load-balance rows
//! carry coefficients that follow the capacity forecast, so no epoch
//! re-solves the previous epoch's constraint matrix.
//!
//! # Deterministic parallel search
//!
//! The search expands node *batches* of up to 16 nodes in parallel
//! through `vb-par`. Parallelism is deterministic by construction:
//! batch membership is chosen sequentially, per-node expansion is a
//! pure function of the node, results are applied in batch index order,
//! and heap ties break on a monotone insertion counter — so the
//! incumbent sequence (and the returned schedule) is bit-identical at
//! any `VB_THREADS`.
//!
//! # The co-scheduler's entry point
//!
//! [`solve_mip_kernel`] is what the co-scheduler runs every epoch: the
//! model is first shrunk by [`crate::presolve`], and the solution is
//! postsolved back to the original variable space. [`solve_mip`],
//! [`solve_mip_bounded`] and [`solve_mip_bounded_with`] run the same
//! search on the model as given.

use crate::model::{Model, Sense, Solution, SolveError, VarId};
use crate::presolve;
use crate::revised::{self, RevisedState};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

/// Integrality tolerance: values this close to an integer count as
/// integral.
const INT_EPS: f64 = 1e-6;

/// Default node budget: effectively "solve to optimality" for the model
/// sizes in this workspace.
const MAX_NODES: usize = 200_000;

/// Nodes expanded per parallel batch. Fixed — deliberately *not* a
/// function of the thread count, so the node schedule (which nodes are
/// popped before which incumbents exist) is identical at any
/// `VB_THREADS` and parallelism changes wall-clock only.
const PAR_BATCH: usize = 16;

/// A solver for children of one parent state, each changing one
/// variable's bounds: called with a child's full override list.
type ChildSolve<'s> =
    dyn FnMut(&[(VarId, f64, f64)]) -> Result<(Solution, RevisedState), SolveError> + 's;

/// Run `f` with a solver for the children of `parent` that each change
/// `var`'s bounds. Warm starts go through one [`revised::Siblings`],
/// which shares the parent's preparation between them; with
/// `warm_start` off every child solves cold.
fn with_children<T>(
    model: &Model,
    parent: &RevisedState,
    var: VarId,
    warm_start: bool,
    f: impl FnOnce(&mut ChildSolve<'_>) -> T,
) -> T {
    if warm_start {
        revised::with_siblings(model, parent, |sib| {
            f(&mut |overrides| sib.solve(overrides, var))
        })
    } else {
        f(&mut |overrides| revised::solve_lp_state(model, overrides, None))
    }
}

/// Solve a model with integer variables to optimality.
pub fn solve_mip(model: &Model) -> Result<Solution, SolveError> {
    solve_mip_bounded(model, MAX_NODES)
}

/// Solve with a node budget. When the budget runs out, the best
/// incumbent found so far is returned (an anytime solve, as commercial
/// solvers do under a time limit); only if *no* incumbent exists does it
/// fail with [`SolveError::IterationLimit`]. A rounding dive at the root
/// produces an incumbent almost immediately, so bounded solves rarely
/// fail outright.
pub fn solve_mip_bounded(model: &Model, max_nodes: usize) -> Result<Solution, SolveError> {
    solve_mip_bounded_with(model, max_nodes, true)
}

/// [`solve_mip_bounded`] with explicit control over warm starting.
///
/// `warm_start: false` re-solves every node's relaxation from the
/// all-slack basis — the pre-warm-start behaviour, kept for differential
/// testing and for measuring the pivot savings via the `solver.pivots`
/// telemetry counter.
pub fn solve_mip_bounded_with(
    model: &Model,
    max_nodes: usize,
    warm_start: bool,
) -> Result<Solution, SolveError> {
    let _span = vb_telemetry::span!("solver.mip_solve");
    vb_telemetry::counter!("solver.mip_solves").inc();
    // Root relaxation is always a cold solve.
    let root = revised::solve_lp_state(model, &[], None)?;
    solve_mip_from_root(model, max_nodes, warm_start, root)
}

/// The co-scheduler's MIP solve: presolve the model, search the reduced
/// model with warm starts, and postsolve back to the original variable
/// space. The incumbent objective is always recomputed from the
/// *original* model's cost vector, so for the same integer assignment
/// it is bit-identical to [`solve_mip_bounded`] on the unreduced model.
pub fn solve_mip_kernel(model: &Model, max_nodes: usize) -> Result<Solution, SolveError> {
    let _span = vb_telemetry::span!("solver.mip_solve");
    vb_telemetry::counter!("solver.mip_solves").inc();
    model.validate()?;
    let pre = presolve::presolve_mip(model)?;
    let target = pre.reduced();
    let root = revised::solve_lp_state(target, &[], None)?;
    let sol = solve_mip_from_root(target, max_nodes, true, root)?;
    Ok(pre.postsolve(model, &sol))
}

/// The branch & bound search proper, starting from an already-solved
/// root relaxation.
///
/// The node budget counts *popped* nodes: the search pops and expands
/// at most `max_nodes` nodes, and `max_nodes == 0` does no work at all
/// (not even the rounding dive). When the budget runs out with nodes
/// still queued, the best incumbent is returned anytime-style, or
/// [`SolveError::IterationLimit`] if none exists yet. If a queued
/// node's bound still beats that incumbent, the solve is a *budget
/// stop*: the returned [`Solution::budget_gap`] holds the relative gap,
/// and the `solver.mip_budget_stops` counter and `solver.mip_gap`
/// histogram record it.
///
/// # Deterministic parallelism
///
/// Up to [`PAR_BATCH`] nodes are expanded per round through
/// `vb_par::par_map`. Determinism at any thread count follows from four
/// properties:
///
/// 1. batch *membership* is decided sequentially (pops, budget, and
///    prune checks happen before any parallel work, against the same
///    incumbent regardless of thread count);
/// 2. expanding a node ([`expand`]) is a pure function of that node —
///    it reads no search-global state;
/// 3. `par_map` returns results in batch index order and they are
///    *applied* (incumbent updates, child pushes) sequentially in that
///    order;
/// 4. heap ties on equal bounds break on a monotone insertion counter
///    ([`Node::seq`]), so the pop order never depends on
///    `BinaryHeap`'s internal layout of equal keys.
fn solve_mip_from_root(
    model: &Model,
    max_nodes: usize,
    warm_start: bool,
    root: (Solution, RevisedState),
) -> Result<Solution, SolveError> {
    let int_vars: Vec<VarId> = model
        .vars
        .iter()
        .enumerate()
        .filter(|(_, v)| v.integer)
        .map(|(i, _)| VarId(i))
        .collect();

    let (root, mut root_state) = root;
    refresh_root(&mut root_state, &root, &int_vars, max_nodes, warm_start);
    let root_state = Arc::new(root_state);

    let better = |a: f64, b: f64| match model.sense {
        Sense::Minimize => a < b - 1e-9,
        Sense::Maximize => a > b + 1e-9,
    };

    let mut heap = BinaryHeap::new();
    let mut seq = 0u64;
    heap.push(Node {
        bound: root.objective,
        sense: model.sense,
        seq,
        overrides: Vec::new(),
        relaxed: root.clone(),
        state: Arc::clone(&root_state),
    });
    seq += 1;

    // Rounding dive from the root: fix the most fractional variable to
    // its nearest integer and re-solve until integral. This produces an
    // incumbent in ~|int_vars| LP solves, making bounded solves anytime
    // — skipped entirely under a zero budget, which asked for no work.
    let mut incumbent: Option<Solution> = if max_nodes > 0 {
        dive(model, &int_vars, root, &root_state, warm_start)
    } else {
        None
    };
    let mut explored = 0usize;
    let mut pruned = 0u64;
    let mut improvements = 0u64;
    let mut par_batches = 0u64;
    let mut par_nodes = 0u64;
    let budget_exhausted;

    loop {
        // Sequential batch selection under the node budget. Every
        // popped node counts against the budget, and every counted
        // node is actually processed (pruned or expanded) — the budget
        // can no longer eat a node it never looked at.
        let mut batch: Vec<Node> = Vec::new();
        while batch.len() < PAR_BATCH && explored < max_nodes {
            let Some(node) = heap.pop() else { break };
            explored += 1;
            // Bound pruning: the node's relaxation bound cannot beat
            // the incumbent.
            if let Some(inc) = &incumbent {
                if !better(node.bound, inc.objective) {
                    pruned += 1;
                    continue;
                }
            }
            batch.push(node);
        }
        if batch.is_empty() {
            budget_exhausted = explored >= max_nodes && !heap.is_empty();
            break;
        }

        // Expand the batch: the per-node LP work, fanned out when the
        // batch warrants it. `par_map` preserves index order.
        let expansions: Vec<Expansion> = if batch.len() > 1 {
            par_batches += 1;
            par_nodes += batch.len() as u64;
            vb_par::par_map(batch.len(), |i| {
                expand(model, &int_vars, &batch[i], warm_start)
            })
        } else {
            batch
                .iter()
                .map(|n| expand(model, &int_vars, n, warm_start))
                .collect()
        };

        // Apply in batch index order — the incumbent sequence is a
        // deterministic function of the node schedule alone.
        for exp in expansions {
            match exp {
                Expansion::Integral(snapped) => {
                    let accept = incumbent
                        .as_ref()
                        .is_none_or(|inc| better(snapped.objective, inc.objective));
                    if accept {
                        incumbent = Some(snapped);
                        improvements += 1;
                    }
                }
                Expansion::Children(children) => {
                    for child in children {
                        let keep = incumbent
                            .as_ref()
                            .is_none_or(|inc| better(child.relaxed.objective, inc.objective));
                        if keep {
                            heap.push(Node {
                                bound: child.relaxed.objective,
                                sense: model.sense,
                                seq,
                                overrides: child.overrides,
                                relaxed: child.relaxed,
                                state: child.state,
                            });
                            seq += 1;
                        }
                    }
                }
            }
        }
    }

    // A budget stop: the nodes ran out while the best open node's bound
    // still beats the incumbent, so the incumbent is not proven optimal.
    let gap = match (&incumbent, heap.peek()) {
        (Some(inc), Some(open)) if better(open.bound, inc.objective) => {
            Some((inc.objective - open.bound).abs() / inc.objective.abs().max(1.0))
        }
        _ => None,
    };

    vb_telemetry::counter!("solver.mip_nodes_expanded").add(explored as u64);
    vb_telemetry::counter!("solver.mip_nodes_pruned").add(pruned);
    vb_telemetry::counter!("solver.mip_incumbent_improvements").add(improvements);
    vb_telemetry::histogram!("solver.mip_nodes_per_solve").observe(explored as f64);
    if let Some(g) = gap {
        vb_telemetry::counter!("solver.mip_budget_stops").inc();
        vb_telemetry::histogram!("solver.mip_gap").observe(g);
    }
    if par_batches > 0 {
        vb_telemetry::counter!("solver.bb_parallel_batches").add(par_batches);
        vb_telemetry::counter!("solver.bb_parallel_nodes").add(par_nodes);
    }

    match incumbent {
        Some(mut inc) => {
            inc.budget_gap = gap;
            Ok(inc)
        }
        None if budget_exhausted => Err(SolveError::IterationLimit),
        None => Err(SolveError::Infeasible),
    }
}

/// Refactorize the root's optimal basis when the dive and the search
/// will warm-start from it: the root has a fractional integer variable,
/// the budget is nonzero and warm starts are on. The root's cold solve
/// leaves its whole eta file behind (on the benchmark's fleet shards
/// ~38 etas holding ~850 nonzeros, against ~230 in a fresh LU of the
/// same basis), and every FTRAN and BTRAN below the root would replay
/// it. Integral roots, zero budgets and cold searches replay nothing
/// and keep the state as solved.
fn refresh_root(
    state: &mut RevisedState,
    root: &Solution,
    int_vars: &[VarId],
    max_nodes: usize,
    warm_start: bool,
) {
    if max_nodes > 0 && warm_start && most_fractional(root, int_vars).is_some() {
        state.refresh_factors();
    }
}

/// What expanding one node produced: an integral (snapped) candidate
/// incumbent, or the surviving branch children with their solved
/// relaxations.
enum Expansion {
    Integral(Solution),
    Children(Vec<Child>),
}

/// One solved branch child, ready to become a heap [`Node`].
struct Child {
    overrides: Vec<(VarId, f64, f64)>,
    relaxed: Solution,
    state: Arc<RevisedState>,
}

/// Expand one node: branch on its most fractional integer variable and
/// solve both children's relaxations (or report the node integral). A
/// pure function of the node — no incumbent checks, no heap access —
/// so batches of nodes can expand in parallel with bit-identical
/// results in any interleaving.
fn expand(model: &Model, int_vars: &[VarId], node: &Node, warm_start: bool) -> Expansion {
    let Some((var, value)) = most_fractional(&node.relaxed, int_vars) else {
        // Integral: candidate incumbent (round off the epsilon).
        return Expansion::Integral(snap(model, &node.relaxed, int_vars));
    };
    let branches = branch_overrides(model, &node.overrides, var, value);
    let solved: Vec<_> = with_children(model, &node.state, var, warm_start, |solve| {
        branches.iter().map(|o| solve(o)).collect()
    });
    let children = branches
        .into_iter()
        .zip(solved)
        .filter_map(|(overrides, res)| {
            let (relaxed, state) = res.ok()?;
            Some(Child {
                overrides,
                relaxed,
                state: Arc::new(state),
            })
        })
        .collect();
    Expansion::Children(children)
}

/// The override lists of the down (`var ≤ ⌊value⌋`) and up
/// (`var ≥ ⌈value⌉`) children of a node with `overrides`, skipping a
/// side whose interval is empty.
fn branch_overrides(
    model: &Model,
    overrides: &[(VarId, f64, f64)],
    var: VarId,
    value: f64,
) -> Vec<Vec<(VarId, f64, f64)>> {
    let floor = value.floor();
    let (base_lb, base_ub) = effective_bounds(model, overrides, var);
    [(f64::NEG_INFINITY, floor), (floor + 1.0, f64::INFINITY)]
        .into_iter()
        .filter_map(|(lo, hi)| {
            let new_lb = base_lb.max(lo);
            let new_ub = base_ub.min(hi);
            if new_lb > new_ub + INT_EPS {
                return None;
            }
            let mut child = overrides.to_vec();
            child.retain(|&(v, _, _)| v != var);
            child.push((var, new_lb, new_ub));
            Some(child)
        })
        .collect()
}

/// Greedy rounding dive: repeatedly fix the most fractional integer
/// variable to its nearest value (trying the other direction on
/// infeasibility) until the relaxation is integral. Returns the rounded
/// solution when the dive survives to the bottom. Each fix warm-starts
/// from the previous level's basis.
fn dive(
    model: &Model,
    int_vars: &[VarId],
    mut relaxed: Solution,
    root_state: &RevisedState,
    warm_start: bool,
) -> Option<Solution> {
    let mut overrides: Vec<(VarId, f64, f64)> = Vec::new();
    let mut state = root_state.clone();
    loop {
        let Some((var, value)) = most_fractional(&relaxed, int_vars) else {
            return Some(snap(model, &relaxed, int_vars));
        };
        let (lb, ub) = (model.vars[var.0].lb, model.vars[var.0].ub);
        let nearest = value.round().clamp(lb.ceil(), ub.floor());
        let other = (if nearest > value {
            value.floor()
        } else {
            value.ceil()
        })
        .clamp(lb.ceil(), ub.floor());
        let fixed = with_children(model, &state, var, warm_start, |solve| {
            [nearest, other].into_iter().find_map(|candidate| {
                let mut trial = overrides.clone();
                trial.retain(|&(v, _, _)| v != var);
                trial.push((var, candidate, candidate));
                let (sol, st) = solve(&trial).ok()?;
                Some((trial, sol, st))
            })
        });
        (overrides, relaxed, state) = fixed?;
    }
}

/// What [`check_sibling_resolves`] compared.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiblingCheck {
    /// Nodes whose children were solved both ways.
    pub nodes: usize,
    /// Children solved both ways.
    pub children: usize,
    /// Children both ways proved infeasible.
    pub infeasible: usize,
    /// Nodes whose first child refactorized before the second solved.
    pub refactorized_first: usize,
    /// Children that took their first pricing row from a sibling.
    pub shared_rows: u64,
}

/// Differential check of the sibling re-solve. Walks `model`'s branch
/// and bound tree breadth first from its root relaxation (refreshed
/// like the search's) under engine `params`, up to
/// `max_nodes` branched nodes, without pruning. Every node's children
/// are solved twice: through one `revised::Siblings`, and through
/// independent [`revised::solve_lp_state_params`] warm starts from the
/// node with the children's full override lists. Returns what it
/// compared, or names the first child whose outcome, objective, values,
/// basis, bound sides, basic values, eta count, or pivot, eta-update or
/// refactorization count differs in any bit.
#[doc(hidden)]
pub fn check_sibling_resolves(
    model: &Model,
    max_nodes: usize,
    params: revised::Params,
) -> Result<SiblingCheck, String> {
    let int_vars: Vec<VarId> = (0..model.vars.len())
        .filter(|&j| model.vars[j].integer)
        .map(VarId)
        .collect();
    let (root, mut root_state) = revised::solve_lp_state_params(model, &[], None, params)
        .map_err(|e| format!("root relaxation: {e:?}"))?;
    if most_fractional(&root, &int_vars).is_some() {
        root_state.refresh_factors();
    }
    let bits = |sol: &Solution| -> Vec<u64> {
        std::iter::once(sol.objective.to_bits())
            .chain(sol.values().iter().map(|v| v.to_bits()))
            .collect()
    };
    let snapshot = |st: &RevisedState| {
        let (etas, basis, at_upper, xb) = st.basis_snapshot();
        let xb: Vec<u64> = xb.iter().map(|v| v.to_bits()).collect();
        (etas, basis, at_upper, xb)
    };

    let mut check = SiblingCheck::default();
    let mut queue = VecDeque::from([(Vec::new(), root, root_state)]);
    while let Some((overrides, relaxed, parent)) = queue.pop_front() {
        if check.nodes == max_nodes {
            break;
        }
        let Some((var, value)) = most_fractional(&relaxed, &int_vars) else {
            continue;
        };
        check.nodes += 1;
        let branches = branch_overrides(model, &overrides, var, value);
        let shared: Vec<_> = revised::with_siblings(model, &parent, |sib| {
            branches
                .iter()
                .map(|o| {
                    let before = revised::thread_work();
                    let res = sib.solve(o, var);
                    (res, revised::thread_work().since(before))
                })
                .collect()
        });
        let two = branches.len() == 2;
        for (k, (o, (res, work))) in branches.into_iter().zip(shared).enumerate() {
            let before = revised::thread_work();
            let alone = revised::solve_lp_state_params(model, &o, Some(&parent), params);
            let alone_work = revised::thread_work().since(before);
            let at = || format!("node {} child {k} ({:?})", check.nodes, o.last());
            check.children += 1;
            check.shared_rows += work.shared_rows;
            if k == 0 && two && work.refactorizations > 0 {
                check.refactorized_first += 1;
            }
            let counts = |w: revised::Work| (w.pivots, w.eta_updates, w.refactorizations);
            if counts(work) != counts(alone_work) {
                return Err(format!(
                    "{}: (pivots, eta updates, refactorizations) {:?} through siblings, {:?} alone",
                    at(),
                    counts(work),
                    counts(alone_work)
                ));
            }
            match (res, alone) {
                (Ok((sol, st)), Ok((sol_alone, st_alone))) => {
                    if bits(&sol) != bits(&sol_alone) {
                        return Err(format!("{}: objective or values differ", at()));
                    }
                    if snapshot(&st) != snapshot(&st_alone) {
                        return Err(format!(
                            "{}: eta count, basis, bound sides or basic values differ",
                            at()
                        ));
                    }
                    queue.push_back((o, sol, st));
                }
                (Err(e), Err(e_alone)) if e == e_alone => {
                    if e == SolveError::Infeasible {
                        check.infeasible += 1;
                    }
                }
                (res, alone) => {
                    return Err(format!(
                        "{}: {:?} through siblings, {:?} alone",
                        at(),
                        res.err(),
                        alone.err()
                    ))
                }
            }
        }
    }
    Ok(check)
}

/// Current bounds of `var` under the model plus overrides.
fn effective_bounds(model: &Model, overrides: &[(VarId, f64, f64)], var: VarId) -> (f64, f64) {
    overrides
        .iter()
        .find(|&&(v, _, _)| v == var)
        .map(|&(_, l, u)| (l, u))
        .unwrap_or((model.vars[var.0].lb, model.vars[var.0].ub))
}

/// The integer variable whose relaxed value is farthest from integral.
fn most_fractional(sol: &Solution, int_vars: &[VarId]) -> Option<(VarId, f64)> {
    let mut best: Option<(VarId, f64, f64)> = None;
    for &v in int_vars {
        let x = sol.value(v);
        let frac = (x - x.round()).abs();
        if frac > INT_EPS {
            let dist = (x - x.floor() - 0.5).abs(); // 0 = most fractional
            if best.is_none_or(|(_, _, d)| dist < d) {
                best = Some((v, x, dist));
            }
        }
    }
    best.map(|(v, x, _)| (v, x))
}

/// Round integer variables exactly onto the grid and **recompute the
/// objective from the model's cost vector** over the snapped values.
/// Keeping the relaxation objective (the pre-PR 8 behaviour) carries
/// the rounding drift into incumbent comparisons, where it can flip
/// which of two near-tied incumbents survives. Recomputing in the
/// model's own term order also makes the objective bit-identical for
/// the same assignment no matter which search path produced it.
fn snap(model: &Model, sol: &Solution, int_vars: &[VarId]) -> Solution {
    let mut values = sol.values().to_vec();
    for &v in int_vars {
        values[v.0] = values[v.0].round();
    }
    let objective: f64 = model
        .objective
        .iter()
        .map(|&(v, c)| c * values[v.0])
        .sum::<f64>()
        + model.objective_const;
    Solution::new(objective, values)
}

/// Branch & bound search node, ordered so the heap pops the best bound
/// first (largest for maximisation, smallest for minimisation), with
/// equal bounds breaking FIFO on the insertion counter `seq` — the
/// pop order is a pure function of the push sequence, never of
/// `BinaryHeap` internals. Carries the node's optimal simplex state so
/// children can warm-start from it.
struct Node {
    bound: f64,
    sense: Sense,
    /// Monotone insertion counter; unique per heap.
    seq: u64,
    overrides: Vec<(VarId, f64, f64)>,
    relaxed: Solution,
    state: Arc<RevisedState>,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound && self.seq == other.seq
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        let ord = self.bound.total_cmp(&other.bound);
        let ord = match self.sense {
            Sense::Maximize => ord,
            Sense::Minimize => ord.reverse(),
        };
        // Max-heap: the *smaller* seq must compare greater so equal
        // bounds pop first-in-first-out.
        ord.then_with(|| other.seq.cmp(&self.seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinExpr, Model, Sense};

    #[test]
    fn knapsack_is_solved_exactly() {
        // Classic 0/1 knapsack: values [60,100,120], weights [10,20,30],
        // capacity 50 -> take items 2 and 3, value 220.
        let mut m = Model::new(Sense::Maximize);
        let x: Vec<VarId> = (0..3).map(|i| m.bin_var(&format!("x{i}"))).collect();
        let e = m.expr(&[(x[0], 10.0), (x[1], 20.0), (x[2], 30.0)]);
        m.add_le(e, 50.0);
        let obj = m.expr(&[(x[0], 60.0), (x[1], 100.0), (x[2], 120.0)]);
        m.set_objective(obj);
        let s = m.solve().unwrap();
        assert!((s.objective - 220.0).abs() < 1e-6);
        assert_eq!(s.int_value(x[0]), 0);
        assert_eq!(s.int_value(x[1]), 1);
        assert_eq!(s.int_value(x[2]), 1);
    }

    #[test]
    fn integer_rounding_is_not_lp_rounding() {
        // max x + y s.t. 2x + 2y <= 3, integers -> LP gives 1.5, MIP 1.
        let mut m = Model::new(Sense::Maximize);
        let x = m.int_var("x", 0.0, 5.0);
        let y = m.int_var("y", 0.0, 5.0);
        let e = m.expr(&[(x, 2.0), (y, 2.0)]);
        m.add_le(e, 3.0);
        let obj = m.expr(&[(x, 1.0), (y, 1.0)]);
        m.set_objective(obj);
        let s = m.solve().unwrap();
        assert!((s.objective - 1.0).abs() < 1e-6, "obj {}", s.objective);
    }

    #[test]
    fn mixed_integer_and_continuous() {
        // max 2x + y, x integer <= 2.5 bound via constraint, y cont <= 1.7.
        let mut m = Model::new(Sense::Maximize);
        let x = m.int_var("x", 0.0, 10.0);
        let y = m.var("y", 0.0, 10.0);
        let e1 = m.expr(&[(x, 1.0)]);
        m.add_le(e1, 2.5);
        let e2 = m.expr(&[(y, 1.0)]);
        m.add_le(e2, 1.7);
        let obj = m.expr(&[(x, 2.0), (y, 1.0)]);
        m.set_objective(obj);
        let s = m.solve().unwrap();
        assert_eq!(s.int_value(x), 2);
        assert!((s.value(y) - 1.7).abs() < 1e-6);
        assert!((s.objective - 5.7).abs() < 1e-6);
    }

    #[test]
    fn infeasible_mip_is_reported() {
        // x + y = 1 with x, y binary and x + y >= 3.
        let mut m = Model::new(Sense::Minimize);
        let x = m.bin_var("x");
        let y = m.bin_var("y");
        let e = m.expr(&[(x, 1.0), (y, 1.0)]);
        m.add_ge(e, 3.0);
        let obj = m.expr(&[(x, 1.0)]);
        m.set_objective(obj);
        assert_eq!(m.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn minimization_mip() {
        // min 3x + 4y s.t. x + 2y >= 5, integers >= 0.
        // Candidates: (5,0)=15, (3,1)=13, (1,2)=11, (0,3)=12 -> 11.
        let mut m = Model::new(Sense::Minimize);
        let x = m.int_var("x", 0.0, 100.0);
        let y = m.int_var("y", 0.0, 100.0);
        let e = m.expr(&[(x, 1.0), (y, 2.0)]);
        m.add_ge(e, 5.0);
        let obj = m.expr(&[(x, 3.0), (y, 4.0)]);
        m.set_objective(obj);
        let s = m.solve().unwrap();
        assert!((s.objective - 11.0).abs() < 1e-6, "obj {}", s.objective);
        assert_eq!((s.int_value(x), s.int_value(y)), (1, 2));
    }

    #[test]
    fn equality_constrained_assignment() {
        // Assign 2 apps to 2 sites, each app exactly once, site 0 holds
        // only one app. Costs: a0s0=1, a0s1=5, a1s0=2, a1s1=4.
        // Best: a0->s0 (1), a1->s1 (4) = 5.
        let mut m = Model::new(Sense::Minimize);
        let a0s0 = m.bin_var("a0s0");
        let a0s1 = m.bin_var("a0s1");
        let a1s0 = m.bin_var("a1s0");
        let a1s1 = m.bin_var("a1s1");
        let e1 = m.expr(&[(a0s0, 1.0), (a0s1, 1.0)]);
        m.add_eq(e1, 1.0);
        let e2 = m.expr(&[(a1s0, 1.0), (a1s1, 1.0)]);
        m.add_eq(e2, 1.0);
        let e3 = m.expr(&[(a0s0, 1.0), (a1s0, 1.0)]);
        m.add_le(e3, 1.0);
        let obj = m.expr(&[(a0s0, 1.0), (a0s1, 5.0), (a1s0, 2.0), (a1s1, 4.0)]);
        m.set_objective(obj);
        let s = m.solve().unwrap();
        assert!((s.objective - 5.0).abs() < 1e-6);
        assert_eq!(s.int_value(a0s0), 1);
        assert_eq!(s.int_value(a1s1), 1);
    }

    #[test]
    fn objective_constant_survives_branching() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.int_var("x", 0.0, 10.0);
        let e = m.expr(&[(x, 2.0)]);
        m.add_ge(e, 3.0); // x >= 1.5 -> x = 2
        let obj = LinExpr::term(x, 1.0).add_const(7.0);
        m.set_objective(obj);
        let s = m.solve().unwrap();
        assert_eq!(s.int_value(x), 2);
        assert!((s.objective - 9.0).abs() < 1e-6);
    }

    #[test]
    fn minimax_pattern_used_by_mip_peak() {
        // The O2 objective is modelled as min z with z >= load_i. Mixing
        // a continuous z with binary placement vars must work.
        // Two items of sizes 3 and 5 onto two sites; minimise the peak.
        let mut m = Model::new(Sense::Minimize);
        let z = m.var("z", 0.0, f64::INFINITY);
        let x0 = m.bin_var("item0_site0");
        let x1 = m.bin_var("item1_site0");
        // Site 0 load = 3 x0 + 5 x1; site 1 load = 3(1-x0) + 5(1-x1).
        let e1 = m.expr(&[(x0, 3.0), (x1, 5.0), (z, -1.0)]);
        m.add_le(e1, 0.0);
        let e2 = m.expr(&[(x0, -3.0), (x1, -5.0), (z, -1.0)]);
        m.add_le(e2, -8.0);
        let obj = m.expr(&[(z, 1.0)]);
        m.set_objective(obj);
        let s = m.solve().unwrap();
        // Best split: 5 on one site, 3 on the other -> peak 5.
        assert!((s.objective - 5.0).abs() < 1e-6, "obj {}", s.objective);
    }

    /// A placement-shaped MIP: `apps` binaries per site, each app on
    /// exactly one site, per-site capacity, cost per placement.
    fn placement_model(apps: usize, sites: usize, seed: u64) -> Model {
        let mut rng = seed;
        let mut next = || {
            // SplitMix64 — deterministic, no external RNG needed here.
            rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as f64 / u64::MAX as f64
        };
        let mut m = Model::new(Sense::Minimize);
        let mut x = vec![vec![]; apps];
        for (a, row) in x.iter_mut().enumerate() {
            for s in 0..sites {
                row.push(m.bin_var(&format!("a{a}s{s}")));
            }
        }
        for row in &x {
            let terms: Vec<(VarId, f64)> = row.iter().map(|&v| (v, 1.0)).collect();
            let e = m.expr(&terms);
            m.add_eq(e, 1.0);
        }
        let sizes: Vec<f64> = (0..apps).map(|_| 1.0 + (next() * 3.0).round()).collect();
        for s in 0..sites {
            let terms: Vec<(VarId, f64)> = x.iter().zip(&sizes).map(|(r, &c)| (r[s], c)).collect();
            let e = m.expr(&terms);
            let cap = sizes.iter().sum::<f64>() / sites as f64 * 1.6 + 2.0;
            m.add_le(e, cap);
        }
        let mut obj_terms = Vec::new();
        for row in &x {
            for &v in row {
                obj_terms.push((v, (next() * 10.0).round() + 1.0));
            }
        }
        let e = m.expr(&obj_terms);
        m.set_objective(e);
        m
    }

    #[test]
    fn warm_and_cold_branch_and_bound_agree() {
        // Warm-started B&B must reach the same optimum as cold-started
        // B&B on placement-shaped MIPs (the Table 1 workload shape).
        for seed in 0..8u64 {
            let m = placement_model(6, 3, seed * 7 + 1);
            let warm = solve_mip_bounded_with(&m, MAX_NODES, true).unwrap();
            let cold = solve_mip_bounded_with(&m, MAX_NODES, false).unwrap();
            assert!(
                (warm.objective - cold.objective).abs() < 1e-6,
                "seed {seed}: warm {} vs cold {}",
                warm.objective,
                cold.objective
            );
        }
    }

    #[test]
    fn repeated_solves_are_deterministic() {
        // Fixed pivot tie-breaking: the same model must produce the
        // same placement vector every time, warm or not.
        let m = placement_model(6, 3, 42);
        let first = solve_mip(&m).unwrap();
        for _ in 0..3 {
            let again = solve_mip(&m).unwrap();
            assert_eq!(first.values(), again.values());
        }
    }

    #[test]
    fn incumbent_objective_is_recomputed_from_snapped_values() {
        // Regression for the snap() drift bug. Two competing plans are
        // gated by binaries z1/z2 through a knapsack z1 + z2 ≤ 1.4:
        //   A: x (worth 10^7), throttled to CAP = 1 − 9e-7 by its own
        //      cap row, so the relaxation values A at 9_999_991 while
        //      the snapped assignment is worth exactly 10^7;
        //   B: y (worth 9_999_995), exactly integral.
        // The rounding dive finds A first. The buggy snap kept A's
        // *relaxation* objective, so B (9_999_995 > 9_999_991) would
        // replace it later in the search; recomputing from the cost
        // vector (10^7 > 9_999_995) correctly keeps A.
        const CAP: f64 = 1.0 - 9.0e-7;
        let mut m = Model::new(Sense::Maximize);
        let z1 = m.bin_var("z1");
        let z2 = m.bin_var("z2");
        let x = m.bin_var("x");
        let y = m.bin_var("y");
        let e = m.expr(&[(x, 1.0), (z1, -1.0)]);
        m.add_le(e, 0.0);
        let e = m.expr(&[(x, 1.0)]);
        m.add_le(e, CAP);
        let e = m.expr(&[(y, 1.0), (z2, -1.0)]);
        m.add_le(e, 0.0);
        let e = m.expr(&[(z1, 0.6), (z2, 0.6)]);
        m.add_le(e, 0.84);
        let obj = m.expr(&[(x, 1.0e7), (y, 9_999_995.0)]);
        m.set_objective(obj);

        let s = solve_mip_bounded_with(&m, MAX_NODES, true).unwrap();
        assert_eq!(
            (s.int_value(x), s.int_value(y)),
            (1, 0),
            "snap drift flipped the incumbent"
        );
        assert!(
            (s.objective - 1.0e7).abs() < 1e-3,
            "objective must be the snapped assignment's true value, got {}",
            s.objective
        );
    }

    fn knapsack() -> (Model, Vec<VarId>) {
        let mut m = Model::new(Sense::Maximize);
        let x: Vec<VarId> = (0..3).map(|i| m.bin_var(&format!("x{i}"))).collect();
        let e = m.expr(&[(x[0], 10.0), (x[1], 20.0), (x[2], 30.0)]);
        m.add_le(e, 50.0);
        let obj = m.expr(&[(x[0], 60.0), (x[1], 100.0), (x[2], 120.0)]);
        m.set_objective(obj);
        (m, x)
    }

    #[test]
    fn zero_node_budget_does_no_work_and_reports_the_budget() {
        // max_nodes = 0 previously still ran the rounding dive (one LP
        // per integer variable) and returned its incumbent as Ok. A
        // zero budget must do no search work: no dive, no pops, and an
        // IterationLimit report (there are unexplored nodes).
        let (m, _) = knapsack();
        assert_eq!(
            solve_mip_bounded(&m, 0).unwrap_err(),
            SolveError::IterationLimit
        );
    }

    #[test]
    fn single_node_budget_returns_the_dive_incumbent() {
        // max_nodes = 1 pops exactly the root: the budget counts no node
        // it never processed, and the dive's incumbent is returned
        // anytime-style. Which vertex the dive lands on is the
        // engine's business; the contract is that the incumbent is
        // feasible (≤ the optimum 220) and reports a gap exactly when
        // it falls short of the optimum.
        let (m, _) = knapsack();
        let s = solve_mip_bounded(&m, 1).unwrap();
        assert!(s.objective <= 220.0 + 1e-6, "obj {}", s.objective);
        assert_eq!(
            s.budget_gap().is_some(),
            s.objective < 220.0 - 1e-6,
            "obj {}, gap {:?}",
            s.objective,
            s.budget_gap()
        );
    }

    #[test]
    fn budget_stops_report_their_gap() {
        // Seed 24's rounding dive lands on 29 while the optimum is 26.
        // A one-node budget stops with the root's bound still open below
        // that incumbent; an exhaustive search proves its optimum and
        // reports no stop.
        let m = placement_model(8, 3, 24);
        let full = solve_mip_bounded(&m, MAX_NODES).unwrap();
        assert_eq!(full.budget_gap(), None, "an exhaustive search never stops");
        for presolve in [false, true] {
            let cut = if presolve {
                solve_mip_kernel(&m, 1)
            } else {
                solve_mip_bounded(&m, 1)
            }
            .unwrap();
            let gap = cut
                .budget_gap()
                .expect("a one-node budget stops the search");
            assert!(gap > 0.0, "presolve {presolve}: gap {gap}");
            assert!(
                cut.objective > full.objective + 0.5,
                "presolve {presolve}: cut short"
            );
            // The open bound the gap measures cannot exceed the optimum.
            let bound = cut.objective - gap * cut.objective.abs().max(1.0);
            assert!(
                bound <= full.objective + 1e-9,
                "presolve {presolve}: bound {bound}"
            );
        }
    }

    /// `m`'s root relaxation, with its integer variables.
    fn factorized_root(m: &Model) -> (Solution, RevisedState, Vec<VarId>) {
        let (root, state) = revised::solve_lp_state(m, &[], None).expect("root relaxation solves");
        let ints = (0..m.vars.len())
            .filter(|&j| m.vars[j].integer)
            .map(VarId)
            .collect();
        (root, state, ints)
    }

    /// A state's eta count, basis and basic-value bits.
    fn snapshot(state: &RevisedState) -> (usize, Vec<usize>, Vec<u64>) {
        let (etas, basis, _, xb) = state.basis_snapshot();
        (etas, basis, xb.iter().map(|v| v.to_bits()).collect())
    }

    #[test]
    fn fractional_roots_are_refactorized_before_the_search() {
        let m = placement_model(8, 3, 24);
        let (root, mut state, ints) = factorized_root(&m);
        assert!(
            most_fractional(&root, &ints).is_some(),
            "the root is fractional"
        );
        let (etas, basis, _, xb) = state.basis_snapshot();
        assert!(etas > 0, "the root solve leaves an eta file");

        refresh_root(&mut state, &root, &ints, MAX_NODES, true);
        let (fresh_etas, fresh_basis, _, fresh_xb) = state.basis_snapshot();
        assert_eq!(fresh_etas, 0, "the dive and the search start on a bare LU");
        assert_eq!(fresh_basis, basis, "the refresh keeps the optimal basis");
        // The refactorization-consistency tolerance of `check-invariants`.
        for (i, (&f, &h)) in fresh_xb.iter().zip(&xb).enumerate() {
            assert!(
                (f - h).abs() <= 1e-4 * (1.0 + h.abs()),
                "row {i}: solved {h}, recomputed {f}"
            );
        }
    }

    #[test]
    fn integral_roots_and_zero_budgets_keep_the_solved_state() {
        // A 3×3 assignment with distinct costs: the relaxation's optimal
        // vertex is integral, so nothing below the root replays it.
        let costs = [[4.0, 1.0, 3.0], [2.0, 0.5, 5.0], [3.0, 2.0, 2.5]];
        let mut m = Model::new(Sense::Minimize);
        let x: Vec<Vec<VarId>> = (0..3)
            .map(|a| (0..3).map(|s| m.bin_var(&format!("a{a}s{s}"))).collect())
            .collect();
        for row in &x {
            let e = m.expr(&[(row[0], 1.0), (row[1], 1.0), (row[2], 1.0)]);
            m.add_eq(e, 1.0);
        }
        for s in 0..3 {
            let terms: Vec<(VarId, f64)> = x.iter().map(|row| (row[s], 1.0)).collect();
            let e = m.expr(&terms);
            m.add_le(e, 1.0);
        }
        let obj: Vec<(VarId, f64)> = x
            .iter()
            .zip(&costs)
            .flat_map(|(row, c)| row.iter().copied().zip(c.iter().copied()))
            .collect();
        let e = m.expr(&obj);
        m.set_objective(e);
        let (root, mut state, ints) = factorized_root(&m);
        assert!(
            most_fractional(&root, &ints).is_none(),
            "the root is integral"
        );
        let solved = snapshot(&state);
        assert!(solved.0 > 0, "the root solve leaves an eta file");
        refresh_root(&mut state, &root, &ints, MAX_NODES, true);
        assert_eq!(
            snapshot(&state),
            solved,
            "an integral root is left as solved"
        );

        // A fractional root under a zero budget (no dive, no search) or
        // a cold search (no warm start) is left as solved too.
        let m = placement_model(8, 3, 24);
        let (root, state, ints) = factorized_root(&m);
        let solved = snapshot(&state);
        for (budget, warm) in [(0, true), (MAX_NODES, false)] {
            let mut st = state.clone();
            refresh_root(&mut st, &root, &ints, budget, warm);
            assert_eq!(snapshot(&st), solved, "budget {budget}, warm {warm}");
        }
    }

    #[test]
    fn sibling_resolves_match_independent_warm_starts() {
        // Capacity-bound placements: some children are infeasible, and a
        // two-eta refactorization interval makes first children
        // refactorize before their siblings solve.
        let short = revised::Params {
            refactor_after: 2,
            ..revised::Params::default()
        };
        for params in [revised::Params::default(), short] {
            let mut total = SiblingCheck::default();
            for seed in 20..32u64 {
                let m = placement_model(8, 3, seed);
                let c = check_sibling_resolves(&m, 200, params)
                    .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
                total.nodes += c.nodes;
                total.children += c.children;
                total.infeasible += c.infeasible;
                total.refactorized_first += c.refactorized_first;
                total.shared_rows += c.shared_rows;
            }
            assert!(total.nodes > 0 && total.infeasible > 0, "{total:?}");
            assert!(total.shared_rows > 0, "{total:?}");
            if params.refactor_after == 2 {
                assert!(total.refactorized_first > 0, "{total:?}");
            }
        }
    }

    #[test]
    fn presolve_matches_the_unreduced_search_bit_for_bit() {
        // Presolve on vs. off: the objective must be bit-identical
        // (snap() recomputes it from the original cost vector over the
        // same unique-optimum assignment).
        for seed in 0..6u64 {
            let m = placement_model(8, 3, seed * 11 + 5);
            let plain = solve_mip_bounded(&m, MAX_NODES).unwrap();
            let pre = solve_mip_kernel(&m, MAX_NODES).unwrap();
            assert_eq!(
                plain.objective.to_bits(),
                pre.objective.to_bits(),
                "seed {seed}: presolve moved the objective: {} vs {}",
                plain.objective,
                pre.objective
            );
        }
    }

    #[test]
    fn presolve_round_trips_pinned_placements() {
        // A model with singleton pins must survive the reduce/postsolve
        // round trip: pinned vars come back in the full solution.
        let mut m = Model::new(Sense::Minimize);
        let a = m.bin_var("a0s0");
        let b = m.bin_var("a0s1");
        let e = m.expr(&[(a, 1.0), (b, 1.0)]);
        m.add_eq(e, 1.0);
        let e = m.expr(&[(a, 1.0)]);
        m.add_eq(e, 1.0); // pin a0 home
        let c = m.bin_var("a1s0");
        let d = m.bin_var("a1s1");
        let e2 = m.expr(&[(c, 1.0), (d, 1.0)]);
        m.add_eq(e2, 1.0);
        let obj = m.expr(&[(a, 1.0), (b, 9.0), (c, 5.0), (d, 2.0)]);
        m.set_objective(obj);
        let s = solve_mip_kernel(&m, MAX_NODES).unwrap();
        assert_eq!(
            (
                s.int_value(a),
                s.int_value(b),
                s.int_value(c),
                s.int_value(d)
            ),
            (1, 0, 0, 1)
        );
        assert!((s.objective - 3.0).abs() < 1e-9);
    }
}
