//! Local search (add / drop / swap) — the classic UFL post-optimizer.
//!
//! Starting from any feasible solution, repeatedly apply the best
//! improving move among:
//!
//! * **add** — open one more facility (clients re-route to it if cheaper),
//! * **drop** — close an open facility (its clients re-route to the
//!   cheapest remaining open facility),
//! * **swap** — close one open facility and open a closed one.
//!
//! On metric instances a local optimum of this neighborhood is a
//! 3-approximation (Arya et al.), and in practice local search squeezes
//! the last percent out of any starting point — which is exactly how a
//! deployment would use the distributed algorithms: PayDual produces a
//! good placement in `O(k)` rounds, and an (inherently sequential /
//! centralized) local-search pass polishes it offline. The experiments
//! keep the two regimes separate for honesty; this module is the bridge
//! for users who want final quality.
//!
//! # Sparse gains, exact decisions
//!
//! [`optimize`] keeps, per client `j`, the best service cost `b_j` over
//! the *currently* open facilities, the facility `f_j` holding it, and
//! the best value `s_j` with `f_j` excluded (`+inf` if `j` has one open
//! link). One walk over the client rows per round (fused with the cache
//! rebuild) accumulates sparse gain lanes in the style of
//! Resende–Werneck:
//!
//! * `gain_add[b] += c_bj − b_j` for closed `b` with `c_bj < b_j`;
//! * `loss[a] += s_j − b_j` for `a = f_j`;
//! * `extra[a][b] += max(c_bj, b_j) − s_j` for closed `b` with
//!   `c_bj < s_j`.
//!
//! A candidate's approximate cost is then
//! `Σb + gain_add[b] + loss[a] + extra[a][b] + opening` (terms absent for
//! adds and drops), O(1) each, so pricing the whole neighborhood costs
//! O(links + |open|·|closed|) instead of O(n) per candidate. A client
//! with `s_j = +inf` never enters infinite arithmetic: it counts in
//! `uncovered[a]` (and takes `b_j` in place of `s_j` above), and in
//! `covered[a][b]` for each closed `b` it links to. A drop is infeasible
//! iff `uncovered[a] > 0`, a swap iff `covered[a][b] ≠ uncovered[a]` —
//! exactly the candidates whose exact sum is `+inf`. The per-pair lanes
//! are indexed by open rank × closed rank, at most `m²/4` cells.
//!
//! The approximations only *shortlist*. Every approximate and every exact
//! candidate cost is a floating-point sum over at most `K = n + m + 8`
//! additions of terms whose magnitudes total at most `2M + R`, where
//! `M = Σb + Σ_{finite} s + Σ_i f_i` and `R` is the candidate's true
//! cost; so each differs from `R` by at most `γ_K·(2M + R)`, and
//! `γ_K ≤ 2Ku` for any `K ≤ 2^52`. The reference winner `w` and the approximate minimum
//! both have `R ≤ 1.03·M` (the winner undercuts the current cost, which
//! is at most `(1 + γ_K)·M`), hence `|A − E| ≤ 4.1·γ_K·M` for both, and
//! `ε = 16·K·u·M` bounds it with room for the rounding of `ε` itself.
//! Every candidate with `A ≤ min(A_min + 2ε, current − 1e-9 + ε)` is then
//! priced exactly with the unchanged [`kernels::assign_sum_add`] /
//! [`kernels::assign_sum_drop`] / [`kernels::assign_sum_swap`] passes and
//! fed to the unchanged first-strict-minimum selection in the reference
//! enumeration order. `w` always passes the cut (`A_w ≤ E_w + ε`, and
//! `E_w` is at most both `E` of the approximate minimum and
//! `current − 1e-9`), and a candidate the cut drops is strictly worse
//! than `w` or not improving at all, so the selection — and every cost —
//! is bit-identical to [`optimize_reference`]: the kernels sum the same
//! per-client minima in the same (ascending client, then ascending
//! facility) order as the full rescan. When `ε` or an approximation is
//! not finite (costs near `f64::MAX`), every feasible candidate is
//! priced exactly.

use distfl_instance::{kernels, FacilityId, Instance, Solution};

use crate::jv::refill;

/// Outcome of a local-search run.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalSearchRun {
    /// The locally-optimal (or iteration-capped) solution.
    pub solution: Solution,
    /// Cost before optimization.
    pub initial_cost: f64,
    /// Cost after optimization.
    pub final_cost: f64,
    /// Improving moves applied.
    pub moves: u32,
    /// Whether a true local optimum was reached (false = iteration cap).
    pub converged: bool,
}

/// Cost of serving every client by its cheapest facility in `open`
/// (`None` if some client has no link into `open`).
fn assignment_cost(instance: &Instance, open: &[bool]) -> Option<f64> {
    let mut total = 0.0;
    for j in instance.clients() {
        let best = instance
            .client_links(j)
            .iter()
            .filter(|&(i, _)| open[i as usize])
            .map(|(_, c)| c)
            .fold(f64::INFINITY, f64::min);
        if !best.is_finite() {
            return None;
        }
        total += best;
    }
    Some(total)
}

/// Total cost of an open set (opening + optimal assignment), `None` if
/// infeasible.
fn open_set_cost(instance: &Instance, open: &[bool]) -> Option<f64> {
    let opening: f64 = instance
        .facilities()
        .filter(|i| open[i.index()])
        .map(|i| instance.opening_cost(i).value())
        .sum();
    assignment_cost(instance, open).map(|a| a + opening)
}

/// Per-client service-cost caches over the currently open set: the best
/// open facility (by cost, first link wins ties) and the best value with
/// that facility excluded. Dense SoA lanes so the exact-pricing kernels
/// scan them directly.
#[derive(Default)]
struct ServiceCache {
    best_cost: Vec<f64>,
    best_fac: Vec<u32>,
    second_cost: Vec<f64>,
}

impl ServiceCache {
    fn resize(&mut self, n: usize) {
        self.best_cost.resize(n, f64::INFINITY);
        self.best_fac.resize(n, u32::MAX);
        self.second_cost.resize(n, f64::INFINITY);
    }
}

/// One round's sparse gain lanes (see the module docs). Only shortlist
/// input: their summation order is free.
#[derive(Default)]
struct Gains {
    /// Each facility's rank among the open facilities if it is open,
    /// among the closed ones otherwise (ascending id).
    rank: Vec<u32>,
    /// The closed facilities, ascending.
    closed: Vec<u32>,
    /// Per closed `b`: `Σ (c_bj − b_j)` over the clients it would win.
    gain_add: Vec<f64>,
    /// Per open `a`: `Σ (s_j − b_j)` over its clients with finite `s_j`.
    loss: Vec<f64>,
    /// Per open `a`: its clients with no other open link.
    uncovered: Vec<u32>,
    /// `extra[a][b]` at `rank[a] · closed.len() + rank[b]`.
    extra: Vec<f64>,
    /// `covered[a][b]`, indexed like `extra`.
    covered: Vec<u32>,
    /// `Σ s_j` over the finite second-best costs, for the shortlist bound.
    second_sum: f64,
}

/// Rebuilds the service caches for `open` and, in the same walk over the
/// client rows, the round's gain lanes.
fn refresh(instance: &Instance, open: &[bool], cache: &mut ServiceCache, g: &mut Gains) {
    let m = open.len();
    refill(&mut g.rank, m, 0);
    g.closed.clear();
    let mut open_rank = 0u32;
    for (i, &is_open) in open.iter().enumerate() {
        if is_open {
            g.rank[i] = open_rank;
            open_rank += 1;
        } else {
            g.rank[i] = g.closed.len() as u32;
            g.closed.push(i as u32);
        }
    }
    let q = g.closed.len();
    refill(&mut g.gain_add, m, 0.0);
    refill(&mut g.loss, m, 0.0);
    refill(&mut g.uncovered, m, 0);
    refill(&mut g.extra, open_rank as usize * q, 0.0);
    refill(&mut g.covered, open_rank as usize * q, 0);
    g.second_sum = 0.0;
    for j in instance.clients() {
        let row = instance.client_links(j);
        let (mut b1, mut bf, mut b2) = (f64::INFINITY, u32::MAX, f64::INFINITY);
        for (i, c) in row.iter() {
            if !open[i as usize] {
                continue;
            }
            if c < b1 {
                b2 = b1;
                b1 = c;
                bf = i;
            } else if c < b2 {
                b2 = c;
            }
        }
        cache.best_cost[j.index()] = b1;
        cache.best_fac[j.index()] = bf;
        cache.second_cost[j.index()] = b2;

        let a = bf as usize;
        let uncovered = b2 == f64::INFINITY;
        // An uncovered client takes `b_j` in place of `s_j`: its drop is
        // counted, not summed, and a covering swap pays `c_bj − b_j`.
        let s = if uncovered {
            g.uncovered[a] += 1;
            b1
        } else {
            g.loss[a] += b2 - b1;
            g.second_sum += b2;
            b2
        };
        let base = g.rank[a] as usize * q;
        for (i, c) in row.iter() {
            let i = i as usize;
            if open[i] {
                continue;
            }
            if c < b1 {
                g.gain_add[i] += c - b1;
            }
            if c < b2 {
                let k = base + g.rank[i] as usize;
                g.extra[k] += c.max(b1) - s;
                g.covered[k] += u32::from(uncovered);
            }
        }
    }
}

/// Points the dense add column at closed facility `b`: its link costs
/// over `+inf`. Only the previous column's links are reset, so a switch
/// costs O(deg) and the lane stays `+inf` everywhere else.
fn load_column(instance: &Instance, add_min: &mut [f64], col: &mut Option<usize>, b: usize) {
    if *col == Some(b) {
        return;
    }
    if let Some(old) = col.replace(b) {
        for &j in instance.facility_links(FacilityId::new(old as u32)).ids {
            add_min[j as usize] = f64::INFINITY;
        }
    }
    for (j, c) in instance.facility_links(FacilityId::new(b as u32)).iter() {
        add_min[j as usize] = c;
    }
}

/// The opening-cost part of a candidate open set obtained by closing
/// `drop` and/or opening `add`: the same ascending-facility select-sum
/// the full rescan folds, so the additive order is preserved exactly.
fn opening_part(open: &[bool], f_cost: &[f64], drop: Option<usize>, add: Option<usize>) -> f64 {
    let mut opening = 0.0f64;
    for (i, &f) in f_cost.iter().enumerate() {
        let is_open = if Some(i) == drop {
            false
        } else if Some(i) == add {
            true
        } else {
            open[i]
        };
        if is_open {
            opening += f;
        }
    }
    opening
}

/// Reusable buffers for [`optimize_with`]: the cost/open lanes, the
/// per-client service caches, the per-round gain lanes and the dense add
/// column. Every lane is either refilled from the instance on entry or
/// rewritten each round before it is read, so values left over from an
/// earlier run — even of a different instance — are never observed.
#[derive(Default)]
pub(crate) struct LsScratch {
    f_cost: Vec<f64>,
    open: Vec<bool>,
    cache: ServiceCache,
    gains: Gains,
    add_min: Vec<f64>,
}

/// Runs best-improvement local search from `start`, with an iteration cap.
///
/// Shortlists candidates through the sparse gain lanes and prices the
/// shortlist exactly; produces the exact move sequence and costs of
/// [`optimize_reference`].
///
/// # Panics
///
/// Panics if `start` is infeasible for `instance`.
pub fn optimize(instance: &Instance, start: &Solution, max_moves: u32) -> LocalSearchRun {
    optimize_with(instance, start, max_moves, &mut LsScratch::default())
}

/// [`optimize`] with caller-provided buffers — the warm-start path reuses
/// one [`LsScratch`] across solves so repeated polishing allocates only
/// the output record.
pub(crate) fn optimize_with(
    instance: &Instance,
    start: &Solution,
    max_moves: u32,
    scratch: &mut LsScratch,
) -> LocalSearchRun {
    let _span = distfl_obs::span("solver", "localsearch");
    start.check_feasible(instance).expect("local search needs a feasible start");
    let n = instance.num_clients();
    let m = instance.num_facilities();
    let LsScratch { f_cost, open, cache, gains: g, add_min } = scratch;
    f_cost.clear();
    f_cost.extend(instance.facilities().map(|i| instance.opening_cost(i).value()));
    open.clear();
    open.extend(instance.facilities().map(|i| start.is_open(i)));
    let initial_cost = start.cost(instance).value();
    cache.resize(n);
    // Sized once for any open/closed split, so rounds never regrow them.
    let cells = (m / 2) * (m - m / 2);
    g.closed.clear();
    g.closed.reserve(m);
    g.extra.clear();
    g.extra.reserve(cells);
    g.covered.clear();
    g.covered.reserve(cells);
    refresh(instance, open, cache, g);
    // The exact-pricing add column, and the facility it holds.
    refill(add_min, n, f64::INFINITY);
    let mut col = None;
    // The shortlist bound's constant part: ε = 16·K·u·M with u = EPSILON/2.
    let f_total: f64 = f_cost.iter().sum();
    let eps_per_mass = 8.0 * (n + m + 8) as f64 * f64::EPSILON;
    // The optimal reassignment may already beat the given assignment. A
    // start whose total overflows to `+inf` is still feasible: every
    // finite candidate improves on it, as in the reference, and the bound
    // is then infinite, so every candidate is priced.
    let mut current =
        kernels::assign_sum(&cache.best_cost) + opening_part(open, f_cost, None, None);
    let mut moves = 0;
    let mut priced = 0u64;
    let mut converged = false;

    while moves < max_moves {
        let q = g.closed.len();
        let sum_b = kernels::assign_sum(&cache.best_cost);
        let open_sum = opening_part(open, f_cost, None, None);
        let eps = eps_per_mass * (sum_b + g.second_sum + f_total);

        // Phase 1: approximate cost of every feasible candidate, written
        // over its own gain cell (swaps before the drop and adds that
        // share their inputs), with the minimum and a finiteness check.
        let mut a_min = f64::INFINITY;
        let mut finite = eps.is_finite();
        let mut note = |approx: f64| {
            a_min = a_min.min(approx);
            finite &= approx.is_finite();
        };
        for a in (0..m).filter(|&a| open[a]) {
            let base = sum_b + g.loss[a];
            let without_a = open_sum - f_cost[a];
            let row = g.rank[a] as usize * q;
            for (rb, &b) in g.closed.iter().enumerate() {
                let k = row + rb;
                if g.covered[k] == g.uncovered[a] {
                    g.extra[k] = base
                        + g.gain_add[b as usize]
                        + g.extra[k]
                        + (without_a + f_cost[b as usize]);
                    note(g.extra[k]);
                }
            }
            if g.uncovered[a] == 0 {
                g.loss[a] = base + without_a;
                note(g.loss[a]);
            }
        }
        for &b in &g.closed {
            let b = b as usize;
            g.gain_add[b] = sum_b + g.gain_add[b] + (open_sum + f_cost[b]);
            note(g.gain_add[b]);
        }
        let cut = (a_min + 2.0 * eps).min(current - 1e-9 + eps);
        let shortlisted = |approx: f64| !finite || approx <= cut;

        // Phase 2: exact pricing of the shortlist and the unchanged
        // selection scan, in the reference enumeration order. Infeasible
        // candidates (by the coverage counts) are skipped, exactly as the
        // rescan skips its `None`.
        let mut best: Option<(Option<usize>, Option<usize>, f64)> = None;
        let mut consider = |drop: Option<usize>, add: Option<usize>, assign: f64| {
            priced += 1;
            let cost = assign + opening_part(open, f_cost, drop, add);
            if cost < current - 1e-9 && best.as_ref().is_none_or(|(_, _, b)| cost < *b) {
                best = Some((drop, add, cost));
            }
        };
        for (a, &is_open) in open.iter().enumerate() {
            if !is_open {
                // Add.
                if shortlisted(g.gain_add[a]) {
                    load_column(instance, add_min, &mut col, a);
                    consider(None, Some(a), kernels::assign_sum_add(&cache.best_cost, add_min));
                }
                continue;
            }
            // Drop.
            if g.uncovered[a] == 0 && shortlisted(g.loss[a]) {
                let assign = kernels::assign_sum_drop(
                    &cache.best_cost,
                    &cache.best_fac,
                    &cache.second_cost,
                    a as u32,
                );
                consider(Some(a), None, assign);
            }
            // Swap a -> b.
            let row = g.rank[a] as usize * q;
            for (rb, &b) in g.closed.iter().enumerate() {
                let k = row + rb;
                if g.covered[k] == g.uncovered[a] && shortlisted(g.extra[k]) {
                    load_column(instance, add_min, &mut col, b as usize);
                    let assign = kernels::assign_sum_swap(
                        &cache.best_cost,
                        &cache.best_fac,
                        &cache.second_cost,
                        a as u32,
                        add_min,
                    );
                    consider(Some(a), Some(b as usize), assign);
                }
            }
        }
        match best {
            Some((drop, add, cost)) => {
                if let Some(a) = drop {
                    open[a] = false;
                }
                if let Some(b) = add {
                    open[b] = true;
                }
                current = cost;
                moves += 1;
                refresh(instance, open, cache, g);
            }
            None => {
                converged = true;
                break;
            }
        }
    }

    distfl_obs::counter("solver.localsearch.moves").add(u64::from(moves));
    distfl_obs::counter("solver.localsearch.priced").add(priced);
    finish(instance, open.clone(), initial_cost, moves, converged)
}

/// Builds the final run record from a locally-optimized open set.
fn finish(
    instance: &Instance,
    open: Vec<bool>,
    initial_cost: f64,
    moves: u32,
    converged: bool,
) -> LocalSearchRun {
    let assignment: Vec<FacilityId> = instance
        .clients()
        .map(|j| {
            // First-win strict `<` over the id-sorted row = the
            // `(cost, facility id)`-lexicographic minimum.
            let mut best: Option<(u32, f64)> = None;
            for (i, c) in instance.client_links(j).iter() {
                if open[i as usize] && best.is_none_or(|(_, bc)| c < bc) {
                    best = Some((i, c));
                }
            }
            FacilityId::new(best.expect("local-search open sets stay feasible").0)
        })
        .collect();
    let solution =
        Solution::from_assignment(instance, assignment).expect("assignment over existing links");
    let final_cost = solution.cost(instance).value();
    LocalSearchRun { solution, initial_cost, final_cost, moves, converged }
}

/// Runs best-improvement local search by fully re-pricing every candidate
/// open set. Retained as the reference implementation: `bench_solvers`
/// measures [`optimize`] against it and the solver-equivalence proptests
/// pin bit-identical output.
///
/// # Panics
///
/// Panics if `start` is infeasible for `instance`.
pub fn optimize_reference(instance: &Instance, start: &Solution, max_moves: u32) -> LocalSearchRun {
    start.check_feasible(instance).expect("local search needs a feasible start");
    let m = instance.num_facilities();
    let mut open: Vec<bool> = instance.facilities().map(|i| start.is_open(i)).collect();
    let initial_cost = start.cost(instance).value();
    let mut current = open_set_cost(instance, &open).expect("feasible start");
    // The optimal reassignment may already beat the given assignment.
    let mut moves = 0;
    let mut converged = false;

    while moves < max_moves {
        let mut best: Option<(Vec<bool>, f64)> = None;
        let consider = |candidate: Vec<bool>, best: &mut Option<(Vec<bool>, f64)>| {
            if let Some(cost) = open_set_cost(instance, &candidate) {
                if cost < current - 1e-9 && best.as_ref().is_none_or(|(_, b)| cost < *b) {
                    *best = Some((candidate, cost));
                }
            }
        };
        for (a, &is_open) in open.iter().enumerate() {
            if !is_open {
                // Add.
                let mut cand = open.clone();
                cand[a] = true;
                consider(cand, &mut best);
            } else {
                // Drop.
                let mut cand = open.clone();
                cand[a] = false;
                consider(cand, &mut best);
                // Swap a -> b.
                for b in 0..m {
                    if !open[b] {
                        let mut cand = open.clone();
                        cand[a] = false;
                        cand[b] = true;
                        consider(cand, &mut best);
                    }
                }
            }
        }
        match best {
            Some((next, cost)) => {
                open = next;
                current = cost;
                moves += 1;
            }
            None => {
                converged = true;
                break;
            }
        }
    }

    finish(instance, open, initial_cost, moves, converged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paydual::{PayDual, PayDualParams};
    use crate::runner::FlAlgorithm;
    use distfl_instance::generators::{Euclidean, InstanceGenerator, UniformRandom};
    use distfl_instance::{Cost, InstanceBuilder};
    use distfl_lp::exact;

    #[test]
    fn never_worse_and_often_better() {
        for seed in 0..6 {
            let inst = UniformRandom::new(8, 30).unwrap().generate(seed).unwrap();
            let coarse =
                PayDual::new(PayDualParams::with_phases(2)).run(&inst, 1).unwrap().solution;
            let run = optimize(&inst, &coarse, 200);
            run.solution.check_feasible(&inst).unwrap();
            assert!(run.final_cost <= run.initial_cost + 1e-9, "seed {seed}");
        }
    }

    #[test]
    fn reaches_the_optimum_from_a_bad_start_on_small_instances() {
        let mut improved_to_optimal = 0;
        for seed in 0..6 {
            let inst = UniformRandom::new(6, 15).unwrap().generate(seed).unwrap();
            // Worst reasonable start: open everything.
            let assignment: Vec<FacilityId> =
                inst.clients().map(|j| inst.cheapest_link(j).0).collect();
            let all_open = Solution::new(&inst, vec![true; 6], assignment).unwrap();
            let run = optimize(&inst, &all_open, 500);
            assert!(run.converged);
            let opt = exact::solve(&inst).unwrap().cost.value();
            if (run.final_cost - opt).abs() < 1e-9 {
                improved_to_optimal += 1;
            }
            assert!(run.final_cost <= opt * 3.0 + 1e-9, "local optimum above 3x OPT");
        }
        assert!(improved_to_optimal >= 3, "local search should usually find OPT here");
    }

    #[test]
    fn local_optimum_is_stable() {
        let inst = Euclidean::new(6, 20).unwrap().generate(3).unwrap();
        let (greedy, _) = crate::greedy::solve(&inst);
        let first = optimize(&inst, &greedy, 500);
        assert!(first.converged);
        // Re-running from the local optimum makes no further moves.
        let second = optimize(&inst, &first.solution, 500);
        assert_eq!(second.moves, 0);
        assert!((second.final_cost - first.final_cost).abs() < 1e-9);
    }

    #[test]
    fn iteration_cap_is_respected() {
        let inst = UniformRandom::new(8, 30).unwrap().generate(9).unwrap();
        let assignment: Vec<FacilityId> = inst.clients().map(|j| inst.cheapest_link(j).0).collect();
        let all_open = Solution::new(&inst, vec![true; 8], assignment).unwrap();
        let run = optimize(&inst, &all_open, 1);
        assert!(run.moves <= 1);
    }

    #[test]
    fn overflowing_gains_fall_back_to_exact_pricing() {
        // Facility A (cost 10) serves both clients at 1 with a second
        // choice C at 1.7e308; closed B would serve them at 0.5. The
        // winning swap A -> B sums `loss[A] = +inf` with
        // `extra[A][B] = -inf`: its approximation is NaN, and only the
        // fallback (the bound is infinite too) prices it.
        let mut b = InstanceBuilder::new();
        let fa = b.add_facility(Cost::new(10.0).unwrap());
        let fb = b.add_facility(Cost::new(0.0).unwrap());
        let fc = b.add_facility(Cost::new(0.0).unwrap());
        for _ in 0..2 {
            let j = b.add_client();
            b.link(j, fa, Cost::new(1.0).unwrap()).unwrap();
            b.link(j, fb, Cost::new(0.5).unwrap()).unwrap();
            b.link(j, fc, Cost::new(1.7e308).unwrap()).unwrap();
        }
        let inst = b.build().unwrap();
        let start = Solution::new(&inst, vec![true, false, true], vec![fa, fa]).unwrap();
        let run = optimize(&inst, &start, 10);
        assert_eq!(run, optimize_reference(&inst, &start, 10));
        assert_eq!(run.moves, 1);
        assert!(run.solution.is_open(fb) && !run.solution.is_open(fa));
    }

    #[test]
    fn end_to_end_pipeline_distributed_then_polish() {
        let inst = Euclidean::new(10, 40).unwrap().generate(4).unwrap();
        let fast = PayDual::new(PayDualParams::with_phases(4)).run(&inst, 2).unwrap();
        let run = optimize(&inst, &fast.solution, 300);
        let opt = exact::solve(&inst).unwrap().cost.value();
        let before = fast.solution.cost(&inst).value() / opt;
        let after = run.final_cost / opt;
        assert!(after <= before + 1e-9);
        assert!(after < 1.3, "polished ratio {after} should be near-optimal");
    }
}
