//! Jain–Vazirani primal–dual 3-approximation (metric baseline).
//!
//! Phase 1 is a continuous dual ascent, simulated exactly with a discrete
//! event loop: all unconnected clients raise `α_j` at unit rate; a client
//! tight with a facility (`α_j ≥ c_ij`) contributes `α_j − c_ij` toward its
//! opening cost; a fully-paid facility opens *temporarily* and absorbs its
//! tight clients (and any client that becomes tight with it later). Phase 2
//! prunes: temporarily-open facilities conflict when a common client
//! contributes positively to both; a greedy (by opening time) maximal
//! independent set of the conflict graph is opened permanently, and clients
//! connect to the nearest permanently open facility — at most `3·α_j` away
//! in a metric, giving the 3-approximation.
//!
//! PayDual is the CONGEST-compressed cousin of phase 1; this sequential
//! implementation is both a quality baseline on metric inputs and a source
//! of *feasible* dual solutions (its `α/3` is always dual-feasible up to
//! the contributor sets, and the raw `α` is scaled by the measured
//! feasibility factor before being used as a bound).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use distfl_instance::{kernels, ClientId, FacilityId, Instance, Solution};
use distfl_lp::DualSolution;

use crate::error::CoreError;
use crate::runner::{FlAlgorithm, Outcome};

/// The Jain–Vazirani baseline.
///
/// Requires a complete metric instance for its guarantee; the metricity
/// check can be skipped with [`JainVazirani::unchecked`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JainVazirani {
    /// Additive tolerance for the metricity check (`f64::INFINITY` skips
    /// it).
    pub tolerance: f64,
}

impl JainVazirani {
    /// A baseline with the default metricity tolerance (`1e-6`).
    pub fn new() -> Self {
        JainVazirani { tolerance: 1e-6 }
    }

    /// Skips the metricity validation.
    pub fn unchecked() -> Self {
        JainVazirani { tolerance: f64::INFINITY }
    }
}

impl Default for JainVazirani {
    fn default() -> Self {
        JainVazirani::new()
    }
}

/// Result of the exact phase-1 dual ascent.
#[derive(Debug, Clone)]
pub struct DualAscent {
    /// Final dual value per client (its connection time).
    pub alpha: Vec<f64>,
    /// Temporarily open facilities in opening order.
    pub temp_open: Vec<FacilityId>,
}

/// The exact facility event threshold, replicating the reference scan
/// bit-for-bit: the time at which a facility of opening cost `f` becomes
/// fully paid (`t` itself if it already is), or `None` if no active
/// client is paying toward it.
///
/// `tight` yields the costs of the facility's tight links to unconnected
/// clients (`c <= t`) in ascending client id: the reference filters its
/// full row down to them ([`active_tight`]), the event-driven ascent walks
/// the facility's tight row. Both therefore perform the same additions in
/// the same order.
fn exact_facility_event(
    tight: impl Iterator<Item = f64>,
    f: f64,
    t: f64,
    paid0: f64,
) -> Option<f64> {
    let mut paid = paid0;
    let mut rate = 0u32;
    for c in tight {
        paid += t - c;
        rate += 1;
    }
    if paid >= f {
        Some(t)
    } else if rate > 0 {
        Some(t + (f - paid) / f64::from(rate))
    } else {
        None
    }
}

/// The exact payment toward a facility at time `t`, replicating the
/// reference open-pass scan bit-for-bit over the same tight link costs as
/// [`exact_facility_event`].
fn exact_paid(tight: impl Iterator<Item = f64>, t: f64, paid0: f64) -> f64 {
    let mut paid = paid0;
    for c in tight {
        paid += t - c;
    }
    paid
}

/// The reference's tight links: a full interleaved facility row filtered
/// to unconnected clients with `c <= t`, as the costs the exact scans add.
fn active_tight<'a>(
    row: &'a [(u32, f64)],
    t: f64,
    connected: &'a [bool],
) -> impl Iterator<Item = f64> + 'a {
    row.iter().filter(move |&&(j, c)| !connected[j as usize] && c <= t).map(|&(_, c)| c)
}

/// Flattens the facility adjacency back into interleaved `(client, cost)`
/// rows, offset-indexed by facility: the reference filters these rows
/// through [`active_tight`], the event-driven ascent's tight rows index
/// into them, so both read identical values in identical order.
fn interleave_facility_links(instance: &Instance) -> (Vec<u32>, Vec<(u32, f64)>) {
    let mut offs = Vec::with_capacity(instance.num_facilities() + 1);
    let mut rows: Vec<(u32, f64)> = Vec::with_capacity(instance.num_links());
    offs.push(0u32);
    for i in instance.facilities() {
        rows.extend(instance.facility_links(i).iter());
        offs.push(rows.len() as u32);
    }
    (offs, rows)
}

/// Instance-derived read-only lanes for the event-driven ascent: the
/// per-client cost-sorted adjacency, the interleaved facility rows the
/// tight rows point into, and the opening-cost lane. Building these is
/// most of the ascent's setup cost; the warm-start cache keeps them across
/// deltas and patches only dirty client rows (facility ids inside a
/// client's row never change under a delta, so surviving rows copy
/// verbatim).
pub(crate) struct JvLanes {
    /// Per-client row offsets into `sorted` (`n + 1` entries).
    pub(crate) offs: Vec<u32>,
    /// Per-client links as `(cost, facility)` sorted by `(cost, id)`.
    /// Interleaved, because the ascent reads them as random-offset
    /// per-client gathers that want cost and id on one cache line.
    pub(crate) sorted: Vec<(f64, u32)>,
    /// Facility row offsets into `fl_rows` (`m + 1` entries).
    pub(crate) fl_offs: Vec<u32>,
    /// Interleaved `(client, cost)` facility rows, client-id-sorted.
    pub(crate) fl_rows: Vec<(u32, f64)>,
    /// Opening costs as a dense lane.
    pub(crate) f_cost: Vec<f64>,
}

impl JvLanes {
    pub(crate) fn build(instance: &Instance) -> Self {
        let n = instance.num_clients();
        let mut offs = Vec::with_capacity(n + 1);
        let mut sorted: Vec<(f64, u32)> = Vec::with_capacity(instance.num_links());
        offs.push(0u32);
        for j in instance.clients() {
            let s = sorted.len();
            sorted.extend(instance.client_links(j).iter().map(|(i, c)| (c, i)));
            sorted[s..].sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            offs.push(sorted.len() as u32);
        }
        let (fl_offs, fl_rows) = interleave_facility_links(instance);
        let f_cost = instance.facilities().map(|i| instance.opening_cost(i).value()).collect();
        JvLanes { offs, sorted, fl_offs, fl_rows, f_cost }
    }

    /// Re-derives the interleaved facility rows and opening lane from the
    /// instance, reusing allocations. Pure copies (no sorting), so the
    /// warm path calls this after every structural delta.
    pub(crate) fn refresh_facility_rows(&mut self, instance: &Instance) {
        self.fl_offs.clear();
        self.fl_offs.push(0u32);
        self.fl_rows.clear();
        for i in instance.facilities() {
            self.fl_rows.extend(instance.facility_links(i).iter());
            self.fl_offs.push(self.fl_rows.len() as u32);
        }
        self.f_cost.clear();
        self.f_cost.extend(instance.facilities().map(|i| instance.opening_cost(i).value()));
    }
}

/// Reusable mutable state for [`dual_ascent_with`] and the phase-2
/// pruning; reset on entry, so a warm solve allocates only what it
/// returns (`alpha`, `temp_open`, and for a full solve the assignment and
/// its [`Solution`]).
#[derive(Default)]
pub(crate) struct JvScratch {
    connected: Vec<bool>,
    open: Vec<bool>,
    /// Payment frozen into each facility by connected clients.
    frozen: Vec<f64>,
    /// Per-client tightness pointers into `JvLanes::sorted`: links before
    /// `ptr[j]` are tight (`c <= t`).
    ptr: Vec<u32>,
    /// `Σc` over each facility's tight links to unconnected clients, for
    /// its linear form `frozen + rate·t − Σc`. Approximate (registration
    /// order varies) and only ever used to shortlist.
    sum_c: Vec<f64>,
    thr: Vec<f64>,
    candidates: Vec<usize>,
    newly_open: Vec<usize>,
    /// Client events: a min-heap of `(next link cost, client)` with the
    /// cost as `f64::to_bits` (order-preserving on the finite,
    /// non-negative costs). One entry per active client; a client that
    /// connects leaves its entry behind, dropped when it surfaces.
    events: BinaryHeap<Reverse<(u64, u32)>>,
    /// Tight rows: facility `i` owns slots `fl_offs[i]..fl_offs[i + 1]`,
    /// whose first `tight_len[i]` hold the `fl_rows` positions of its
    /// tight links to unconnected clients, ascending (= by client id).
    tight: Vec<u32>,
    /// Tight-row lengths, which are also the exact payment rates of the
    /// facility linear forms.
    tight_len: Vec<u32>,
    /// Phase 2: client `j` contributes to some chosen facility.
    claimed: Vec<bool>,
    /// Phase 2: facility `i` is permanently open.
    is_chosen: Vec<bool>,
}

/// Clears `lane` and refills it with `len` copies of `value`, keeping its
/// allocation.
pub(crate) fn refill<T: Clone>(lane: &mut Vec<T>, len: usize, value: T) {
    lane.clear();
    lane.resize(len, value);
}

impl JvScratch {
    /// Readies every ascent lane for a run over `lanes`.
    fn reset(&mut self, lanes: &JvLanes, n: usize, m: usize) {
        refill(&mut self.connected, n, false);
        refill(&mut self.open, m, false);
        refill(&mut self.frozen, m, 0.0);
        refill(&mut self.sum_c, m, 0.0);
        refill(&mut self.thr, m, f64::INFINITY);
        refill(&mut self.tight_len, m, 0);
        self.ptr.clear();
        self.ptr.extend_from_slice(&lanes.offs[..n]);
        self.candidates.clear();
        self.candidates.reserve(n);
        self.events.clear();
        self.events.reserve(n);
        // Slots past each row's `tight_len` are never read, so only the
        // length has to match.
        self.tight.resize(lanes.fl_rows.len(), 0);
    }

    /// The costs of facility `i`'s tight links to unconnected clients, in
    /// ascending client id: the exact scans' input.
    fn tight_costs<'a>(&'a self, lanes: &'a JvLanes, i: usize) -> impl Iterator<Item = f64> + 'a {
        let lo = lanes.fl_offs[i] as usize;
        let row = &lanes.fl_rows[lo..];
        self.tight[lo..lo + self.tight_len[i] as usize].iter().map(move |&p| row[p as usize].1)
    }

    /// Advances unconnected client `j`'s pointer past the links tight at
    /// `t`, then queues it at its next link cost (if any). A passed link
    /// to an open facility makes `j` a connect candidate; any other joins
    /// its facility's linear form and tight row.
    fn advance(&mut self, lanes: &JvLanes, j: usize, t: f64) {
        let end = lanes.offs[j + 1];
        let mut p = self.ptr[j];
        while p < end {
            let (c, i) = lanes.sorted[p as usize];
            if c > t {
                self.events.push(Reverse((c.to_bits(), j as u32)));
                break;
            }
            if self.open[i as usize] {
                self.candidates.push(j);
            } else {
                self.sum_c[i as usize] += c;
                self.tight_insert(lanes, i as usize, j as u32);
            }
            p += 1;
        }
        self.ptr[j] = p;
    }

    /// Inserts client `j`'s link into facility `i`'s tight row, keeping
    /// the row sorted.
    fn tight_insert(&mut self, lanes: &JvLanes, i: usize, j: u32) {
        let lo = lanes.fl_offs[i] as usize;
        let hi = lanes.fl_offs[i + 1] as usize;
        let pos = lanes.fl_rows[lo..hi]
            .binary_search_by_key(&j, |&(jj, _)| jj)
            .expect("a client's link is in its facility's row") as u32;
        let len = self.tight_len[i] as usize;
        let row = &mut self.tight[lo..=lo + len];
        let at = row[..len].partition_point(|&q| q < pos);
        row.copy_within(at..len, at + 1);
        row[at] = pos;
        self.tight_len[i] += 1;
    }

    /// Removes connected client `j`'s link from facility `i`'s tight row.
    fn tight_remove(&mut self, lanes: &JvLanes, i: usize, j: u32) {
        let lo = lanes.fl_offs[i] as usize;
        let fl_row = &lanes.fl_rows[lo..];
        let len = self.tight_len[i] as usize;
        let row = &mut self.tight[lo..lo + len];
        let at = row.partition_point(|&q| fl_row[q as usize].0 < j);
        debug_assert_eq!(fl_row[row[at] as usize].0, j, "tight row holds the connecting client");
        row.copy_within(at + 1..len, at);
        self.tight_len[i] -= 1;
    }
}

/// Runs the exact continuous dual ascent (phase 1), event-driven.
///
/// Produces bit-identical duals and opening order to
/// [`dual_ascent_reference`] while avoiding its per-event scan over every
/// link. Each client keeps its links sorted by cost behind a pointer and
/// waits in a min-heap keyed by its next link cost, so the next tightness
/// event is the heap top (an exact input constant) and only the clients
/// it names are advanced. Each facility keeps an incrementally-maintained
/// *linear form* of its payment (`frozen + rate·t − Σc` over active tight
/// links) whose O(1) threshold estimate agrees with the exact scan up to
/// floating-point noise, plus a *tight row* listing exactly those links
/// by client id. The handful of facilities within a generous margin of
/// the minimum estimate are re-evaluated by an exact scan of the tight
/// row — the reference's summation, same links, same order — so the
/// event time that wins, and every `α_j`, `frozen` update and opening
/// decision, is the exact value the reference computes. An event costs
/// O(log n + m + tight links) instead of O(n + E).
pub fn dual_ascent(instance: &Instance) -> DualAscent {
    let lanes = JvLanes::build(instance);
    dual_ascent_with(instance, &lanes, &mut JvScratch::default())
}

/// [`dual_ascent`] over prebuilt lanes and caller-owned scratch — the
/// warm-start entry point. `lanes` must describe `instance` exactly.
///
/// Loop invariants at the top of every event: each unconnected client's
/// pointer sits past exactly its links with `c <= t` and the client has
/// one heap entry, keyed by the cost under its pointer (none if it has
/// no untight link left); each unopened facility's tight row and rate
/// hold exactly its links from those prefixes to unconnected clients; no
/// unconnected client is tight with an open facility.
pub(crate) fn dual_ascent_with(
    instance: &Instance,
    lanes: &JvLanes,
    scratch: &mut JvScratch,
) -> DualAscent {
    let _span = distfl_obs::span("solver", "jv.dual_ascent");
    let n = instance.num_clients();
    let m = instance.num_facilities();
    let s = scratch;
    s.reset(lanes, n, m);
    let mut alpha = vec![0.0f64; n];
    let mut temp_open = Vec::with_capacity(m);
    let mut active = n;
    let mut t = 0.0f64;
    let f_cost = &lanes.f_cost;

    // Register links that are tight at t = 0 (zero-cost links) and queue
    // every client at its first untight link.
    for j in 0..n {
        s.advance(lanes, j, t);
    }

    while active > 0 {
        // Next event: either a client becomes tight with a facility, or a
        // facility becomes fully paid. The client event is the heap top
        // once entries of connected clients are dropped; facility events
        // are shortlisted by linear form, then computed exactly over the
        // tight rows.
        let mut next = f64::INFINITY;
        while let Some(&Reverse((key, j))) = s.events.peek() {
            if !s.connected[j as usize] {
                next = f64::from_bits(key);
                break;
            }
            s.events.pop();
        }
        // Linear-form event estimates, gathered into a dense lane so the
        // minimum is one chunked [`kernels::min_argmin`] pass (retired or
        // contributor-free facilities sit at `+inf` and never win).
        for (i, &f) in f_cost.iter().enumerate() {
            let rate = s.tight_len[i];
            s.thr[i] = if s.open[i] {
                f64::INFINITY
            } else {
                let paid_lin = s.frozen[i] + f64::from(rate) * t - s.sum_c[i];
                if paid_lin >= f {
                    t
                } else if rate > 0 {
                    t + (f - paid_lin) / f64::from(rate)
                } else {
                    f64::INFINITY
                }
            };
        }
        let min_lin = kernels::min_argmin(&s.thr).map_or(f64::INFINITY, |(_, v)| v);
        if min_lin.is_finite() {
            // The linear forms track the exact scans up to ~1e-12 relative
            // error; a 1e-6-relative margin is orders of magnitude wider,
            // so the facility holding the exact minimum is shortlisted.
            let margin = 1e-6 * (1.0 + min_lin.abs() + t.abs());
            for (i, &f) in f_cost.iter().enumerate() {
                if s.open[i] {
                    continue;
                }
                let rate = s.tight_len[i];
                let paid_lin = s.frozen[i] + f64::from(rate) * t - s.sum_c[i];
                let thr_lin = if paid_lin >= f - margin {
                    t
                } else if rate > 0 {
                    t + (f - paid_lin) / f64::from(rate)
                } else {
                    continue;
                };
                if thr_lin <= min_lin + margin {
                    if let Some(ev) =
                        exact_facility_event(s.tight_costs(lanes, i), f, t, s.frozen[i])
                    {
                        next = next.min(ev);
                    }
                }
            }
        }
        debug_assert!(next.is_finite(), "ascent must always have a next event");
        t = next.max(t);

        // Advance the clients whose next link became tight at the new t.
        // Previously untight links have cost >= t, so they contribute
        // exactly 0 payment right now — the linear forms and tight rows
        // stay in sync whether registered before or after the open pass.
        while let Some(&Reverse((key, j))) = s.events.peek() {
            if f64::from_bits(key) > t {
                break;
            }
            s.events.pop();
            if !s.connected[j as usize] {
                s.advance(lanes, j as usize, t);
            }
        }

        // Open every facility that is fully paid at time t: shortlist by
        // linear form, confirm with the exact scan (ascending id,
        // preserving the reference's opening order).
        s.newly_open.clear();
        for (i, &f) in f_cost.iter().enumerate() {
            if s.open[i] {
                continue;
            }
            let rate = f64::from(s.tight_len[i]);
            let paid_lin = s.frozen[i] + rate * t - s.sum_c[i];
            let margin = 1e-6 * (1.0 + f.abs() + paid_lin.abs() + rate * t.abs());
            if paid_lin >= f - margin
                && exact_paid(s.tight_costs(lanes, i), t, s.frozen[i]) >= f - 1e-12
            {
                s.open[i] = true;
                temp_open.push(FacilityId::new(i as u32));
                s.newly_open.push(i);
            }
        }
        // A newly-opened facility's tight row names exactly the active
        // clients that connect now; its linear form and row are retired.
        for &i in &s.newly_open {
            let lo = lanes.fl_offs[i] as usize;
            let row = &s.tight[lo..lo + s.tight_len[i] as usize];
            s.candidates.extend(row.iter().map(|&p| lanes.fl_rows[lo + p as usize].0 as usize));
        }

        // Connect candidate clients tight with an open facility, in
        // ascending order, with exactly the reference's per-client checks
        // and freeze updates. Candidates are complete: a link tight with an
        // open facility was flagged either when the pointer passed it
        // (facility already open) or when its facility opened (link already
        // tight) — there is no third way. A client's tight links are its
        // pointer prefix, so the checks and updates walk only that.
        s.candidates.sort_unstable();
        s.candidates.dedup();
        for k in 0..s.candidates.len() {
            let jx = s.candidates[k];
            if s.connected[jx] {
                continue;
            }
            let tight = &lanes.sorted[lanes.offs[jx] as usize..s.ptr[jx] as usize];
            if tight.iter().any(|&(_, i)| s.open[i as usize]) {
                s.connected[jx] = true;
                alpha[jx] = t;
                active -= 1;
                // Freeze this client's contributions into *all* facilities
                // it is paying (they stop growing), and retire its links
                // from their linear forms and tight rows.
                for &(c, i) in tight {
                    let i = i as usize;
                    if s.open[i] {
                        continue;
                    }
                    if c < t {
                        s.frozen[i] += t - c;
                    }
                    s.sum_c[i] -= c;
                    s.tight_remove(lanes, i, jx as u32);
                }
            }
        }
        s.candidates.clear();
    }

    DualAscent { alpha, temp_open }
}

/// Runs the exact continuous dual ascent (phase 1) by rescanning every
/// link each round. Retained as the reference implementation:
/// `bench_solvers` measures [`dual_ascent`] against it and the
/// equivalence tests pin bit-identical duals.
pub fn dual_ascent_reference(instance: &Instance) -> DualAscent {
    let n = instance.num_clients();
    let m = instance.num_facilities();
    let mut alpha = vec![0.0f64; n];
    let mut connected = vec![false; n];
    let mut open = vec![false; m];
    let mut frozen = vec![0.0f64; m]; // payment frozen from connected clients
    let mut temp_open = Vec::new();
    let mut active = n;
    let mut t = 0.0f64;
    let (fl_offs, fl_rows) = interleave_facility_links(instance);
    let frow = |i: usize| &fl_rows[fl_offs[i] as usize..fl_offs[i + 1] as usize];

    while active > 0 {
        // Next event: either a client becomes tight with a facility, or a
        // facility becomes fully paid.
        let mut next = f64::INFINITY;
        for j in instance.clients() {
            if connected[j.index()] {
                continue;
            }
            for (i, c) in instance.client_links(j).iter() {
                if c > t {
                    next = next.min(c);
                } else if open[i as usize] {
                    // Already tight with an open facility: immediate event.
                    next = t;
                }
            }
        }
        for i in instance.facilities() {
            if open[i.index()] {
                continue;
            }
            let f = instance.opening_cost(i).value();
            let tight = active_tight(frow(i.index()), t, &connected);
            if let Some(ev) = exact_facility_event(tight, f, t, frozen[i.index()]) {
                next = next.min(ev);
            }
        }
        debug_assert!(next.is_finite(), "ascent must always have a next event");
        t = next.max(t);

        // Open every facility that is fully paid at time t.
        for i in instance.facilities() {
            if open[i.index()] {
                continue;
            }
            let f = instance.opening_cost(i).value();
            let tight = active_tight(frow(i.index()), t, &connected);
            if exact_paid(tight, t, frozen[i.index()]) >= f - 1e-12 {
                open[i.index()] = true;
                temp_open.push(i);
            }
        }
        // Connect every active client tight with an open facility.
        for j in instance.clients() {
            if connected[j.index()] {
                continue;
            }
            let tight_open =
                instance.client_links(j).iter().any(|(i, c)| open[i as usize] && c <= t);
            if tight_open {
                connected[j.index()] = true;
                alpha[j.index()] = t;
                active -= 1;
                // Freeze this client's contributions into *all* facilities
                // it is paying (they stop growing).
                for (i, c) in instance.client_links(j).iter() {
                    if !open[i as usize] && c < t {
                        frozen[i as usize] += t - c;
                    }
                }
            }
        }
    }

    DualAscent { alpha, temp_open }
}

/// Runs the full Jain–Vazirani algorithm.
pub fn solve(instance: &Instance) -> (Solution, DualSolution) {
    let lanes = JvLanes::build(instance);
    solve_with(instance, &lanes, &mut JvScratch::default())
}

/// Runs the full Jain–Vazirani algorithm on the retained oracles: the
/// reference ascent, then the reference pruning. The equivalence tests
/// pin [`solve`] to it bit for bit.
pub fn solve_reference(instance: &Instance) -> (Solution, DualSolution) {
    prune_and_connect_reference(instance, dual_ascent_reference(instance))
}

/// [`solve`] over a prebuilt warm cache: phase 1 through
/// [`dual_ascent_with`], then the phase-2 pruning on the same scratch.
pub(crate) fn solve_with(
    instance: &Instance,
    lanes: &JvLanes,
    scratch: &mut JvScratch,
) -> (Solution, DualSolution) {
    let ascent = dual_ascent_with(instance, lanes, scratch);
    prune_and_connect(instance, ascent, scratch)
}

/// Phase 2: greedy maximal-independent-set pruning of the temporarily
/// open facilities and nearest-open connection, in O(links). Pure in
/// `(instance, ascent)`, so cold and warm solves share it verbatim, and
/// decision-for-decision equal to [`prune_and_connect_reference`]: a
/// facility conflicts with the chosen set iff one of its contributors is
/// already `claimed` by a chosen facility.
fn prune_and_connect(
    instance: &Instance,
    ascent: DualAscent,
    scratch: &mut JvScratch,
) -> (Solution, DualSolution) {
    let alpha = &ascent.alpha;
    let claimed = &mut scratch.claimed;
    refill(claimed, instance.num_clients(), false);
    let is_chosen = &mut scratch.is_chosen;
    refill(is_chosen, instance.num_facilities(), false);

    // Contributor sets: beta_ij > 0 iff alpha_j > c_ij (standard
    // simplification).
    let contributes = |j: u32, c: f64| alpha[j as usize] > c + 1e-12;

    // Greedy maximal independent set in opening order.
    for &i in &ascent.temp_open {
        let row = instance.facility_links(i);
        if !row.iter().any(|(j, c)| claimed[j as usize] && contributes(j, c)) {
            is_chosen[i.index()] = true;
            for (j, c) in row.iter() {
                if contributes(j, c) {
                    claimed[j as usize] = true;
                }
            }
        }
    }
    debug_assert!(is_chosen.contains(&true), "at least one facility opens");

    let assignment = instance.clients().map(|j| nearest(instance, j, |i| is_chosen[i])).collect();
    let solution =
        Solution::from_assignment(instance, assignment).expect("assignment uses existing links");
    (solution, DualSolution::new(ascent.alpha))
}

/// Client `j`'s nearest facility among those `chosen` accepts (by raw
/// index); sparse instances with no chosen neighbour fall back to the
/// cheapest bundle.
fn nearest(instance: &Instance, j: ClientId, chosen: impl Fn(usize) -> bool) -> FacilityId {
    // First-win strict `<` over the id-sorted row = the
    // `(cost, facility id)`-lexicographic minimum.
    let mut best: Option<(u32, f64)> = None;
    for (i, c) in instance.client_links(j).iter() {
        if chosen(i as usize) && best.is_none_or(|(_, bc)| c < bc) {
            best = Some((i, c));
        }
    }
    best.map(|(i, _)| FacilityId::new(i)).unwrap_or_else(|| {
        instance
            .client_links(j)
            .iter()
            .map(|(i, c)| {
                let i = FacilityId::new(i);
                (i, c + instance.opening_cost(i).value())
            })
            .min_by(|(fa, ca), (fb, cb)| ca.total_cmp(cb).then(fa.cmp(fb)))
            .map(|(i, _)| i)
            .expect("instance invariant: every client has a link")
    })
}

/// Phase 2 as first written: a quadratic conflict check against every
/// chosen facility and a `contains` lookup per link. Retained as the
/// oracle [`prune_and_connect`] is pinned to (through [`solve_reference`]).
fn prune_and_connect_reference(
    instance: &Instance,
    ascent: DualAscent,
) -> (Solution, DualSolution) {
    let alpha = &ascent.alpha;

    // Contributor sets: beta_ij > 0 iff alpha_j > c_ij (standard
    // simplification).
    let contributes = |j: ClientId, i: FacilityId| -> bool {
        instance.connection_cost(j, i).is_some_and(|c| alpha[j.index()] > c.value() + 1e-12)
    };

    // Greedy maximal independent set in opening order.
    let mut chosen: Vec<FacilityId> = Vec::new();
    for &i in &ascent.temp_open {
        let conflicts = chosen.iter().any(|&i2| {
            instance.facility_links(i).iter().any(|(j, _)| {
                let j = ClientId::new(j);
                contributes(j, i) && contributes(j, i2)
            })
        });
        if !conflicts {
            chosen.push(i);
        }
    }
    debug_assert!(!chosen.is_empty(), "at least one facility opens");

    let assignment = instance
        .clients()
        .map(|j| nearest(instance, j, |i| chosen.contains(&FacilityId::new(i as u32))))
        .collect();
    let solution =
        Solution::from_assignment(instance, assignment).expect("assignment uses existing links");
    (solution, DualSolution::new(ascent.alpha))
}

impl FlAlgorithm for JainVazirani {
    fn name(&self) -> String {
        "jain-vazirani".to_owned()
    }

    fn run(&self, instance: &Instance, _seed: u64) -> Result<Outcome, CoreError> {
        crate::error::require_metric(instance, self.tolerance)?;
        let (solution, dual) = solve(instance);
        Ok(Outcome { solution, transcript: None, dual: Some(dual), modeled_rounds: None })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distfl_instance::generators::{Clustered, Euclidean, InstanceGenerator, UniformRandom};
    use distfl_instance::{Cost, InstanceBuilder};
    use distfl_lp::exact;

    #[test]
    fn single_facility_duals_split_the_opening_cost() {
        // Two clients at cost 1 of a facility with f = 4: both reach
        // tightness at t=1, pay jointly, facility opens at t = 3.
        let mut b = InstanceBuilder::new();
        let f = b.add_facility(Cost::new(4.0).unwrap());
        let c0 = b.add_client();
        let c1 = b.add_client();
        b.link(c0, f, Cost::new(1.0).unwrap()).unwrap();
        b.link(c1, f, Cost::new(1.0).unwrap()).unwrap();
        let inst = b.build().unwrap();
        let ascent = dual_ascent(&inst);
        assert!((ascent.alpha[0] - 3.0).abs() < 1e-9, "alpha {:?}", ascent.alpha);
        assert!((ascent.alpha[1] - 3.0).abs() < 1e-9);
        assert_eq!(ascent.temp_open, vec![f]);
    }

    #[test]
    fn asymmetric_tightness_times() {
        // f = 3; clients at costs 1 and 2. Client 0 tight at 1, client 1 at
        // 2. Payment: (t-1) for t in [1,2], then (t-1)+(t-2); full at
        // 2t - 3 = 3 -> t = 3.
        let mut b = InstanceBuilder::new();
        let f = b.add_facility(Cost::new(3.0).unwrap());
        let c0 = b.add_client();
        let c1 = b.add_client();
        b.link(c0, f, Cost::new(1.0).unwrap()).unwrap();
        b.link(c1, f, Cost::new(2.0).unwrap()).unwrap();
        let inst = b.build().unwrap();
        let ascent = dual_ascent(&inst);
        assert!((ascent.alpha[0] - 3.0).abs() < 1e-9);
        assert!((ascent.alpha[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn late_client_connects_at_tightness() {
        // Facility opens early from a cheap client; an expensive client
        // connects exactly when it becomes tight.
        let mut b = InstanceBuilder::new();
        let f = b.add_facility(Cost::new(1.0).unwrap());
        let c0 = b.add_client();
        let c1 = b.add_client();
        b.link(c0, f, Cost::new(1.0).unwrap()).unwrap();
        b.link(c1, f, Cost::new(10.0).unwrap()).unwrap();
        let inst = b.build().unwrap();
        let ascent = dual_ascent(&inst);
        assert!((ascent.alpha[0] - 2.0).abs() < 1e-9, "alpha {:?}", ascent.alpha);
        assert!((ascent.alpha[1] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn within_three_opt_on_metric_instances() {
        for seed in 0..6 {
            let inst = Euclidean::new(7, 20).unwrap().generate(seed).unwrap();
            let (sol, _) = solve(&inst);
            sol.check_feasible(&inst).unwrap();
            let opt = exact::solve(&inst).unwrap().cost.value();
            let ratio = sol.cost(&inst).value() / opt;
            assert!(ratio <= 3.0 + 1e-9, "seed {seed}: JV ratio {ratio}");
        }
        for seed in 0..4 {
            let inst = Clustered::new(3, 6, 18).unwrap().generate(seed).unwrap();
            let (sol, _) = solve(&inst);
            let opt = exact::solve(&inst).unwrap().cost.value();
            let ratio = sol.cost(&inst).value() / opt;
            assert!(ratio <= 3.0 + 1e-9, "clustered seed {seed}: JV ratio {ratio}");
        }
    }

    #[test]
    fn dual_is_a_valid_lower_bound_source() {
        for seed in 0..5 {
            let inst = Euclidean::new(6, 15).unwrap().generate(seed).unwrap();
            let (_, dual) = solve(&inst);
            let lb = dual.lower_bound(&inst, distfl_lp::TOLERANCE);
            let opt = exact::solve(&inst).unwrap().cost.value();
            assert!(lb <= opt + 1e-6, "seed {seed}: {lb} > OPT {opt}");
            assert!(lb > 0.0);
        }
    }

    #[test]
    fn event_driven_ascent_matches_reference_bitwise() {
        for seed in 0..8 {
            let inst = UniformRandom::new(10, 40).unwrap().generate(seed).unwrap();
            let fast = dual_ascent(&inst);
            let slow = dual_ascent_reference(&inst);
            assert_eq!(fast.alpha, slow.alpha, "uniform seed {seed}");
            assert_eq!(fast.temp_open, slow.temp_open, "uniform seed {seed}");
        }
        for seed in 0..6 {
            let inst = Clustered::new(4, 8, 30).unwrap().generate(seed).unwrap();
            let fast = dual_ascent(&inst);
            let slow = dual_ascent_reference(&inst);
            assert_eq!(fast.alpha, slow.alpha, "clustered seed {seed}");
            assert_eq!(fast.temp_open, slow.temp_open, "clustered seed {seed}");
        }
        for seed in 0..6 {
            let inst = Euclidean::new(9, 25).unwrap().generate(seed).unwrap();
            let fast = dual_ascent(&inst);
            let slow = dual_ascent_reference(&inst);
            assert_eq!(fast.alpha, slow.alpha, "euclidean seed {seed}");
            assert_eq!(fast.temp_open, slow.temp_open, "euclidean seed {seed}");
        }
    }

    #[test]
    fn rejects_non_metric_inputs() {
        let inst = UniformRandom::new(5, 12).unwrap().generate(0).unwrap();
        let err = JainVazirani::new().run(&inst, 0).unwrap_err();
        assert!(matches!(err, CoreError::RequiresMetric { .. }));
        let out = JainVazirani::unchecked().run(&inst, 0).unwrap();
        out.solution.check_feasible(&inst).unwrap();
    }
}
