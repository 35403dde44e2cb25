//! The metricity check.
//!
//! An instance is *metric* if connection costs embed in a metric space,
//! which for bipartite costs is equivalent to the four-point condition
//! `c(i,j) ≤ c(i,l) + c(k,l) + c(k,j)` for all facilities `i,k` and clients
//! `j,l` (whenever all four links exist). The constant-factor baselines
//! (Jain–Vazirani, Mettu–Plaxton) assume metricity; the PODC 2005 algorithm
//! does not.
//!
//! # Min-plus slacks in `O(m²·n)`
//!
//! The worst violation is a two-level min-plus product. With a missing
//! link read as `+inf`,
//!
//! ```text
//! E(i,k)  = min_l (c_il + c_kl)            (symmetric in i, k)
//! S(i,j)  = c_ij − min_k (E(i,k) + c_kj)
//! defect  = max(0, max over links (i,j) of S(i,j))
//! ```
//!
//! Terms with `k = i` (`−2·min_l c_il`) or `l = j` (`−2·c_kj`) are never
//! positive, so they need no exclusion. The four-point condition is
//! symmetric in the two sides, so the pivot pair ranges over the
//! *smaller* side — the `p = min(m,n)` rows, against `q = max(m,n)`
//! columns — for `O(p²·q)` work, one row of `S` at a time.
//!
//! The scratch is bounded by the links `L` the instance holds, never by
//! `p·q` alone. When `p·q ≤ 2·L` (complete OR-Library payloads among
//! them) the rows are copied into `+inf`-padded dense buffers and `E` is
//! filled from its upper triangle by the chunked [`kernels::min_plus_pair`],
//! each row of `S` by [`kernels::min_plus_accumulate`]: at most `4·L`
//! floats. Sparser instances walk the CSR lanes instead — `E(a,·)` by two
//! hops `a → z → b`, the row of `S` by scattering each reached pivot's
//! lane — with `O(m + n)` scratch and work bounded by the two-hop lane
//! lengths.
//!
//! # The verdict from a rigorous bound
//!
//! Let `u = 2⁻⁵³` and `C` the largest link cost. Addition and subtraction
//! round with relative error at most `u` (exactly when the result is
//! subnormal), and `C ≤ f64::MAX / 4` keeps every partial sum finite
//! (larger costs fall back to the quadruple scan). The scan's term for a
//! quadruple `q` is `r(q) = ((c_ij − c_il) − c_kl) − c_kj`; write `x(q)`
//! for its exact value:
//!
//! * the term's partial results are bounded by `C`, `2C` and `3C` (up to
//!   `1 + u` factors), so `|r(q) − x(q)| ≤ 6.1·uC`;
//! * the pair entry `Ẽ(i,k)`, a minimum of rounded sums, is within
//!   `2uC` of `E(i,k)`; the rounded `Ẽ + c_kj` and `c_ij − (…)` add at
//!   most `3.1·uC` each, so the triple slack
//!   `t̃(i,j,k) = c_ij − (Ẽ(i,k) + c_kj)` is within `8.2·uC` of
//!   `c_ij − E(i,k) − c_kj = max_l x(q)`;
//! * so `r(q) < t̃ + Δ` for every `l`, with `Δ = 16·ε·C + f64::MIN_POSITIVE`
//!   (`ε = 2u`, so `Δ ≥ 32uC`; the `MIN_POSITIVE` term covers an
//!   underflowing product), and the row slack `s̃(i,j)`, the rounded
//!   difference against the minimum, is the largest `t̃` of its row;
//! * when every link cost is an integer multiple of one power of two
//!   `2^e` and below `2^(e+51)` — integer costs, all-zero costs, any
//!   costs below `f64::MIN_POSITIVE / 4` — every partial result is a
//!   multiple of `2^e` below `2^(e+53)` in magnitude and so exact:
//!   `Δ = 0`, `r(q) = x(q)`, and the defect is `max(0, top)` outright,
//!   with no pricing however many terms tie.
//!
//! With `top` the largest `s̃`, every term is below `top + Δ`, and the
//! quadruple behind `top` (its `l ≠ j` once `top > Δ`) has a term above
//! `top − Δ` (at most and at least `top` when `Δ = 0`). Rounding is monotone, so `max(0, fl(top + Δ)) ≤ tol` proves
//! `defect ≤ tol` and `fl(top − Δ) > tol` proves `defect > tol`.
//! [`is_metric`] and [`metricity_violation`] — and through them the
//! Jain–Vazirani and Mettu–Plaxton guards and the `auto` classifier —
//! decide the usual case there, after the `O(p²·q)` pass alone: the
//! callers' tolerances (`1e-9·C`, `1e-6`) are far above `Δ ≈ 3.6e-15·C`.
//!
//! # The exact value
//!
//! The defect itself reaches response bytes (through `RequiresMetric`'s
//! text and the classifier's profile), so when it is reported it must
//! equal [`metricity_defect_reference`] — the `O(m²·n²)` scan, kept as
//! the oracle — bit for bit, not just to rounding. The min-plus slacks
//! then only *shortlist*: cells are re-priced with the scan's expression.
//! The running maximum `w` is a float that some term attained, so
//! `fl(t̃ + Δ) ≤ w` implies every term behind `t̃` is at most `w`: a row,
//! cell or pivot skipped on that test cannot raise it, and the pricing
//! starts at `w = +0.0`, the scan's initial value. The cell behind `top`
//! is priced first to raise `w` early; afterwards only rows whose largest
//! slack is within `Δ` of `w` are rebuilt, and within them only the
//! cells and pivots `k` whose own slack is.
//!
//! Pricing is cheap when few terms sit within `Δ` of the maximum, as on
//! random non-metric costs. Its worst case is the scan's `O(p²·q²)`: when
//! `Θ(p·q)` cells with `Θ(p)` pivots each all tie within `Δ` of the
//! maximum, every one of them is priced. That happens on near-tight
//! metric costs (line metrics, shortest-path closures) — which the
//! verdict settles without pricing unless the tolerance itself lies
//! within `Δ` of `top` — and on non-metric costs built so that most terms
//! share the worst violation, unless the costs make the arithmetic
//! exact (integer costs, say), when nothing is priced at all.
//!
//! The order of the re-pricing is free: a scan term is never `NaN`
//! (finite operands) and never `-0.0` (the first operand is a cost, never
//! `-0.0`, and an exactly-zero difference rounds to `+0.0`), so
//! `f64::max` over the terms is associative and commutative, and the
//! result is `+0.0` when no term is positive and the largest term
//! otherwise. Re-priced terms with `l = j`, `k = i` or a missing link are
//! at most `0` (or `-inf`) and so cannot move a maximum that starts at
//! `+0.0`.

use crate::instance::{ClientId, FacilityId, Instance, LinkSlice};
use crate::kernels;

/// The worst additive violation of the bipartite four-point condition:
/// `max(0, c(i,j) − c(i,l) − c(k,l) − c(k,j))` over all quadruples whose
/// four links all exist. Zero means the instance is metric (up to
/// rounding, which [`is_metric`]'s tolerance absorbs).
///
/// Bit-identical to [`metricity_defect_reference`]; `O(min(m,n)²·max(m,n))`
/// plus the exact pricing of the terms near the maximum, with scratch
/// bounded by the link count (see the module docs for both). Callers
/// that need only a verdict should use [`is_metric`] or
/// [`metricity_violation`], which skip the pricing when the bound
/// settles it.
pub fn metricity_defect(instance: &Instance) -> f64 {
    Slacks::new(instance).price()
}

/// The exact defect if it exceeds `tolerance`, `None` if it does not.
///
/// Equivalent to testing [`metricity_defect`] against `tolerance`, but
/// the exact value is priced only when the slack bound cannot show the
/// instance within `tolerance` — the check the metric baselines and the
/// classifier run, which report the defect only on a violation.
pub fn metricity_violation(instance: &Instance, tolerance: f64) -> Option<f64> {
    let mut slacks = Slacks::new(instance);
    if slacks.settled(tolerance) == Some(true) {
        return None;
    }
    let defect = slacks.price();
    if defect <= tolerance {
        None
    } else {
        Some(defect)
    }
}

/// Whether the instance satisfies the bipartite four-point condition up to
/// an additive tolerance: `metricity_defect(instance) <= tolerance`,
/// priced exactly only when `tolerance` lies within the rounding bound of
/// the min-plus maximum.
pub fn is_metric(instance: &Instance, tolerance: f64) -> bool {
    let mut slacks = Slacks::new(instance);
    slacks.settled(tolerance).unwrap_or_else(|| slacks.price() <= tolerance)
}

/// The relative metricity defect: [`metricity_defect`] divided by the
/// largest connection cost (0 for single-link instances). Useful for
/// comparing how non-metric different families are.
pub fn relative_defect(instance: &Instance) -> f64 {
    let max_connection = max_link_cost(instance);
    if max_connection == 0.0 {
        0.0
    } else {
        metricity_defect(instance) / max_connection
    }
}

/// The reference oracle for [`metricity_defect`]: the direct scan over
/// every quadruple, `O(m²·n²)` link lookups.
pub fn metricity_defect_reference(instance: &Instance) -> f64 {
    let mut worst = 0.0f64;
    for i in instance.facilities() {
        for k in instance.facilities() {
            if i == k {
                continue;
            }
            for (j, c_ij) in instance.facility_links(i).iter() {
                for (l, c_kl) in instance.facility_links(k).iter() {
                    if j == l {
                        continue;
                    }
                    let (Some(c_il), Some(c_kj)) = (
                        instance.connection_cost(ClientId::new(l), i),
                        instance.connection_cost(ClientId::new(j), k),
                    ) else {
                        continue;
                    };
                    let slack = c_ij - c_il.value() - c_kl - c_kj.value();
                    worst = worst.max(slack);
                }
            }
        }
    }
    worst
}

/// The largest connection cost (cost lanes are NaN-free, so a plain fold
/// computes the max).
fn max_link_cost(instance: &Instance) -> f64 {
    instance
        .clients()
        .flat_map(|j| instance.client_links(j).costs.iter().copied())
        .fold(0.0f64, f64::max)
}

/// Whether every link cost is an integer multiple of one power of two
/// `2^e` and below `2^(e+51)`, so that the check's sums and differences
/// of up to four costs are all exact (see the module docs).
fn exact_arithmetic(instance: &Instance) -> bool {
    const MANTISSA: u64 = (1 << 52) - 1;
    let (mut lowest, mut highest) = (i32::MAX, i32::MIN);
    for j in instance.clients() {
        for &c in instance.client_links(j).costs.iter().filter(|&&c| c > 0.0) {
            // `c = significand · 2^scale`, exactly.
            let bits = c.to_bits();
            let biased = (bits >> 52) as i32;
            let (significand, scale) = if biased == 0 {
                (bits & MANTISSA, -1074)
            } else {
                (bits & MANTISSA | 1 << 52, biased - 1075)
            };
            lowest = lowest.min(scale + significand.trailing_zeros() as i32);
            highest = highest.max(scale + 63 - significand.leading_zeros() as i32);
        }
    }
    lowest == i32::MAX || highest - lowest <= 50
}

/// How [`Slacks`] holds the rows (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// `+inf`-padded row copies and the full pair matrix.
    Dense,
    /// CSR lanes, one padded row and one pair row at a time.
    Sparse,
}

impl Layout {
    /// Dense when the padded rows hold at most twice the links.
    fn for_instance(p: usize, q: usize, links: usize) -> Layout {
        match p.checked_mul(q) {
            Some(cells) if cells <= links.saturating_mul(2) => Layout::Dense,
            _ => Layout::Sparse,
        }
    }
}

/// The min-plus slack pass over one instance: the largest row slack per
/// row and overall after construction, then the verdict
/// ([`Slacks::settled`]) or the exact defect ([`Slacks::price`]).
struct Slacks<'a> {
    instance: &'a Instance,
    /// Rows are clients and columns facilities (`n < m`).
    transposed: bool,
    p: usize,
    q: usize,
    layout: Layout,
    /// The rounding bound `Δ`; `None` when costs are too large for it
    /// and the quadruple scan decides.
    delta: Option<f64>,
    /// Dense layout: the padded rows (`p·q`) and the pair matrix (`p·p`).
    dense: Vec<f64>,
    pair: Vec<f64>,
    /// Sparse layout: the loaded row padded to `q`, its pair row `E(a,·)`,
    /// and the pivots that pair row reaches.
    row: Vec<f64>,
    pair_row: Vec<f64>,
    reached: Vec<u32>,
    /// `min_b (E(a,b) + c_by)` for the loaded row `a`, `+inf` where no
    /// pivot reaches column `y`.
    through: Vec<f64>,
    loaded: Option<usize>,
    /// The largest slack of each row, the largest overall and its cell.
    row_top: Vec<f64>,
    top: f64,
    top_at: (usize, u32),
}

impl<'a> Slacks<'a> {
    fn new(instance: &'a Instance) -> Slacks<'a> {
        let (m, n) = (instance.num_facilities(), instance.num_clients());
        let layout = Layout::for_instance(m.min(n), m.max(n), instance.num_links());
        Slacks::with_layout(instance, layout)
    }

    fn with_layout(instance: &'a Instance, layout: Layout) -> Slacks<'a> {
        let (m, n) = (instance.num_facilities(), instance.num_clients());
        let transposed = n < m;
        let (p, q) = if transposed { (n, m) } else { (m, n) };
        let max_cost = max_link_cost(instance);
        let delta = if max_cost > f64::MAX / 4.0 {
            None
        } else if exact_arithmetic(instance) {
            Some(0.0)
        } else {
            Some(max_cost * (16.0 * f64::EPSILON) + f64::MIN_POSITIVE)
        };
        let mut slacks = Slacks {
            instance,
            transposed,
            p,
            q,
            layout,
            delta,
            dense: Vec::new(),
            pair: Vec::new(),
            row: Vec::new(),
            pair_row: Vec::new(),
            reached: Vec::new(),
            through: Vec::new(),
            loaded: None,
            row_top: Vec::new(),
            top: f64::NEG_INFINITY,
            top_at: (0, 0),
        };
        if delta.is_some() {
            slacks.scan_rows();
        }
        slacks
    }

    /// The links of row `a`, by column.
    fn lane(&self, a: usize) -> LinkSlice<'a> {
        if self.transposed {
            self.instance.client_links(ClientId::new(a as u32))
        } else {
            self.instance.facility_links(FacilityId::new(a as u32))
        }
    }

    /// The links of column `y`, by row.
    fn cross(&self, y: usize) -> LinkSlice<'a> {
        if self.transposed {
            self.instance.facility_links(FacilityId::new(y as u32))
        } else {
            self.instance.client_links(ClientId::new(y as u32))
        }
    }

    /// Allocates the scratch and records every row's largest slack.
    fn scan_rows(&mut self) {
        let (p, q) = (self.p, self.q);
        self.through = vec![f64::INFINITY; q];
        match self.layout {
            Layout::Dense => {
                self.dense = vec![f64::INFINITY; p * q];
                for a in 0..p {
                    let lane = self.lane(a);
                    let padded = &mut self.dense[a * q..(a + 1) * q];
                    for (y, c) in lane.iter() {
                        padded[y as usize] = c;
                    }
                }
                self.pair = vec![f64::INFINITY; p * p];
                for a in 0..p {
                    for b in a + 1..p {
                        let e = kernels::min_plus_pair(
                            &self.dense[a * q..(a + 1) * q],
                            &self.dense[b * q..(b + 1) * q],
                        );
                        self.pair[a * p + b] = e;
                        self.pair[b * p + a] = e;
                    }
                }
            }
            Layout::Sparse => {
                self.row = vec![f64::INFINITY; q];
                self.pair_row = vec![f64::INFINITY; p];
                self.reached = Vec::with_capacity(p);
            }
        }
        self.row_top = Vec::with_capacity(p);
        for a in 0..p {
            self.load(a);
            let mut best = f64::NEG_INFINITY;
            for (y, c) in self.lane(a).iter() {
                let s = c - self.through[y as usize];
                if s > best {
                    best = s;
                }
                if s > self.top {
                    (self.top, self.top_at) = (s, (a, y));
                }
            }
            self.row_top.push(best);
        }
    }

    /// Makes row `a` current: its padded row, its pair row and `through`.
    fn load(&mut self, a: usize) {
        if self.loaded == Some(a) {
            return;
        }
        let p = self.p;
        match self.layout {
            Layout::Dense => {
                let q = self.q;
                self.through.fill(f64::INFINITY);
                // Pivot `b = a` is left out: its term `−2·min_z c_az` is
                // never positive, but it is exactly 0 when row `a` has a
                // zero-cost link and would then shortlist the whole row.
                for b in (0..p).filter(|&b| b != a) {
                    let e = self.pair[a * p + b];
                    if e < f64::INFINITY {
                        let pivot = &self.dense[b * q..(b + 1) * q];
                        kernels::min_plus_accumulate(&mut self.through, pivot, e);
                    }
                }
            }
            Layout::Sparse => {
                if let Some(old) = self.loaded {
                    for (z, _) in self.lane(old).iter() {
                        self.row[z as usize] = f64::INFINITY;
                    }
                    for &b in &self.reached {
                        self.pair_row[b as usize] = f64::INFINITY;
                        for (y, _) in self.lane(b as usize).iter() {
                            self.through[y as usize] = f64::INFINITY;
                        }
                    }
                    self.reached.clear();
                }
                let lane = self.lane(a);
                for (z, c) in lane.iter() {
                    self.row[z as usize] = c;
                }
                for (z, c_az) in lane.iter() {
                    for (b, c_bz) in self.cross(z as usize).iter() {
                        let v = c_az + c_bz;
                        let e = &mut self.pair_row[b as usize];
                        if v < *e {
                            if *e == f64::INFINITY {
                                self.reached.push(b);
                            }
                            *e = v;
                        }
                    }
                }
                // The self-pivot is left out, as in the dense layout.
                self.pair_row[a] = f64::INFINITY;
                for &b in &self.reached {
                    let e = self.pair_row[b as usize];
                    if e == f64::INFINITY {
                        continue;
                    }
                    for (y, c_by) in self.lane(b as usize).iter() {
                        let v = e + c_by;
                        let t = &mut self.through[y as usize];
                        if v < *t {
                            *t = v;
                        }
                    }
                }
            }
        }
        self.loaded = Some(a);
    }

    /// The verdict `defect ≤ tolerance` when the bound settles it.
    fn settled(&self, tolerance: f64) -> Option<bool> {
        let delta = self.delta?;
        if (self.top + delta).max(0.0) <= tolerance {
            Some(true)
        } else if self.top - delta > tolerance {
            Some(false)
        } else {
            None
        }
    }

    /// The exact defect, bit-identical to the quadruple scan.
    fn price(&mut self) -> f64 {
        let Some(delta) = self.delta else {
            return metricity_defect_reference(self.instance);
        };
        if delta == 0.0 {
            // Exact arithmetic: the slacks are the terms themselves.
            return self.top.max(0.0);
        }
        let mut worst = 0.0f64;
        if self.top + delta <= worst {
            return worst;
        }
        let (top_row, top_column) = self.top_at;
        self.load(top_row);
        self.price_row(top_row, Some(top_column), delta, &mut worst);
        for a in (0..self.p).filter(|&a| a != top_row) {
            if self.row_top[a] + delta > worst {
                self.load(a);
                self.price_row(a, None, delta, &mut worst);
            }
        }
        worst
    }

    /// Re-prices the loaded row `a` with the scan's expression, raising
    /// `worst`: cell `first` unconditionally, then every other cell and
    /// pivot whose slack is within `delta` of `worst`.
    fn price_row(&self, a: usize, first: Option<u32>, delta: f64, worst: &mut f64) {
        let (p, q) = (self.p, self.q);
        let (padded, pair_row) = match self.layout {
            Layout::Dense => (&self.dense[a * q..(a + 1) * q], &self.pair[a * p..(a + 1) * p]),
            Layout::Sparse => (&self.row[..], &self.pair_row[..]),
        };
        let price_cell = |y: u32, worst: &mut f64| {
            let c_ay = padded[y as usize];
            for (b, c_by) in self.cross(y as usize).iter() {
                if b as usize == a || c_ay - (pair_row[b as usize] + c_by) + delta <= *worst {
                    continue;
                }
                for (z, c_bz) in self.lane(b as usize).iter() {
                    let c_az = padded[z as usize];
                    // Facility-major rows hold (i,j,k,l) = (a,y,b,z);
                    // client-major rows (j,i,l,k).
                    let r = if self.transposed {
                        ((c_ay - c_by) - c_bz) - c_az
                    } else {
                        ((c_ay - c_az) - c_bz) - c_by
                    };
                    if r > *worst {
                        *worst = r;
                    }
                }
            }
        };
        if let Some(y) = first {
            price_cell(y, worst);
        }
        for (y, c_ay) in self.lane(a).iter() {
            if Some(y) != first && c_ay - self.through[y as usize] + delta > *worst {
                price_cell(y, worst);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Cost;
    use crate::generators::{
        AdversarialGreedy, Clustered, Euclidean, GridNetwork, InstanceGenerator, LineCity,
        Metricized, PowerLaw, UniformRandom,
    };
    use crate::instance::InstanceBuilder;

    fn inst_from_matrix(opening: &[f64], matrix: &[&[f64]]) -> Instance {
        let mut b = InstanceBuilder::new();
        let fs: Vec<_> = opening.iter().map(|&f| b.add_facility(Cost::new(f).unwrap())).collect();
        for row in matrix {
            let c = b.add_client();
            for (i, &v) in row.iter().enumerate() {
                b.link(c, fs[i], Cost::new(v).unwrap()).unwrap();
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn euclidean_matrix_is_metric() {
        // Facilities at x=0 and x=10, clients at x=2 and x=7 on a line.
        let inst = inst_from_matrix(&[1.0, 1.0], &[&[2.0, 8.0], &[7.0, 3.0]]);
        assert_eq!(metricity_defect(&inst).to_bits(), 0.0f64.to_bits());
        assert!(is_metric(&inst, 0.0));
        assert_eq!(metricity_violation(&inst, 0.0), None);
        assert_eq!(relative_defect(&inst), 0.0);
    }

    #[test]
    fn violation_is_detected_and_quantified() {
        // c(f0,c0) = 100 but the detour f0-c1-f1-c0 costs 1+1+1 = 3.
        let inst = inst_from_matrix(&[1.0, 1.0], &[&[100.0, 1.0], &[1.0, 1.0]]);
        let defect = metricity_defect(&inst);
        assert!((defect - 97.0).abs() < 1e-9, "defect {defect}");
        assert_eq!(defect.to_bits(), metricity_defect_reference(&inst).to_bits());
        assert!(!is_metric(&inst, 1.0));
        assert!(is_metric(&inst, 97.0));
        assert_eq!(metricity_violation(&inst, 1.0).map(f64::to_bits), Some(defect.to_bits()));
        assert_eq!(metricity_violation(&inst, 97.0), None);
        assert!((relative_defect(&inst) - 0.97).abs() < 1e-9);
    }

    #[test]
    fn missing_links_make_condition_vacuous() {
        // Sparse: only a single facility, so no quadruple exists.
        let mut b = InstanceBuilder::new();
        let f = b.add_facility(Cost::new(1.0).unwrap());
        for _ in 0..3 {
            let c = b.add_client();
            b.link(c, f, Cost::new(9.0).unwrap()).unwrap();
        }
        let inst = b.build().unwrap();
        assert_eq!(metricity_defect(&inst).to_bits(), 0.0f64.to_bits());
        assert!(is_metric(&inst, 0.0));
        // No defect is ever below a negative tolerance.
        assert!(!is_metric(&inst, -1.0));
        assert_eq!(metricity_violation(&inst, -1.0), Some(0.0));
    }

    #[test]
    fn wide_and_tall_shapes_agree_with_the_scan() {
        // Three facilities, two clients (pivots over clients) and its
        // transpose (pivots over facilities) hold the same violation.
        let tall = inst_from_matrix(&[1.0; 3], &[&[50.0, 1.0, 2.0], &[1.0, 1.0, 40.0]]);
        let wide = inst_from_matrix(&[1.0; 2], &[&[50.0, 1.0], &[1.0, 1.0], &[2.0, 40.0]]);
        for inst in [&tall, &wide] {
            let fast = metricity_defect(inst);
            assert!(fast > 0.0);
            assert_eq!(fast.to_bits(), metricity_defect_reference(inst).to_bits());
        }
        assert_eq!(metricity_defect(&tall).to_bits(), metricity_defect(&wide).to_bits());
    }

    #[test]
    fn huge_costs_fall_back_to_the_scan() {
        let big = f64::MAX / 2.0;
        let inst = inst_from_matrix(&[1.0, 1.0], &[&[big, 1.0], &[1.0, 1.0], &[big, big]]);
        assert_eq!(metricity_defect(&inst).to_bits(), metricity_defect_reference(&inst).to_bits());
        assert!(metricity_defect(&inst) > 0.0);
        assert!(!is_metric(&inst, 1.0));
    }

    #[test]
    fn both_layouts_match_the_scan_bitwise() {
        let mut cases: Vec<Instance> = Vec::new();
        for seed in 0..6 {
            for (m, n) in [(5, 17), (17, 5), (9, 9), (1, 12), (12, 1)] {
                cases.push(UniformRandom::new(m, n).unwrap().generate(seed).unwrap());
                cases.push(Euclidean::new(m, n).unwrap().generate(seed).unwrap());
                cases.push(
                    Clustered::with_geometry(2, m, n, 1.0, 50.0).unwrap().generate(seed).unwrap(),
                );
                cases.push(
                    Metricized::new(PowerLaw::new(m, n, 1e6).unwrap()).generate(seed).unwrap(),
                );
                cases.push(LineCity::new(m, n).unwrap().generate(seed).unwrap());
            }
            cases.push(GridNetwork::with_radius(4, 4, 9, 20, 1).unwrap().generate(seed).unwrap());
            cases.push(GridNetwork::with_radius(4, 4, 16, 7, 2).unwrap().generate(seed).unwrap());
            cases.push(AdversarialGreedy::new(8).unwrap().generate(seed).unwrap());
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for inst in &cases {
            let truth = metricity_defect_reference(inst);
            let shape = format!("{}x{}", inst.num_facilities(), inst.num_clients());
            // Both layouts take minima over the same rounded sums, so their
            // slacks agree bit for bit, row by row.
            let dense = Slacks::with_layout(inst, Layout::Dense);
            let sparse = Slacks::with_layout(inst, Layout::Sparse);
            assert_eq!(bits(&dense.row_top), bits(&sparse.row_top), "{shape}");
            for mut slacks in [dense, sparse] {
                for tolerance in [0.0, 1e-9, 1e-6, truth, truth * 0.5] {
                    if let Some(verdict) = slacks.settled(tolerance) {
                        assert_eq!(verdict, truth <= tolerance, "{:?} {shape}", slacks.layout);
                    }
                }
                let fast = slacks.price();
                assert_eq!(fast.to_bits(), truth.to_bits(), "{:?} {shape}", slacks.layout);
            }
        }
    }

    #[test]
    fn tiny_normal_costs_are_priced_not_assumed_exact() {
        // Scaling by 2^-1020 keeps every cost normal, so sums still round
        // and the costs' bit spans still rule out exact arithmetic.
        let mut noisy = 0;
        for seed in 0..20 {
            let closed =
                Metricized::new(PowerLaw::new(6, 15, 1e6).unwrap()).generate(seed).unwrap();
            let tiny = crate::transform::scale_costs(&closed, 2f64.powi(-1020)).unwrap();
            let truth = metricity_defect_reference(&tiny);
            noisy += usize::from(truth > 0.0);
            assert_eq!(metricity_defect(&tiny).to_bits(), truth.to_bits(), "seed {seed}");
        }
        assert!(noisy > 0, "no seed carries rounding noise");
    }

    #[test]
    fn sparse_instances_get_the_lane_layout() {
        // A matching: client j links facility j only, 1% of the cells.
        let mut b = InstanceBuilder::new();
        for _ in 0..100 {
            let f = b.add_facility(Cost::new(1.0).unwrap());
            let c = b.add_client();
            b.link(c, f, Cost::new(2.0).unwrap()).unwrap();
        }
        let matching = b.build().unwrap();
        assert_eq!(Layout::for_instance(100, 100, matching.num_links()), Layout::Sparse);
        let complete = UniformRandom::new(4, 9).unwrap().generate(1).unwrap();
        assert_eq!(Layout::for_instance(4, 9, complete.num_links()), Layout::Dense);
        let slacks = Slacks::new(&matching);
        assert_eq!(slacks.layout, Layout::Sparse);
        assert!(slacks.row.len() == 100 && slacks.dense.is_empty() && slacks.pair.is_empty());
        assert_eq!(metricity_defect(&matching).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn all_zero_costs_are_exact_without_pricing() {
        // Every term is +0.0: exact arithmetic prices nothing, on the
        // sparse hub-and-decoys family and on a complete zero matrix.
        let zeros = [0.0; 20];
        let rows: Vec<&[f64]> = (0..60).map(|_| &zeros[..]).collect();
        let complete = inst_from_matrix(&[1.0; 20], &rows);
        let hub = AdversarialGreedy::new(30).unwrap().generate(3).unwrap();
        for inst in [&complete, &hub] {
            let slacks = Slacks::new(inst);
            assert_eq!(slacks.delta, Some(0.0));
            assert_eq!(slacks.settled(0.0), Some(true));
            let defect = metricity_defect(inst);
            assert_eq!(defect.to_bits(), metricity_defect_reference(inst).to_bits());
        }
    }

    #[test]
    fn narrow_dyadic_costs_are_exact_however_many_terms_tie() {
        // Integer costs 1 and 10 on a (i + j) mod 3 pattern: a third of
        // the cells violate by exactly 7 through a third of the pivots.
        let pattern = |scale: f64| {
            let rows: Vec<Vec<f64>> = (0..40)
                .map(|j| (0..12).map(|i| if (i + j) % 3 == 0 { 10.0 } else { 1.0 }).collect())
                .collect();
            let rows: Vec<Vec<f64>> =
                rows.iter().map(|r| r.iter().map(|c| c * scale).collect()).collect();
            let rows: Vec<&[f64]> = rows.iter().map(|r| &r[..]).collect();
            inst_from_matrix(&[1.0; 12], &rows)
        };
        for (scale, exact) in [(1.0, true), (2f64.powi(-30), true), (0.1, false)] {
            let inst = pattern(scale);
            assert_eq!(exact_arithmetic(&inst), exact, "scale {scale}");
            assert_eq!(Slacks::new(&inst).delta == Some(0.0), exact);
            let defect = metricity_defect(&inst);
            assert_eq!(defect.to_bits(), metricity_defect_reference(&inst).to_bits());
            assert!(defect > 6.9 * scale);
        }
        // A span of 51 bits is one too many.
        let wide = inst_from_matrix(&[1.0; 2], &[&[1.0, 2f64.powi(51)], &[3.0, 1.0]]);
        assert!(!exact_arithmetic(&wide));
        let edge = inst_from_matrix(&[1.0; 2], &[&[1.0, 2f64.powi(50)], &[3.0, 1.0]]);
        assert!(exact_arithmetic(&edge));
    }

    #[test]
    fn the_bound_settles_tight_metrics_at_the_usual_tolerance() {
        // Line metrics tie on most four-point terms, yet the verdict at
        // 1e-9·C needs no pricing.
        let inst = LineCity::new(12, 40).unwrap().generate(5).unwrap();
        let slacks = Slacks::new(&inst);
        assert_eq!(slacks.settled(1e-9 * max_link_cost(&inst)), Some(true));
        let skewed = UniformRandom::new(12, 40).unwrap().generate(5).unwrap();
        assert_eq!(Slacks::new(&skewed).settled(1e-6), Some(false));
    }
}
