//! Mettu–Plaxton radius-based 3-approximation (metric baseline).
//!
//! For each facility compute its *radius* `r_i` — the value solving
//! `Σ_j max(0, r_i − c_ij) = f_i` — then sweep facilities by increasing
//! radius, opening one unless an already-open facility lies within
//! distance `2·r_i` (facility–facility distance through a common client:
//! `d(i, i') = min_j (c_ij + c_i'j)`). Clients connect to the nearest open
//! facility. On metric instances the result costs at most `3·OPT`; this is
//! the simplest constant-factor baseline and needs only
//! near-linear sequential time.

use distfl_instance::{FacilityId, Instance, Solution};

use crate::error::CoreError;
use crate::runner::{FlAlgorithm, Outcome};

/// The Mettu–Plaxton baseline.
///
/// Requires a complete metric instance; [`FlAlgorithm::run`] rejects inputs
/// whose metricity defect exceeds `tolerance`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MettuPlaxton {
    /// Additive tolerance for the metricity check (`f64::INFINITY` skips
    /// the check).
    pub tolerance: f64,
}

impl MettuPlaxton {
    /// A baseline with the default metricity tolerance (`1e-6`).
    pub fn new() -> Self {
        MettuPlaxton { tolerance: 1e-6 }
    }

    /// Skips the metricity validation — for callers that know
    /// their instances are metric.
    pub fn unchecked() -> Self {
        MettuPlaxton { tolerance: f64::INFINITY }
    }
}

impl Default for MettuPlaxton {
    fn default() -> Self {
        MettuPlaxton::new()
    }
}

/// The Mettu–Plaxton radius of facility `i`: the `r` solving
/// `Σ_j max(0, r − c_ij) = f_i` over `i`'s links.
pub fn radius(instance: &Instance, i: FacilityId) -> f64 {
    let f = instance.opening_cost(i).value();
    if f == 0.0 {
        return 0.0;
    }
    let mut costs: Vec<f64> = instance.facility_links(i).costs.to_vec();
    costs.sort_by(f64::total_cmp);
    let mut prefix = 0.0;
    for (k, &c) in costs.iter().enumerate() {
        // Candidate with the first k+1 clients paying: r = (f + prefix)/k+1.
        prefix += c;
        let r = (f + prefix) / (k + 1) as f64;
        let next = costs.get(k + 1).copied().unwrap_or(f64::INFINITY);
        if c <= r && r <= next {
            return r;
        }
    }
    // Unreachable for positive f with at least one link, kept as a guard.
    f
}

/// Facility–facility distance through the cheapest common client.
fn facility_distance(instance: &Instance, a: FacilityId, b: FacilityId) -> f64 {
    let links_b = instance.facility_links(b);
    let mut best = f64::INFINITY;
    let mut idx_b = 0;
    for (j, ca) in instance.facility_links(a).iter() {
        // Advance the second (also client-sorted) id lane to j.
        while idx_b < links_b.len() && links_b.ids[idx_b] < j {
            idx_b += 1;
        }
        if idx_b < links_b.len() && links_b.ids[idx_b] == j {
            best = best.min(ca + links_b.costs[idx_b]);
        }
    }
    best
}

/// Runs Mettu–Plaxton without the metricity check.
pub fn solve(instance: &Instance) -> Solution {
    let mut order: Vec<(f64, FacilityId)> =
        instance.facilities().map(|i| (radius(instance, i), i)).collect();
    order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    let mut open: Vec<FacilityId> = Vec::new();
    for &(r, i) in &order {
        let blocked = open.iter().any(|&o| facility_distance(instance, i, o) <= 2.0 * r);
        if !blocked {
            open.push(i);
        }
    }

    let assignment: Vec<FacilityId> = instance
        .clients()
        .map(|j| {
            // First-win strict `<` over the id-sorted row = the
            // `(cost, facility id)`-lexicographic minimum.
            let mut best: Option<(u32, f64)> = None;
            for (i, c) in instance.client_links(j).iter() {
                if open.contains(&FacilityId::new(i)) && best.is_none_or(|(_, bc)| c < bc) {
                    best = Some((i, c));
                }
            }
            match best {
                Some((i, _)) => FacilityId::new(i),
                // Sparse instances may leave a client without an open linked
                // facility; fall back to its cheapest bundle.
                None => instance
                    .client_links(j)
                    .iter()
                    .map(|(i, c)| {
                        let i = FacilityId::new(i);
                        (i, c + instance.opening_cost(i).value())
                    })
                    .min_by(|(fa, ca), (fb, cb)| ca.total_cmp(cb).then(fa.cmp(fb)))
                    .map(|(i, _)| i)
                    .expect("instance invariant: every client has a link"),
            }
        })
        .collect();
    Solution::from_assignment(instance, assignment).expect("assignment uses existing links")
}

impl FlAlgorithm for MettuPlaxton {
    fn name(&self) -> String {
        "mettu-plaxton".to_owned()
    }

    fn run(&self, instance: &Instance, _seed: u64) -> Result<Outcome, CoreError> {
        crate::error::require_metric(instance, self.tolerance)?;
        Ok(Outcome::sequential(solve(instance)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distfl_instance::generators::{Clustered, Euclidean, InstanceGenerator, UniformRandom};
    use distfl_instance::{Cost, InstanceBuilder};
    use distfl_lp::exact;

    #[test]
    fn radius_solves_the_waterfill_equation() {
        // f = 6, clients at costs 1, 3, 5: with r between 3 and 5 two
        // clients pay: 2r - 4 = 6 -> r = 5. Boundary case: third client
        // also enters exactly at 5: 3r - 9 = 6 -> r = 5 as well.
        let mut b = InstanceBuilder::new();
        let f = b.add_facility(Cost::new(6.0).unwrap());
        for c in [1.0, 3.0, 5.0] {
            let j = b.add_client();
            b.link(j, f, Cost::new(c).unwrap()).unwrap();
        }
        let inst = b.build().unwrap();
        let r = radius(&inst, f);
        assert!((r - 5.0).abs() < 1e-12, "radius {r}");
        // Check it satisfies the defining equation.
        let paid: f64 = [1.0f64, 3.0, 5.0].iter().map(|c| (r - c).max(0.0)).sum();
        assert!((paid - 6.0).abs() < 1e-9);
    }

    #[test]
    fn zero_opening_cost_means_zero_radius() {
        let mut b = InstanceBuilder::new();
        let f = b.add_facility(Cost::ZERO);
        let j = b.add_client();
        b.link(j, f, Cost::new(2.0).unwrap()).unwrap();
        let inst = b.build().unwrap();
        assert_eq!(radius(&inst, f), 0.0);
    }

    #[test]
    fn within_three_opt_on_metric_instances() {
        for seed in 0..6 {
            let inst = Euclidean::new(8, 24).unwrap().generate(seed).unwrap();
            let sol = solve(&inst);
            sol.check_feasible(&inst).unwrap();
            let opt = exact::solve(&inst).unwrap().cost.value();
            let ratio = sol.cost(&inst).value() / opt;
            assert!(ratio <= 3.0 + 1e-9, "seed {seed}: MP ratio {ratio} above 3");
        }
        for seed in 0..4 {
            let inst = Clustered::new(3, 7, 21).unwrap().generate(seed).unwrap();
            let sol = solve(&inst);
            let opt = exact::solve(&inst).unwrap().cost.value();
            let ratio = sol.cost(&inst).value() / opt;
            assert!(ratio <= 3.0 + 1e-9, "clustered seed {seed}: ratio {ratio}");
        }
    }

    #[test]
    fn rejects_non_metric_inputs() {
        let inst = UniformRandom::new(5, 15).unwrap().generate(0).unwrap();
        let err = MettuPlaxton::new().run(&inst, 0).unwrap_err();
        assert!(matches!(err, CoreError::RequiresMetric { .. }));
        // Unchecked mode still produces something feasible.
        let out = MettuPlaxton::unchecked().run(&inst, 0).unwrap();
        out.solution.check_feasible(&inst).unwrap();
    }

    #[test]
    fn facility_distance_uses_cheapest_common_client() {
        let mut b = InstanceBuilder::new();
        let fa = b.add_facility(Cost::new(1.0).unwrap());
        let fb = b.add_facility(Cost::new(1.0).unwrap());
        let j0 = b.add_client();
        let j1 = b.add_client();
        b.link(j0, fa, Cost::new(5.0).unwrap()).unwrap();
        b.link(j0, fb, Cost::new(1.0).unwrap()).unwrap();
        b.link(j1, fa, Cost::new(2.0).unwrap()).unwrap();
        b.link(j1, fb, Cost::new(2.0).unwrap()).unwrap();
        let inst = b.build().unwrap();
        assert_eq!(facility_distance(&inst, fa, fb), 4.0);
    }
}
