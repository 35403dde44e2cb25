//! Instance classification for solver routing.
//!
//! The solver portfolio (DESIGN.md §3.7) needs to know, per request,
//! whether an instance is *metric* — the constant-factor ball-growing
//! solver is only guaranteed there — plus a handful of shape and
//! degeneracy statistics that pick between the general-case solvers. This
//! module computes an [`InstanceProfile`] deterministically from the
//! instance alone: same instance, same profile, no clocks and no ambient
//! randomness, so routed responses stay byte-deterministic.
//!
//! Metricity is decided exactly at every size by the
//! `O(min(m,n)²·max(m,n))` min-plus evaluation of the four-point
//! condition in [`crate::metric`], so the verdict is either
//! [`Metricity::Verified`] or [`Metricity::Violated`]. [`classify`]
//! reports a violation's true worst defect, bit-identical to the
//! quadruple scan, and `0.0` for a verified instance, since a defect
//! within the tolerance is rounding noise and is not priced. Routing
//! reads the verdict alone through [`metricity`], which never prices the
//! defect: pricing is the scan's `O(m²·n²)` on costs where most terms
//! share the worst violation.

use crate::instance::Instance;
use crate::metric;
use crate::spread;

/// Relative tolerance under which a four-point defect counts as rounding
/// noise rather than a metricity violation (scaled by the largest
/// connection cost, so shortest-path closures pass exactly).
pub const METRIC_REL_TOLERANCE: f64 = 1e-9;

/// How the classifier decided on metricity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metricity {
    /// No four-point quadruple violates the condition beyond tolerance.
    Verified,
    /// Some quadruple violates the condition beyond tolerance; the worst
    /// defect is in [`InstanceProfile::observed_defect`].
    Violated,
}

impl Metricity {
    /// Whether routing may treat the instance as metric.
    #[inline]
    pub fn admits_metric_solver(self) -> bool {
        !matches!(self, Metricity::Violated)
    }
}

/// Deterministic shape/degeneracy statistics of one instance, computed by
/// [`classify`]. `SolverKind::Auto` routing consumes the verdict (through
/// [`metricity`]) and the link count; the decision tree itself lives in
/// `distfl_core::dispatch` (this crate stays solver-agnostic).
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceProfile {
    /// Number of facilities `m`.
    pub facilities: usize,
    /// Number of clients `n`.
    pub clients: usize,
    /// Number of links `L`.
    pub links: usize,
    /// Link density `L / (m·n)` (1.0 for complete instances).
    pub density: f64,
    /// Coefficient spread `ρ` (see [`spread::coefficient_spread`]).
    pub spread: f64,
    /// The metricity verdict.
    pub metricity: Metricity,
    /// Worst additive four-point defect ([`metric::metricity_defect`])
    /// when the verdict is [`Metricity::Violated`]; `0.0` when it is
    /// [`Metricity::Verified`].
    pub observed_defect: f64,
    /// Number of zero-cost connection links (degenerate: any solver can
    /// serve these clients for free once the facility opens).
    pub zero_cost_links: usize,
    /// Whether every coefficient is equal (`ρ = 1`), the uniform-cost
    /// degenerate family.
    pub uniform_costs: bool,
}

/// Classifies an instance for solver routing.
///
/// Deterministic: the profile is a pure function of the instance, so the
/// same instance always yields the same `auto` route.
///
/// ```
/// use distfl_instance::classify::{classify, Metricity};
/// use distfl_instance::generators::{Euclidean, InstanceGenerator, UniformRandom};
///
/// # fn main() -> Result<(), distfl_instance::InstanceError> {
/// let metric = classify(&Euclidean::new(5, 20)?.generate(3)?);
/// assert!(metric.metricity.admits_metric_solver());
///
/// let skewed = classify(&UniformRandom::new(5, 20)?.generate(3)?);
/// assert_eq!(skewed.metricity, Metricity::Violated);
/// assert!(skewed.observed_defect > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn classify(instance: &Instance) -> InstanceProfile {
    let m = instance.num_facilities();
    let n = instance.num_clients();
    let links = instance.num_links();
    let rho = spread::coefficient_spread(instance);

    let violation = metric::metricity_violation(instance, metric_tolerance(instance));
    let verdict = if violation.is_some() { Metricity::Violated } else { Metricity::Verified };

    let zero_cost_links = instance
        .clients()
        .map(|j| instance.client_links(j).costs.iter().filter(|c| **c == 0.0).count())
        .sum();

    InstanceProfile {
        facilities: m,
        clients: n,
        links,
        density: links as f64 / (m as f64 * n as f64),
        spread: rho,
        metricity: verdict,
        observed_defect: violation.unwrap_or(0.0),
        zero_cost_links,
        uniform_costs: rho == 1.0,
    }
}

/// The metricity verdict of [`classify`] without the rest of the profile
/// and without pricing the defect — what `auto` routing reads, so one
/// request costs the `O(min(m,n)²·max(m,n))` pass whatever the costs.
pub fn metricity(instance: &Instance) -> Metricity {
    if metric::is_metric(instance, metric_tolerance(instance)) {
        Metricity::Verified
    } else {
        Metricity::Violated
    }
}

/// [`METRIC_REL_TOLERANCE`] scaled by the largest coefficient.
fn metric_tolerance(instance: &Instance) -> f64 {
    METRIC_REL_TOLERANCE * spread::max_coefficient(instance).value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Cost;
    use crate::generators::{Euclidean, InstanceGenerator, Metricized, PowerLaw, UniformRandom};
    use crate::instance::InstanceBuilder;
    use crate::metric::metricity_defect_reference;

    #[test]
    fn small_metric_instance_is_verified() {
        let inst = Euclidean::new(4, 12).unwrap().generate(5).unwrap();
        let profile = classify(&inst);
        assert_eq!(profile.metricity, Metricity::Verified);
        assert!(profile.metricity.admits_metric_solver());
        assert_eq!(profile.facilities, 4);
        assert_eq!(profile.clients, 12);
        assert_eq!(profile.density, 1.0);
    }

    #[test]
    fn small_non_metric_instance_is_violated() {
        let inst = UniformRandom::new(4, 12).unwrap().generate(5).unwrap();
        let profile = classify(&inst);
        assert_eq!(profile.metricity, Metricity::Violated);
        assert!(profile.observed_defect > 0.0);
        assert!(!profile.metricity.admits_metric_solver());
    }

    #[test]
    fn large_instances_get_the_exact_verdict() {
        // 3,600 links: the verdict and the defect are exact at any size.
        let raw = UniformRandom::new(30, 120).unwrap().generate(2).unwrap();
        let profile = classify(&raw);
        assert_eq!(profile.metricity, Metricity::Violated);
        assert_eq!(profile.observed_defect.to_bits(), metricity_defect_reference(&raw).to_bits());

        let closed_inst =
            Metricized::new(UniformRandom::new(30, 120).unwrap()).generate(2).unwrap();
        let closed = classify(&closed_inst);
        assert_eq!(closed.metricity, Metricity::Verified);
        assert!(closed.metricity.admits_metric_solver());
        assert_eq!(closed.observed_defect.to_bits(), 0.0f64.to_bits());
        let tolerance = METRIC_REL_TOLERANCE * spread::max_coefficient(&closed_inst).value();
        assert!(metricity_defect_reference(&closed_inst) <= tolerance);
    }

    #[test]
    fn the_routing_verdict_skips_the_pricing() {
        // Costs 0.1 and 1.1 on an (i + j) mod 3 pattern: a third of the
        // cells violate by the same amount through a third of the
        // pivots, and the costs leave the arithmetic inexact, so the
        // defect is priced over nearly every term; the verdict is not.
        let mut b = InstanceBuilder::new();
        let fs: Vec<_> = (0..12).map(|_| b.add_facility(Cost::new(1.0).unwrap())).collect();
        for j in 0..40 {
            let c = b.add_client();
            for (i, &f) in fs.iter().enumerate() {
                let cost = if (i + j) % 3 == 0 { 1.1 } else { 0.1 };
                b.link(c, f, Cost::new(cost).unwrap()).unwrap();
            }
        }
        let inst = b.build().unwrap();
        assert_eq!(metricity(&inst), Metricity::Violated);
        let profile = classify(&inst);
        assert_eq!(profile.metricity, Metricity::Violated);
        assert_eq!(profile.observed_defect.to_bits(), metricity_defect_reference(&inst).to_bits());
        assert_eq!(
            metricity(&Euclidean::new(6, 30).unwrap().generate(1).unwrap()),
            Metricity::Verified
        );
    }

    #[test]
    fn classification_is_deterministic() {
        let inst = PowerLaw::new(25, 110, 1e6).unwrap().generate(8).unwrap();
        assert_eq!(classify(&inst), classify(&inst));
    }

    #[test]
    fn degeneracy_stats_are_counted() {
        let mut b = InstanceBuilder::new();
        let f = b.add_facility(Cost::new(3.0).unwrap());
        let c0 = b.add_client();
        b.link(c0, f, Cost::ZERO).unwrap();
        let c1 = b.add_client();
        b.link(c1, f, Cost::new(3.0).unwrap()).unwrap();
        let inst = b.build().unwrap();
        let profile = classify(&inst);
        assert_eq!(profile.zero_cost_links, 1);
        assert!(profile.uniform_costs, "spread {} should be 1", profile.spread);
        // No quadruple exists with one facility, so the scan verifies.
        assert_eq!(profile.metricity, Metricity::Verified);
    }
}
