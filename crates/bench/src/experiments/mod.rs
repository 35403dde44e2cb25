//! The experiment implementations (one module per claim; see crate docs).

pub mod e10_faults;
pub mod e1_tradeoff;
pub mod e2_locality;
pub mod e3_rho;
pub mod e4_comparison;
pub mod e5_rounding;
pub mod e6_congestion;
pub mod e7_bucket_ablation;
pub mod e8_paydual_ablation;
pub mod e9_benchmark;
pub mod figures;

use distfl_core::greedy::StarGreedy;
use distfl_core::FlAlgorithm;
use distfl_instance::Instance;
use distfl_lp::{bounds, DualSolution};

/// The facility-count limit below which experiments use the exact optimum
/// as the ratio denominator.
pub const EXACT_LIMIT: usize = 22;

/// The best certified lower bound available for an experiment instance:
/// exact optimum for small facility counts, otherwise the better of the
/// trivial bound and the greedy run's dual-fitting certificate.
pub fn lower_bound_for(instance: &Instance) -> f64 {
    bounds::certified_lower_bound(instance, &[&greedy_dual(instance)], EXACT_LIMIT).value
}

/// The dual-fitting certificate of the star greedy run that
/// [`lower_bound_for`] certifies with.
pub fn greedy_dual(instance: &Instance) -> DualSolution {
    StarGreedy::new()
        .run(instance, 0)
        .expect("greedy cannot fail")
        .dual
        .expect("greedy emits a dual certificate")
}

/// Runs every experiment (the `exp_all` binary).
///
/// The ten experiments are independent, so they fan out as tasks on the
/// shared [`crate::sweep_pool`]; results come back in index order, which
/// keeps the table sequence (and thus every CSV and figure) identical to
/// a serial run.
pub fn run_all(quick: bool) -> Vec<crate::Table> {
    type ExperimentFn = fn(bool) -> Vec<crate::Table>;
    let exps: &[(&'static str, ExperimentFn)] = &[
        ("e1_tradeoff", e1_tradeoff::run),
        ("e2_locality", e2_locality::run),
        ("e3_rho", e3_rho::run),
        ("e4_comparison", e4_comparison::run),
        ("e5_rounding", e5_rounding::run),
        ("e6_congestion", e6_congestion::run),
        ("e7_bucket_ablation", e7_bucket_ablation::run),
        ("e8_paydual_ablation", e8_paydual_ablation::run),
        ("e9_benchmark", e9_benchmark::run),
        ("e10_faults", e10_faults::run),
    ];
    let pool = crate::sweep_pool();
    pool.map_indexed(exps.len(), |i| {
        let (name, run) = exps[i];
        let _span = distfl_obs::span("exp", name);
        run(quick)
    })
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use distfl_instance::generators::{InstanceGenerator, UniformRandom};

    #[test]
    fn lower_bound_is_positive_and_conservative() {
        let inst = UniformRandom::new(6, 15).unwrap().generate(0).unwrap();
        let lb = lower_bound_for(&inst);
        let opt = distfl_lp::exact::solve(&inst).unwrap().cost.value();
        assert!(lb > 0.0);
        assert!((lb - opt).abs() < 1e-9, "small instances use the exact bound");
    }

    #[test]
    fn lower_bound_falls_back_beyond_the_exact_limit() {
        let inst = UniformRandom::new(30, 40).unwrap().generate(0).unwrap();
        let lb = lower_bound_for(&inst);
        assert!(lb > 0.0);
    }
}
