//! Property-based tests for the instance classifier.
//!
//! The load-bearing property for `SolverKind::Auto` routing: the verdict
//! is the exact one. An instance from a metric generator family is never
//! labelled [`Metricity::Violated`]; a violated instance reports the true
//! worst four-point violation — bit-identical to the quadruple scan
//! `metric::metricity_defect_reference` — and a verified one reports
//! `0.0` with the scan's value within the tolerance, at every size,
//! including the shortest-path closures of the adversarially non-metric
//! families.

use proptest::prelude::*;

use distfl_instance::classify::{classify, metricity, Metricity, METRIC_REL_TOLERANCE};
use distfl_instance::generators::{
    Clustered, Euclidean, GridNetwork, InstanceGenerator, Metricized, PowerLaw, UniformRandom,
};
use distfl_instance::metric::metricity_defect_reference;
use distfl_instance::{spread, Cost, Instance, InstanceBuilder};

/// An instance drawn from one of the metric families.
fn metric_instance() -> impl Strategy<Value = Instance> {
    (0usize..5, 1usize..12, 1usize..40, 0u64..500).prop_map(|(family, m, n, seed)| match family {
        0 => Euclidean::new(m, n).unwrap().generate(seed).unwrap(),
        1 => Clustered::new(1 + m / 4, m, n).unwrap().generate(seed).unwrap(),
        2 => {
            let side = 2 + (m % 5);
            GridNetwork::new(side, side, m.min(side * side).max(1), n)
                .unwrap()
                .generate(seed)
                .unwrap()
        }
        3 => Metricized::new(UniformRandom::new(m, n).unwrap()).generate(seed).unwrap(),
        _ => Metricized::new(PowerLaw::new(m, n, 1e5).unwrap()).generate(seed).unwrap(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A metric-family instance is never labelled non-metric.
    #[test]
    fn metric_families_are_never_labelled_violated(inst in metric_instance()) {
        let profile = classify(&inst);
        prop_assert!(
            profile.metricity != Metricity::Violated,
            "metric instance mislabelled (defect {})",
            profile.observed_defect
        );
        prop_assert!(profile.metricity.admits_metric_solver());
    }

    /// Classification is a pure function of the instance.
    #[test]
    fn classification_is_deterministic(inst in metric_instance()) {
        prop_assert_eq!(classify(&inst), classify(&inst));
    }

    /// The verdict and the reported defect are the quadruple scan's, bit
    /// for bit, on small instances.
    #[test]
    fn reported_defects_are_real(
        m in 1usize..8,
        n in 1usize..15,
        seed in 0u64..500,
    ) {
        let inst = UniformRandom::new(m, n).unwrap().generate(seed).unwrap();
        assert_defect_is_exact(&inst)?;
    }

    /// At the relative tolerance edge the verdict is the one the exact
    /// defect gives: a defect of `tolerance` plus or minus a few ulps
    /// flips the label exactly where the scan's value crosses it.
    #[test]
    fn verdict_flips_exactly_at_the_tolerance(ulps in -4i64..5) {
        // The largest coefficient is the opening cost, so the tolerance
        // is `1e-9 · 1000`; the detour f0-c1-f1-c0 costs 3.
        let tolerance = METRIC_REL_TOLERANCE * 1000.0;
        let excess = f64::from_bits((tolerance.to_bits() as i64 + ulps) as u64);
        let mut b = InstanceBuilder::new();
        let f0 = b.add_facility(Cost::new(1000.0).unwrap());
        let f1 = b.add_facility(Cost::new(1.0).unwrap());
        for row in [[3.0 + excess, 1.0], [1.0, 1.0]] {
            let c = b.add_client();
            b.link(c, f0, Cost::new(row[0]).unwrap()).unwrap();
            b.link(c, f1, Cost::new(row[1]).unwrap()).unwrap();
        }
        let inst = b.build().unwrap();
        prop_assert_eq!(spread::max_coefficient(&inst).value(), 1000.0);
        let truth = metricity_defect_reference(&inst);
        let profile = classify(&inst);
        let expected = if truth <= tolerance { Metricity::Verified } else { Metricity::Violated };
        prop_assert_eq!(profile.metricity, expected);
        assert_defect_is_exact(&inst)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The same equality on both sides of 2,000 links, where the
    /// classifier used to switch from the exhaustive scan to sampling.
    #[test]
    fn reported_defects_are_exact_past_the_old_sampling_limit(
        m in 2usize..5,
        n in 300usize..800,
        seed in 0u64..500,
        metric in any::<bool>(),
    ) {
        let inst = if metric {
            Euclidean::new(m, n).unwrap().generate(seed).unwrap()
        } else {
            UniformRandom::new(m, n).unwrap().generate(seed).unwrap()
        };
        assert_defect_is_exact(&inst)?;
    }
}

/// A violation reports the scan's defect bit for bit; a verification
/// reports `0.0` and needs the scan's defect within the tolerance.
fn assert_defect_is_exact(inst: &Instance) -> Result<(), TestCaseError> {
    let profile = classify(inst);
    prop_assert_eq!(metricity(inst), profile.metricity, "the routing verdict differs");
    let truth = metricity_defect_reference(inst);
    let tolerance = METRIC_REL_TOLERANCE * spread::max_coefficient(inst).value();
    let reported = match profile.metricity {
        Metricity::Violated => truth,
        Metricity::Verified => {
            prop_assert!(truth <= tolerance, "verified with scan defect {truth}");
            0.0
        }
    };
    prop_assert_eq!(
        profile.observed_defect.to_bits(),
        reported.to_bits(),
        "classifier defect {} differs from the expected {} (scan {})",
        profile.observed_defect,
        reported,
        truth
    );
    Ok(())
}
