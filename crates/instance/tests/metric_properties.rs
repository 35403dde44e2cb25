//! Property-based tests for the exact metricity check.
//!
//! `metric::metricity_defect` evaluates the four-point condition as a
//! min-plus product in `O(m²·n)` and re-prices its shortlist with the
//! quadruple scan's own expression. Its value reaches response bytes, so
//! the contract is bitwise equality with `metricity_defect_reference`,
//! pinned here over every generator family and the degenerate shapes the
//! floating-point bound must survive: missing links, zero costs, exact
//! ties from co-located points, and single-row / single-column instances.
//! The verdict-only entry points, `is_metric` and `metricity_violation`,
//! must agree with the scan at every tolerance, including the scan's own
//! value and its neighbouring floats, where the bound cannot decide.

use proptest::prelude::*;

use distfl_instance::generators::{
    AdversarialGreedy, CdnTrace, Clustered, Euclidean, GridNetwork, InstanceGenerator, LineCity,
    Metricized, PowerLaw, UniformRandom,
};
use distfl_instance::metric::{
    is_metric, metricity_defect, metricity_defect_reference, metricity_violation,
};
use distfl_instance::{Cost, Instance, InstanceBuilder};

/// Largest shape [`small_integer_instance`] draws.
const MAX_M: usize = 6;
const MAX_N: usize = 12;

/// One instance from any generator family, both wide (`m ≤ n`, pivots
/// over facilities) and tall (`m > n`, pivots over clients).
fn family_instance() -> impl Strategy<Value = Instance> {
    (0usize..11, 1usize..10, 1usize..24, 0u64..1000).prop_map(|(family, m, n, seed)| {
        match family {
            0 => UniformRandom::new(m, n).unwrap().generate(seed).unwrap(),
            1 => Euclidean::new(m, n).unwrap().generate(seed).unwrap(),
            2 => Clustered::new(1 + m / 3, m, n).unwrap().generate(seed).unwrap(),
            // A unit square with a huge blob spread: most points clamp onto
            // the corners, so co-located points tie exactly.
            3 => Clustered::with_geometry(2, m, n, 1.0, 50.0).unwrap().generate(seed).unwrap(),
            // Sparse grids: a one- or two-hop radius leaves most links out.
            4 => {
                let side = 2 + m % 4;
                GridNetwork::with_radius(side, side, m.min(side * side), n, 1 + n % 2)
                    .unwrap()
                    .generate(seed)
                    .unwrap()
            }
            5 => {
                let side = 2 + n % 5;
                GridNetwork::new(side, side, m.min(side * side), n).unwrap().generate(seed).unwrap()
            }
            6 => PowerLaw::new(m, n, 1e5).unwrap().generate(seed).unwrap(),
            7 => CdnTrace::new(m, n).unwrap().generate(seed).unwrap(),
            // All connection costs zero; m = n + 1 facilities.
            8 => AdversarialGreedy::new(n).unwrap().generate(seed).unwrap(),
            9 => Metricized::new(UniformRandom::new(m, n).unwrap()).generate(seed).unwrap(),
            _ => LineCity::new(m, n).unwrap().generate(seed).unwrap(),
        }
    })
}

/// Builds an `m × n` instance from cost codes: codes `6` and up are "no
/// link", anything else the cost `[0, 1, 2, 3, 5, 0.1][code]`. Client `j` always
/// links facility `j mod m` (at cost 1 if its code says "no link").
fn from_codes(m: usize, n: usize, codes: &[u32]) -> Instance {
    const COSTS: [f64; 6] = [0.0, 1.0, 2.0, 3.0, 5.0, 0.1];
    let mut b = InstanceBuilder::new();
    let fs: Vec<_> = (0..m).map(|_| b.add_facility(Cost::new(1.0).unwrap())).collect();
    for j in 0..n {
        let c = b.add_client();
        for (i, &f) in fs.iter().enumerate() {
            let code = codes[j * m + i] as usize;
            let cost = match COSTS.get(code) {
                Some(&v) => v,
                None if i == j % m => 1.0,
                None => continue,
            };
            b.link(c, f, Cost::new(cost).unwrap()).unwrap();
        }
    }
    b.build().unwrap()
}

/// A sparse matrix over a few small costs (zeros included), so exact ties
/// and missing links are everywhere.
fn small_integer_instance() -> impl Strategy<Value = Instance> {
    (1usize..=MAX_M, 1usize..=MAX_N, prop::collection::vec(0u32..7, MAX_M * MAX_N))
        .prop_map(|(m, n, codes)| from_codes(m, n, &codes))
}

/// Mostly missing links (about one in four present, plus each client's
/// link to facility `j mod m`): fewer links than half the cells, so the
/// check walks the CSR lanes instead of padding dense rows.
fn sparse_instance() -> impl Strategy<Value = Instance> {
    (2usize..=MAX_M, 2usize..=MAX_N, prop::collection::vec(0u32..24, MAX_M * MAX_N))
        .prop_map(|(m, n, codes)| from_codes(m, n, &codes))
}

/// A single facility row or a single client column of any family.
fn degenerate_shape() -> impl Strategy<Value = Instance> {
    (0usize..3, 1usize..30, any::<bool>(), 0u64..1000).prop_map(|(family, len, tall, seed)| {
        let (m, n) = if tall { (len, 1) } else { (1, len) };
        match family {
            0 => UniformRandom::new(m, n).unwrap().generate(seed).unwrap(),
            1 => Euclidean::new(m, n).unwrap().generate(seed).unwrap(),
            _ => Clustered::with_geometry(1, m, n, 1.0, 50.0).unwrap().generate(seed).unwrap(),
        }
    })
}

/// The verdict-only entry points agree with the scan at tolerances on
/// both sides of its value, including the value itself and its
/// neighbouring floats, where the slack bound cannot decide alone.
fn assert_verdicts(inst: &Instance) -> Result<(), TestCaseError> {
    let truth = metricity_defect_reference(inst);
    let next = |x: f64, up: bool| {
        if x == 0.0 && !up {
            -f64::from_bits(1)
        } else if up == (x >= 0.0) {
            f64::from_bits(x.to_bits() + 1)
        } else {
            f64::from_bits(x.to_bits() - 1)
        }
    };
    for tolerance in
        [0.0, 1e-9, 1e-6, truth, next(truth, true), next(truth, false), truth * 0.5, truth * 2.0]
    {
        let expected = truth <= tolerance;
        prop_assert_eq!(is_metric(inst, tolerance), expected, "tolerance {:e}", tolerance);
        let violation = metricity_violation(inst, tolerance);
        prop_assert_eq!(
            violation.map(f64::to_bits),
            (!expected).then_some(truth.to_bits()),
            "tolerance {:e}",
            tolerance
        );
    }
    Ok(())
}

fn assert_bitwise(inst: &Instance) -> Result<(), TestCaseError> {
    assert_verdicts(inst)?;
    let fast = metricity_defect(inst);
    let oracle = metricity_defect_reference(inst);
    prop_assert_eq!(
        fast.to_bits(),
        oracle.to_bits(),
        "{}x{}: fast {:e} vs reference {:e}",
        inst.num_facilities(),
        inst.num_clients(),
        fast,
        oracle
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn defect_is_bitwise_equal_to_the_scan_on_every_family(inst in family_instance()) {
        assert_bitwise(&inst)?;
    }

    #[test]
    fn defect_is_bitwise_equal_to_the_scan_with_ties_and_gaps(inst in small_integer_instance()) {
        assert_bitwise(&inst)?;
    }

    #[test]
    fn defect_is_bitwise_equal_to_the_scan_on_sparse_lanes(inst in sparse_instance()) {
        assert_bitwise(&inst)?;
    }

    #[test]
    fn single_row_and_column_shapes_have_no_defect(inst in degenerate_shape()) {
        assert_bitwise(&inst)?;
        prop_assert_eq!(metricity_defect(&inst).to_bits(), 0.0f64.to_bits());
    }
}

/// Shortest-path closures put every defect at rounding-noise level, the
/// regime where the re-pricing bound does all the work: the result is a
/// tiny positive number (or `+0.0`), and it must still match exactly.
#[test]
fn rounding_noise_defects_match_exactly() {
    for seed in 0..40 {
        for (m, n) in [(7, 19), (19, 7), (12, 12)] {
            let inst = Metricized::new(PowerLaw::new(m, n, 1e6).unwrap()).generate(seed).unwrap();
            let fast = metricity_defect(&inst);
            assert_eq!(fast.to_bits(), metricity_defect_reference(&inst).to_bits(), "seed {seed}");
        }
    }
}
