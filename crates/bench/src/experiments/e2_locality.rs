//! **E2 — locality (paper "Table 2").**
//!
//! Claim: the algorithm's round count is `O(k)` — a function of its
//! parameter only, independent of the network size — whereas the
//! straw-man simulation of the sequential greedy needs rounds that grow
//! with the input (one global aggregation per picked star).
//!
//! Sweep the instance size at a fixed phase budget and report both round
//! counts side by side, plus message totals and measured quality.

use distfl_core::paydual::{PayDual, PayDualParams};
use distfl_core::seqdist;
use distfl_core::seqsim::SimulatedSeqGreedy;
use distfl_core::FlAlgorithm;
use distfl_instance::generators::{GridNetwork, InstanceGenerator, LineCity, UniformRandom};
use distfl_instance::Instance;

use crate::table::{num, MISSING};
use crate::Table;

use super::greedy_dual;

/// Runs E2.
pub fn run(quick: bool) -> Vec<Table> {
    let phases = 8;
    let dense_sizes: &[(usize, usize)] = if quick {
        &[(5, 100), (10, 200)]
    } else {
        &[(5, 100), (10, 200), (20, 400), (40, 800), (80, 1600)]
    };
    let grid_sizes: &[(usize, usize, usize)] =
        if quick { &[(20, 8, 150)] } else { &[(20, 8, 150), (40, 16, 600), (60, 32, 2400)] };
    // Line-metric sizes get *exact* denominators at any scale via the
    // polynomial DP oracle.
    let line_sizes: &[(usize, usize)] =
        if quick { &[(10, 200)] } else { &[(10, 200), (40, 1600), (80, 6400)] };

    let mut table = Table::new(
        "e2_locality",
        "E2: rounds vs input size at a fixed budget (PayDual vs straw-man)",
        &[
            "family",
            "m",
            "n",
            "pd_rounds",
            "pd_msgs",
            "strawman_model",
            "strawman_real",
            "ratio_vs_lb",
        ],
    );

    // Each row is an independent trial described by a spec; the instance is
    // generated *inside* the task from the fixed seed, so the rows are the
    // same at any worker count. Specs are listed in the serial row order
    // and results collected by index.
    enum Spec {
        Uniform { m: usize, n: usize },
        Grid { side: usize, m: usize, n: usize },
        Line { m: usize, n: usize },
    }
    let mut specs: Vec<Spec> = Vec::new();
    specs.extend(dense_sizes.iter().map(|&(m, n)| Spec::Uniform { m, n }));
    specs.extend(grid_sizes.iter().map(|&(side, m, n)| Spec::Grid { side, m, n }));
    specs.extend(line_sizes.iter().map(|&(m, n)| Spec::Line { m, n }));

    let metric_row = |family: &str, inst: &Instance| -> Vec<String> {
        let out =
            PayDual::new(PayDualParams::with_phases(phases)).run(inst, 1).expect("paydual run");
        let t = out.transcript.expect("distributed run");
        let strawman_out = SimulatedSeqGreedy::new().run(inst, 1).expect("strawman run");
        let strawman = strawman_out.modeled_rounds.expect("strawman models rounds");
        // One certified bound over every dual certificate the row has: the
        // greedy run's, PayDual's and the straw-man's. Up to the exact
        // limit it is the optimum, computed once.
        let lb = distfl_lp::bounds::certified_lower_bound(
            inst,
            &[
                &greedy_dual(inst),
                out.dual.as_ref().expect("paydual emits a dual"),
                strawman_out.dual.as_ref().expect("greedy emits a dual"),
            ],
            super::EXACT_LIMIT,
        )
        .value;
        // The faithful straw-man protocol is executed where affordable
        // (its simulation cost is what makes it a straw-man).
        let real = if inst.num_clients() <= 400 {
            seqdist::run_protocol(inst)
                .map(|(_, t)| t.num_rounds().to_string())
                .unwrap_or_else(|_| MISSING.to_owned())
        } else {
            MISSING.to_owned()
        };
        vec![
            family.to_owned(),
            inst.num_facilities().to_string(),
            inst.num_clients().to_string(),
            t.num_rounds().to_string(),
            t.total_messages().to_string(),
            strawman.to_string(),
            real,
            num(out.solution.cost(inst).value() / lb, 3),
        ]
    };

    let pool = crate::sweep_pool();
    let rows: Vec<Vec<String>> = pool.map_indexed(specs.len(), |i| {
        let _cell = distfl_obs::span_arg("exp", "e2.cell", i as u64);
        match specs[i] {
            Spec::Uniform { m, n } => {
                let inst = UniformRandom::new(m, n).unwrap().generate(200).unwrap();
                metric_row("uniform", &inst)
            }
            Spec::Grid { side, m, n } => {
                let inst = GridNetwork::new(side, side, m, n).unwrap().generate(200).unwrap();
                metric_row("grid", &inst)
            }
            // Line rows: same protocol, exact DP denominator.
            Spec::Line { m, n } => {
                let gen = LineCity::new(m, n).unwrap();
                let layout = gen.layout(200);
                let inst = gen.generate(200).unwrap();
                let out = PayDual::new(PayDualParams::with_phases(phases))
                    .run(&inst, 1)
                    .expect("paydual run");
                let t = out.transcript.expect("distributed run");
                let strawman = SimulatedSeqGreedy::new()
                    .run(&inst, 1)
                    .expect("strawman run")
                    .modeled_rounds
                    .expect("strawman models rounds");
                let opt = distfl_lp::line::solve_line(
                    &layout.facility_pos,
                    &layout.opening,
                    &layout.client_pos,
                );
                vec![
                    "line (exact)".to_owned(),
                    m.to_string(),
                    n.to_string(),
                    t.num_rounds().to_string(),
                    t.total_messages().to_string(),
                    strawman.to_string(),
                    MISSING.to_owned(),
                    num(out.solution.cost(&inst).value() / opt.cost, 3),
                ]
            }
        }
    });
    for row in rows {
        table.push(row);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paydual_rounds_are_constant_and_strawman_grows() {
        let tables = run(true);
        let csv = tables[0].to_csv();
        let rows: Vec<Vec<String>> =
            csv.lines().skip(1).map(|l| l.split(',').map(str::to_owned).collect()).collect();
        let uniform: Vec<&Vec<String>> = rows.iter().filter(|r| r[0] == "uniform").collect();
        assert!(uniform.len() >= 2);
        let pd: Vec<u32> = uniform.iter().map(|r| r[3].parse().unwrap()).collect();
        assert!(pd.windows(2).all(|w| w[0] == w[1]), "paydual rounds vary: {pd:?}");
        let straw: Vec<u32> = uniform.iter().map(|r| r[5].parse().unwrap()).collect();
        assert!(straw.last().unwrap() > straw.first().unwrap(), "strawman rounds flat: {straw:?}");
    }
}
