//! Machine-readable benchmark for the solver portfolio and its
//! auto-routing classifier.
//!
//! Runs every addressable [`SolverKind`] — the sequential baselines, the
//! distributed PayDual and MetricBall protocols, the robust outliers
//! variant, and classifier-driven `auto` — over a matrix of metric and
//! non-metric generator families. Small facility counts keep the *exact*
//! optimum computable by subset enumeration, so the document reports true
//! approximation ratios, not ratios against another heuristic.
//!
//! Every row also asserts the portfolio's correctness contracts, so a
//! number reported here is a number on a *verified* run:
//!
//! * the distributed MetricBall solution is bit-identical to its
//!   sequential reference replay (`metricball::solve_reference`), and the
//!   outliers pipeline to `outliers::solve_reference`;
//! * `auto` resolves metric families to `metricball` and non-metric
//!   families away from it, and its solution equals the routed kind's;
//! * the classifier's allocations per link stay under a budget measured
//!   with the counting global allocator (`src/counting_alloc.rs`), and
//!   `auto`'s routing decision stays under a time budget on 50×500
//!   payloads whose four-point terms mostly tie (line metrics,
//!   shortest-path closures, all-zero costs, shared violations), so
//!   profiling an instance stays cheap enough to run on every `auto`
//!   request.
//!
//! `--smoke` re-runs the assertions and the allocation gate on small
//! instances and exits non-zero on any violation — including a
//! MetricBall approximation ratio above the budget recorded in
//! BENCH_10.json — which is the portfolio regression gate CI runs on
//! every push.
//!
//! Usage: `bench_portfolio [--quick] [--smoke] [--out PATH]`
//! (default `BENCH_10.json`).

use std::time::Instant;

use distfl_core::{metricball, outliers, SolverKind};
use distfl_instance::classify;
use distfl_instance::generators::{
    Clustered, Euclidean, InstanceGenerator, LineCity, Metricized, PowerLaw, UniformRandom,
};
use distfl_instance::{Cost, Instance, InstanceBuilder};

#[path = "../counting_alloc.rs"]
mod alloc;

/// Allocations per link one `classify` call may spend (amortized; the
/// metricity check allocates four or five scratch buffers per call,
/// whatever the size). The committed BENCH_10.json records this value
/// and `--smoke` enforces it.
const CLASSIFY_ALLOCS_PER_LINK_BUDGET: f64 = 1.0;

/// Milliseconds `auto`'s routing decision may take on the 50×500 gate
/// shapes (best of the reps). The min-plus pass costs about a millisecond
/// there; pricing every tied four-point term exactly is the quadruple
/// scan's `O(m²·n²)`, about a second. The committed BENCH_10.json records
/// this value and `--smoke` enforces it.
const ROUTE_MS_BUDGET: f64 = 25.0;

/// Worst acceptable MetricBall approximation ratio on the metric rows
/// (the theory bound is a constant; defaults pin it well under the
/// sequential baselines' worst case). `--smoke` reads the committed
/// value back from BENCH_10.json when present.
const METRICBALL_RATIO_BUDGET: f64 = 6.0;

/// The portfolio under measurement, in report order.
const KINDS: [SolverKind; 7] = [
    SolverKind::Greedy,
    SolverKind::LocalSearch,
    SolverKind::JainVazirani,
    SolverKind::PayDual,
    SolverKind::MetricBall,
    SolverKind::MetricOutliers,
    SolverKind::Auto,
];

/// Fixed solve seed: the document is a deterministic function of the
/// code, so CI diffs are meaningful.
const SEED: u64 = 7;

/// Exact optimum by enumeration over all non-empty facility subsets —
/// viable because the bench keeps `m` small. Subsets that leave a client
/// uncovered are skipped.
fn exact_optimum(instance: &Instance) -> f64 {
    let m = instance.num_facilities();
    assert!(m <= 16, "exact optimum needs a small facility count, got {m}");
    let opening: Vec<f64> =
        instance.facilities().map(|i| instance.opening_cost(i).value()).collect();
    let mut best = f64::INFINITY;
    for mask in 1u32..(1 << m) {
        let mut cost: f64 = (0..m).filter(|&i| mask & (1 << i) != 0).map(|i| opening[i]).sum();
        if cost >= best {
            continue;
        }
        let mut feasible = true;
        for j in instance.clients() {
            let mut cheapest = f64::INFINITY;
            for (i, c) in instance.client_links(j).iter() {
                if mask & (1 << i) != 0 {
                    cheapest = cheapest.min(c);
                }
            }
            if cheapest.is_infinite() {
                feasible = false;
                break;
            }
            cost += cheapest;
            if cost >= best {
                feasible = false;
                break;
            }
        }
        if feasible {
            best = best.min(cost);
        }
    }
    assert!(best.is_finite(), "instance admits no feasible subset");
    best
}

fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        let out = f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        drop(out);
    }
    best
}

/// One benchmark instance: name, payload, and whether the generator
/// family guarantees metric costs (drives the routing assertions).
struct Row {
    name: String,
    instance: Instance,
    metric_family: bool,
}

fn instances(quick: bool) -> Vec<Row> {
    let mut rows = vec![
        Row {
            name: "euclidean_6x40".into(),
            instance: Euclidean::new(6, 40).unwrap().generate(1).unwrap(),
            metric_family: true,
        },
        Row {
            name: "metricized_uniform_8x60".into(),
            instance: Metricized::new(UniformRandom::new(8, 60).unwrap()).generate(2).unwrap(),
            metric_family: true,
        },
        Row {
            name: "uniform_8x60".into(),
            instance: UniformRandom::new(8, 60).unwrap().generate(3).unwrap(),
            metric_family: false,
        },
        Row {
            name: "powerlaw_6x40".into(),
            instance: PowerLaw::new(6, 40, 1e3).unwrap().generate(4).unwrap(),
            metric_family: false,
        },
    ];
    if !quick {
        rows.push(Row {
            name: "metricized_clustered_10x150".into(),
            instance: Metricized::new(Clustered::new(3, 10, 150).unwrap()).generate(5).unwrap(),
            metric_family: true,
        });
        rows.push(Row {
            name: "uniform_12x300".into(),
            instance: UniformRandom::new(12, 300).unwrap().generate(6).unwrap(),
            metric_family: false,
        });
    }
    rows
}

/// A complete `m × n` instance with unit openings and connection costs
/// `cost(facility, client)`.
fn complete(m: usize, n: usize, cost: impl Fn(usize, usize) -> f64) -> Instance {
    let mut b = InstanceBuilder::new();
    let facilities: Vec<_> = (0..m).map(|_| b.add_facility(Cost::new(1.0).unwrap())).collect();
    for j in 0..n {
        let client = b.add_client();
        for (i, &f) in facilities.iter().enumerate() {
            b.link(client, f, Cost::new(cost(i, j)).unwrap()).unwrap();
        }
    }
    b.build().unwrap()
}

/// The routing time gate: the 50×500 wire-solve payload shape over
/// random, Euclidean and tie-heavy costs.
fn route_gate() -> Vec<(&'static str, Instance)> {
    let (m, n) = (50, 500);
    vec![
        ("uniform_50x500", UniformRandom::new(m, n).unwrap().generate(8).unwrap()),
        ("euclidean_50x500", Euclidean::new(m, n).unwrap().generate(8).unwrap()),
        ("line_50x500", LineCity::new(m, n).unwrap().generate(8).unwrap()),
        (
            "metricized_uniform_50x500",
            Metricized::new(UniformRandom::new(m, n).unwrap()).generate(8).unwrap(),
        ),
        ("zero_cost_50x500", complete(m, n, |_, _| 0.0)),
        // A third of the cells violate by the same amount through a
        // third of the pivots: with integer costs the check's arithmetic
        // is exact; with 0.1 and 1.1 pricing the defect would visit
        // nearly every term, which routing never does.
        ("integer_ties_50x500", complete(m, n, |i, j| if (i + j) % 3 == 0 { 10.0 } else { 1.0 })),
        ("decimal_ties_50x500", complete(m, n, |i, j| if (i + j) % 3 == 0 { 1.1 } else { 0.1 })),
    ]
}

/// Pulls one committed budget back out of a BENCH_10.json document (no
/// JSON dependency in-tree; the keys are written by this same binary, so
/// a flat scan is reliable).
fn read_key(path: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let key = format!("\"{key}\":");
    let at = text.find(&key)? + key.len();
    let rest = text[at..].trim_start();
    let end =
        rest.find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-')).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Verifies the PR-2 contracts on one instance: distributed solutions
/// bit-identical to their sequential reference replays, and `auto` equal
/// to the kind it routed to.
fn verify_contracts(instance: &Instance) {
    let ball = SolverKind::MetricBall.solve(instance, SEED).expect("metricball solves");
    let reference = metricball::solve_reference(instance, 6, SEED).expect("reference solves");
    assert_eq!(ball.solution, reference, "metricball diverged from its reference replay");

    let robust = SolverKind::MetricOutliers.solve(instance, SEED).expect("outliers solves");
    let reference =
        outliers::solve_reference(instance, Default::default(), SEED).expect("reference solves");
    assert_eq!(robust.solution, reference, "outliers diverged from reference");

    let routed = SolverKind::Auto.resolve(instance);
    let auto = SolverKind::Auto.solve(instance, SEED).expect("auto solves");
    let direct = routed.solve(instance, SEED).expect("routed kind solves");
    assert_eq!(auto.solution, direct.solution, "auto diverged from its route");
}

fn main() {
    let mut quick = false;
    let mut smoke = false;
    let mut out_path = "BENCH_10.json".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--smoke" => {
                quick = true;
                smoke = true;
            }
            "--out" => match args.next() {
                Some(path) => out_path = path,
                None => {
                    eprintln!("error: --out requires a path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("error: unknown argument '{other}'");
                eprintln!("usage: bench_portfolio [--quick] [--smoke] [--out <path>]");
                std::process::exit(2);
            }
        }
    }
    // Fail on an unwritable output path *before* the measurement.
    if let Err(e) = std::fs::write(&out_path, "{}\n") {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(2);
    }

    let (alloc_budget, ms_budget, ratio_budget) = if smoke {
        (
            read_key("BENCH_10.json", "classify_allocs_per_link_budget")
                .unwrap_or(CLASSIFY_ALLOCS_PER_LINK_BUDGET),
            read_key("BENCH_10.json", "route_ms_budget").unwrap_or(ROUTE_MS_BUDGET),
            read_key("BENCH_10.json", "metricball_ratio_budget").unwrap_or(METRICBALL_RATIO_BUDGET),
        )
    } else {
        (CLASSIFY_ALLOCS_PER_LINK_BUDGET, ROUTE_MS_BUDGET, METRICBALL_RATIO_BUDGET)
    };

    let reps = if quick { 2usize } else { 3 };
    let mut entries = Vec::new();
    let mut worst_classify_allocs = 0.0f64;
    let mut worst_metric_ratio = 0.0f64;
    let mut failed = false;
    for Row { name, instance, metric_family } in instances(quick) {
        verify_contracts(&instance);

        let before = alloc::allocations();
        let profile = classify::classify(&instance);
        let classify_allocs = alloc::allocations() - before;
        let allocs_per_link = classify_allocs as f64 / instance.num_links().max(1) as f64;
        worst_classify_allocs = worst_classify_allocs.max(allocs_per_link);
        let classify_ms = time_best(reps, || classify::classify(&instance));

        // Routing assertions: the classifier must send every
        // metric-family row to the metric specialist and keep every
        // non-metric row away from it.
        let routed = SolverKind::Auto.resolve(&instance);
        if metric_family && routed != SolverKind::MetricBall {
            eprintln!("error: {name} is a metric family but auto routed to {routed}");
            failed = true;
        }
        if !metric_family && routed == SolverKind::MetricBall {
            eprintln!("error: {name} is non-metric but auto routed to metricball");
            failed = true;
        }

        let optimum = exact_optimum(&instance);
        let dropped = outliers::select_outliers(&instance, 0.1);
        let mut kind_entries = Vec::new();
        for kind in KINDS {
            let solve_ms = time_best(reps, || kind.solve(&instance, SEED).unwrap());
            let outcome = kind.solve(&instance, SEED).unwrap();
            let cost = outcome.solution.cost(&instance).value();
            let ratio = cost / optimum;
            if metric_family && kind == SolverKind::MetricBall {
                worst_metric_ratio = worst_metric_ratio.max(ratio);
            }
            let rounds = outcome
                .transcript
                .as_ref()
                .map_or("null".to_owned(), |t| t.num_rounds().to_string());
            // The robust objective of the outliers kind: what it pays on
            // the clients it chose to keep.
            let robust = if kind == SolverKind::MetricOutliers {
                format!("{:.4}", outliers::robust_cost(&instance, &outcome.solution, &dropped))
            } else {
                "null".to_owned()
            };
            kind_entries.push(format!(
                "      {{\"kind\": \"{}\", \"cost\": {cost:.4}, \"ratio\": {ratio:.4}, \
                 \"rounds\": {rounds}, \"robust_cost\": {robust}, \"ms\": {solve_ms:.3}}}",
                kind.name(),
            ));
        }
        eprintln!(
            "{name:<28} {} links, metricity {:?}, auto -> {}, opt {optimum:.3}, \
             classify {allocs_per_link:.2} allocs/link",
            instance.num_links(),
            profile.metricity,
            routed.name(),
        );
        entries.push(format!(
            "    {{\"instance\": \"{name}\", \"facilities\": {}, \"clients\": {}, \
             \"links\": {},\n     \"metric_family\": {metric_family}, \
             \"metricity\": \"{:?}\", \"observed_defect\": {:.6}, \
             \"routed\": \"{}\",\n     \"classify_ms\": {classify_ms:.3}, \
             \"classify_allocs_per_link\": {allocs_per_link:.3},\n     \
             \"exact_optimum\": {optimum:.4},\n     \"kinds\": [\n{}\n    ]}}",
            instance.num_facilities(),
            instance.num_clients(),
            instance.num_links(),
            profile.metricity,
            profile.observed_defect,
            routed.name(),
            kind_entries.join(",\n"),
        ));
    }

    let mut worst_route_ms = 0.0f64;
    let mut gate_entries = Vec::new();
    for (name, instance) in route_gate() {
        let before = alloc::allocations();
        let routed = SolverKind::Auto.resolve(&instance);
        let allocs_per_link =
            (alloc::allocations() - before) as f64 / instance.num_links().max(1) as f64;
        worst_classify_allocs = worst_classify_allocs.max(allocs_per_link);
        let route_ms = time_best(reps, || SolverKind::Auto.resolve(&instance));
        worst_route_ms = worst_route_ms.max(route_ms);
        eprintln!(
            "{name:<28} route {route_ms:.3} ms -> {}, {allocs_per_link:.3} allocs/link",
            routed.name()
        );
        gate_entries.push(format!(
            "    {{\"instance\": \"{name}\", \"links\": {}, \"routed\": \"{}\", \
             \"route_ms\": {route_ms:.3}, \"route_allocs_per_link\": {allocs_per_link:.3}}}",
            instance.num_links(),
            routed.name(),
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"solver_portfolio\",\n  \"mode\": \"{}\",\n  \
         \"seed\": {SEED},\n  \
         \"baseline\": \"exact optimum by facility-subset enumeration; distributed \
         kinds verified bit-identical to their sequential reference replays\",\n  \
         \"classify_allocs_per_link_budget\": {CLASSIFY_ALLOCS_PER_LINK_BUDGET},\n  \
         \"route_ms_budget\": {ROUTE_MS_BUDGET},\n  \
         \"metricball_ratio_budget\": {METRICBALL_RATIO_BUDGET},\n  \
         \"results\": [\n{}\n  ],\n  \"route_gate\": [\n{}\n  ]\n}}\n",
        if smoke {
            "smoke"
        } else if quick {
            "quick"
        } else {
            "full"
        },
        entries.join(",\n"),
        gate_entries.join(",\n")
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(2);
    }
    println!("{json}");
    eprintln!("wrote {out_path}");

    if smoke {
        for (what, worst, budget) in [
            ("classify allocations per link", worst_classify_allocs, alloc_budget),
            ("auto routing milliseconds on the 50x500 gate", worst_route_ms, ms_budget),
            ("metricball ratio on metric instances", worst_metric_ratio, ratio_budget),
        ] {
            if worst > budget {
                eprintln!("error: {what} {worst:.3} exceed the budget {budget}");
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
