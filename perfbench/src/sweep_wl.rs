//! The `sweep` workload: the researcher path from generated instance to
//! table, through the in-process `distfl_bench::experiments` library and
//! the discrete-event simulator. No serve code runs.

use std::hint::black_box;
use std::io;
use std::time::{Duration, Instant};

use distfl_bench::experiments::{self, EXACT_LIMIT};
use distfl_bench::Table;
use distfl_congest::{LatencyModel, SimConfig, Transcript};
use distfl_core::greedy::StarGreedy;
use distfl_core::paydual::{PayDual, PayDualParams, SimulatedRun};
use distfl_core::FlAlgorithm;
use distfl_instance::generators::{InstanceGenerator, UniformRandom};
use distfl_instance::Instance;

use crate::check::{self, Tally};
use crate::gen::Rng;
use crate::layers::{self, Traced};
use crate::report::Report;
use crate::stats::{median, percentile};
use crate::Options;

/// Phase counts of the simulated PayDual runs.
const PHASES: [u32; 3] = [4, 8, 16];
/// Times the set-up is repeated per run; `setup_s` is the median.
const SETUP_REPS: usize = 21;

type Experiment = (&'static str, fn(bool) -> Vec<Table>);

/// E1–E10 in `run_all` order, for the serial per-experiment timings.
const EXPERIMENTS: [Experiment; 10] = [
    ("bench.exp_ns.e1", experiments::e1_tradeoff::run),
    ("bench.exp_ns.e2", experiments::e2_locality::run),
    ("bench.exp_ns.e3", experiments::e3_rho::run),
    ("bench.exp_ns.e4", experiments::e4_comparison::run),
    ("bench.exp_ns.e5", experiments::e5_rounding::run),
    ("bench.exp_ns.e6", experiments::e6_congestion::run),
    ("bench.exp_ns.e7", experiments::e7_bucket_ablation::run),
    ("bench.exp_ns.e8", experiments::e8_paydual_ablation::run),
    ("bench.exp_ns.e9", experiments::e9_benchmark::run),
    ("bench.exp_ns.e10", experiments::e10_faults::run),
];

/// The three latency families of the simulator benchmark, ~50 µs each.
fn latency_models() -> [LatencyModel; 3] {
    [
        LatencyModel::Constant(50_000),
        LatencyModel::Uniform { lo: 10_000, hi: 200_000 },
        LatencyModel::LogNormal { median_nanos: 50_000.0, sigma: 1.0 },
    ]
}

/// The simulated half of a pass: nine uniform 30×150 instances, one per
/// `(phases, latency family)` run so `cost_ratio` and the run times
/// average over instances, and the run seed.
struct SimInputs {
    instances: Vec<Instance>,
    seed: u64,
    runs: Vec<(u32, usize, SimConfig)>,
}

impl SimInputs {
    /// What a sweep user sets up before the first table: the simulation
    /// instances and the simulator configurations.
    fn generate(seed: u64) -> SimInputs {
        let mut rng = Rng::new(seed, 4);
        let latency_seed = rng.next_u64();
        let mut instances = Vec::new();
        let mut runs = Vec::new();
        for k in PHASES {
            for latency in latency_models() {
                let instance = UniformRandom::new(30, 150)
                    .and_then(|g| g.generate(rng.next_u64() >> 1))
                    .expect("generator sizes are valid");
                runs.push((
                    k,
                    instances.len(),
                    SimConfig { latency, latency_seed, ..SimConfig::default() },
                ));
                instances.push(instance);
            }
        }
        SimInputs { instances, seed: seed % 1000, runs }
    }

    fn simulate(&self) -> Vec<(SimulatedRun, u64)> {
        self.runs
            .iter()
            .map(|(k, instance, config)| {
                let t = Instant::now();
                let run = PayDual::new(PayDualParams::with_phases(*k))
                    .run_simulated(&self.instances[*instance], self.seed, config.clone())
                    .expect("simulated PayDual runs");
                (run, t.elapsed().as_nanos() as u64)
            })
            .collect()
    }
}

/// The tables' CSV bytes, each preceded by its id.
fn csv(tables: &[Table]) -> String {
    tables.iter().map(|t| format!("# {}\n{}", t.id(), t.to_csv())).collect()
}

/// One pass: E1–E10 on the sweep pool, then the nine simulated runs.
struct Pass {
    seconds: f64,
    run_all_seconds: f64,
    csv: String,
    sims: Vec<(SimulatedRun, u64)>,
}

fn pass(inputs: &SimInputs) -> Pass {
    let t = Instant::now();
    let csv = csv(&experiments::run_all(false));
    let run_all_seconds = t.elapsed().as_secs_f64();
    let sims = inputs.simulate();
    Pass { seconds: t.elapsed().as_secs_f64(), run_all_seconds, csv, sims }
}

/// Runs passes for at least `duration` (at least one), checking each
/// against the first: CSV bytes and simulated transcripts must repeat.
fn passes(inputs: &SimInputs, duration: Duration, tally: &mut Tally) -> (Vec<Pass>, f64) {
    let started = Instant::now();
    let mut done: Vec<Pass> = Vec::new();
    while done.is_empty() || started.elapsed() < duration {
        let p = pass(inputs);
        if let Some(first) = done.first() {
            tally.record(if p.csv == first.csv {
                Ok(())
            } else {
                Err("tables differ between passes".into())
            });
            for (a, b) in p.sims.iter().zip(&first.sims) {
                tally.record(if a.0.outcome.transcript == b.0.outcome.transcript {
                    Ok(())
                } else {
                    Err("simulated transcripts differ between passes".into())
                });
            }
        }
        done.push(p);
    }
    (done, started.elapsed().as_secs_f64())
}

/// The checks on the first pass: its tables must equal a serial pass
/// (`reference_csv`), and every simulated transcript and solution must
/// equal the lock-step engine's. Also returns the mean cost ratio.
fn check_first(inputs: &SimInputs, first: &Pass, reference_csv: &str, tally: &mut Tally) -> f64 {
    tally.record(if first.csv == reference_csv {
        Ok(())
    } else {
        Err("pooled tables differ from a serial pass".into())
    });
    let bounds: Vec<f64> = inputs.instances.iter().map(check::lower_bound).collect();
    let mut ratios = Vec::new();
    for ((k, index, _), (run, _)) in inputs.runs.iter().zip(&first.sims) {
        let instance = &inputs.instances[*index];
        let lockstep = PayDual::new(PayDualParams::with_phases(*k))
            .run(instance, inputs.seed)
            .expect("lock-step PayDual runs");
        let same = run.outcome.transcript == lockstep.transcript
            && run.outcome.solution == lockstep.solution;
        tally.record(if same {
            Ok(())
        } else {
            Err(format!("simulated run at k={k} diverges from the lock-step engine"))
        });
        let cost = run.outcome.solution.cost(instance).value();
        let open: Vec<usize> = run.outcome.solution.open_facilities().map(|i| i.index()).collect();
        tally.record(check::check_answer(instance, &check::Answer { cost, open }, bounds[*index]));
        ratios.push(cost / bounds[*index]);
    }
    distfl_bench::mean(&ratios)
}

/// A serial pass of E1–E10 (no pool workers), each experiment timed.
fn serial_pass(workers: usize) -> (String, Vec<f64>) {
    distfl_bench::set_sweep_workers(0);
    let mut tables = Vec::new();
    let mut nanos = Vec::new();
    for (_, run) in EXPERIMENTS {
        let t = Instant::now();
        tables.extend(run(false));
        nanos.push(t.elapsed().as_nanos() as f64);
    }
    let reference = csv(&tables);
    distfl_bench::set_sweep_workers(workers);
    (reference, nanos)
}

/// `sweep`: repeated passes of E1–E10 plus the simulated PayDual runs.
pub fn sweep(opts: &Options) -> io::Result<Report> {
    let workers = opts.nproc.saturating_sub(1);
    distfl_bench::set_sweep_workers(workers);
    let mut setup = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        inputs = Some(black_box(SimInputs::generate(opts.seed)));
        setup.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("set up at least once");

    let mut report = Report::default();
    report.meta("loop", r#""batch: repeated passes of run_all(false) + 9 simulated PayDual runs""#);
    report.meta("sweep_workers", format!("{workers}"));
    report.meta("simulation", r#""uniform 30x150, k in {4,8,16} x 3 latency families""#);
    let mut tally = Tally::default();

    let (runs, elapsed) = if opts.trace {
        let half = opts.duration() / 2;
        let (untraced, elapsed_u) = passes(&inputs, half, &mut tally);
        let traced = Traced::start();
        let (traced_passes, elapsed_t) = passes(&inputs, half, &mut tally);
        let spans = traced.finish();
        layers::counter_layers(&mut report, spans, traced_passes.len() as f64);
        let secs = |ps: &[Pass]| median(&ps.iter().map(|p| p.seconds).collect::<Vec<_>>());
        let (pass_u, pass_t) =
            (secs(&untraced).unwrap_or(1.0), secs(&traced_passes).unwrap_or(1.0));
        report.set("obs.overhead_share", (pass_t - pass_u) / pass_u);
        let (reference, nanos) = serial_pass(workers);
        for ((name, _), ns) in EXPERIMENTS.iter().zip(&nanos) {
            report.set(name, *ns);
        }
        let run_all_u =
            median(&untraced.iter().map(|p| p.run_all_seconds).collect::<Vec<_>>()).unwrap_or(1.0);
        report.set("pool.sweep_speedup", nanos.iter().sum::<f64>() / 1e9 / run_all_u);
        sim_layers(&mut report, &untraced);
        lower_bound_layer(&mut report, &inputs.instances);
        check_first(&inputs, &untraced[0], &reference, &mut tally);
        let mut runs = untraced;
        runs.extend(traced_passes);
        (runs, elapsed_u + elapsed_t)
    } else {
        let (runs, elapsed) = passes(&inputs, opts.duration(), &mut tally);
        report.set("peak_rss_mb", crate::peak_rss_mb());
        let (reference, _) = serial_pass(workers);
        let cost_ratio = check_first(&inputs, &runs[0], &reference, &mut tally);
        let seconds: Vec<f64> = runs.iter().map(|p| p.seconds).collect();
        // The sweep's requests are its simulated runs, timed by host
        // clock: p50 pools every run; p99 is taken within each pass and
        // the median over passes reported, as too few runs exist for a
        // pooled p99 with ten samples beyond it.
        let pass_ns = |p: &Pass| {
            let mut ns: Vec<u64> = p.sims.iter().map(|s| s.1).collect();
            ns.sort_unstable();
            ns
        };
        let mut all: Vec<u64> = runs.iter().flat_map(pass_ns).collect();
        all.sort_unstable();
        let tails: Vec<f64> = runs
            .iter()
            .map(|p| percentile(&pass_ns(p), 99.0).expect("simulated runs") as f64 / 1e3)
            .collect();
        let sweep_s = median(&seconds).expect("at least one pass");
        report.set("sweep_s", sweep_s);
        // Passes per second at the median pass, so one disturbed pass
        // does not swing it.
        report.set("throughput_rps", 1.0 / sweep_s);
        report.set("p50_us", percentile(&all, 50.0).expect("simulated runs") as f64 / 1e3);
        report.set("p99_us", median(&tails).expect("at least one pass"));
        report.set("cost_ratio", cost_ratio);
        report.set("setup_s", median(&setup).expect("set up at least once"));
        (runs, elapsed)
    };
    report.meta("passes", format!("{}", runs.len()));
    let seconds: Vec<String> = runs.iter().map(|p| format!("{:.3}", p.seconds)).collect();
    report.meta("pass_seconds", format!("[{}]", seconds.join(", ")));
    report.meta("elapsed_s", format!("{elapsed:.3}"));
    report.attempted = runs.len() as u64 * (1 + inputs.runs.len() as u64);
    report.failed = tally.wrong;
    report.correct = tally.wrong == 0;
    report.failures = tally.samples;
    report.set("ok_share", 1.0 - report.failed as f64 / report.attempted as f64);
    Ok(report)
}

/// `congest.sim_*` layers and the transcript means of the simulated runs.
fn sim_layers(report: &mut Report, runs: &[Pass]) {
    let sims: Vec<&(SimulatedRun, u64)> = runs.iter().flat_map(|p| &p.sims).collect();
    let n = sims.len() as f64;
    report.set("congest.sim_ns", sims.iter().map(|(_, ns)| *ns as f64).sum::<f64>() / n);
    report.set(
        "congest.sim_events",
        sims.iter().map(|(r, _)| r.report.events_processed as f64).sum::<f64>() / n,
    );
    let pulses: f64 = sims.iter().map(|(r, _)| r.report.pulse_envelopes as f64).sum();
    let protocol: f64 = sims.iter().map(|(r, _)| r.report.protocol_envelopes as f64).sum();
    report.set("congest.pulse_share", layers::ratio(pulses, pulses + protocol));
    let transcripts: Vec<Transcript> =
        runs[0].sims.iter().filter_map(|(r, _)| r.outcome.transcript.clone()).collect();
    layers::transcript_layers(report, &transcripts);
}

/// `lp.lower_bound_ns`: the certified lower bound of each simulation
/// instance, given the greedy dual the experiments use.
fn lower_bound_layer(report: &mut Report, instances: &[Instance]) {
    let duals: Vec<_> = instances
        .iter()
        .map(|inst| {
            StarGreedy::new().run(inst, 0).expect("greedy runs").dual.expect("greedy emits a dual")
        })
        .collect();
    let pairs: Vec<_> = instances.iter().zip(&duals).collect();
    report.set(
        "lp.lower_bound_ns",
        layers::per_item_ns(&pairs, |(inst, dual)| {
            black_box(distfl_lp::bounds::certified_lower_bound(inst, &[dual], EXACT_LIMIT));
        }),
    );
}
