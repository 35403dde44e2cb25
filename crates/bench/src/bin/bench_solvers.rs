//! Machine-readable benchmark for the sequential solver hot paths.
//!
//! Measures the incremental implementations against the retained naive
//! references on identical inputs — lazy-heap star greedy vs the
//! per-iteration full rescan, cached-assignment local search vs the full
//! re-pricing of every candidate move, and the event-driven Jain–Vazirani
//! dual ascent vs the per-round scan over all links — across generator
//! families and OR-Library-shaped dense sizes. Every comparison also
//! asserts the outputs are identical, so a speedup reported here is a
//! speedup on the *same* answer. Emits a single JSON document so CI and
//! EXPERIMENTS.md baselines can diff runs mechanically.
//!
//! The document records allocation budgets for all three hot paths:
//! `greedy_allocs_per_iter_budget` (amortized heap allocations per greedy
//! iteration), `ls_allocs_per_move_budget` (per local-search move), and
//! `jv_allocs_per_client_budget` (per client of the JV dual ascent).
//! `--smoke` re-measures on small instances and exits non-zero if any
//! budget (read back from BENCH_2.json when present) is exceeded — the
//! allocation regression gate CI runs on every push.
//!
//! Usage: `bench_solvers [--quick] [--smoke] [--out PATH]`
//! (default `BENCH_2.json`).

use std::time::Instant;

use distfl_core::{greedy, jv, localsearch};
use distfl_instance::generators::{Clustered, InstanceGenerator, LineCity, UniformRandom};
use distfl_instance::Instance;

#[path = "../counting_alloc.rs"]
mod alloc;

/// Amortized allocations per greedy iteration the fast path must stay
/// under (whole-call allocations divided by iterations, so the one-time
/// CSR/heap setup is included). The committed BENCH_2.json records this
/// value and `--smoke` enforces it.
const GREEDY_ALLOCS_PER_ITER_BUDGET: f64 = 16.0;

/// Amortized allocations per accepted local-search move (whole-call
/// allocations divided by moves, so the once-per-call cache and candidate
/// buffers are included). Guards the hoisted-pricing rework: a per-round
/// or per-candidate allocation sneaking back in blows this immediately.
const LS_ALLOCS_PER_MOVE_BUDGET: f64 = 32.0;

/// Amortized allocations per client for one JV dual ascent (whole-call
/// allocations divided by clients). The event loop reuses its sorted
/// lanes, linear forms, and candidate buffers, so the per-client share of
/// the setup is small and must stay that way.
const JV_ALLOCS_PER_CLIENT_BUDGET: f64 = 4.0;

/// Local-search move cap: both implementations run under the same cap, so
/// the comparison stays apples-to-apples even on instances whose descent
/// is long.
const LS_MOVES: u32 = 4;

/// One timed comparison: milliseconds for each implementation (best of
/// `reps`) plus the speedup.
struct Timing {
    fast_ms: f64,
    reference_ms: f64,
}

impl Timing {
    fn speedup(&self) -> f64 {
        self.reference_ms / self.fast_ms
    }
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

/// Greedy comparison: verifies bit-identical runs, then times both and
/// profiles the fast path's allocations per iteration.
fn bench_greedy(inst: &Instance, reps: usize) -> (Timing, u32, f64) {
    let fast = greedy::solve_detailed(inst);
    let slow = greedy::solve_detailed_reference(inst);
    assert_eq!(fast.solution, slow.solution, "lazy greedy diverged from reference");
    assert_eq!(fast.ratios, slow.ratios, "lazy greedy ratios diverged");
    assert_eq!(fast.iterations, slow.iterations, "lazy greedy iteration count diverged");

    let before = alloc::allocations();
    let run = greedy::solve_detailed(inst);
    let allocs = alloc::allocations() - before;
    let allocs_per_iter = allocs as f64 / f64::from(run.iterations.max(1));

    let timing = Timing {
        fast_ms: time_best(reps, || greedy::solve_detailed(inst)),
        reference_ms: time_best(reps, || greedy::solve_detailed_reference(inst)),
    };
    (timing, run.iterations, allocs_per_iter)
}

/// Local-search comparison from the greedy solution, verified identical,
/// with the fast path's allocations per accepted move.
fn bench_local_search(inst: &Instance, reps: usize) -> (Timing, u32, f64) {
    let (start, _) = greedy::solve(inst);
    let fast = localsearch::optimize(inst, &start, LS_MOVES);
    let slow = localsearch::optimize_reference(inst, &start, LS_MOVES);
    assert_eq!(fast, slow, "cached local search diverged from reference");

    let before = alloc::allocations();
    let run = localsearch::optimize(inst, &start, LS_MOVES);
    let allocs = alloc::allocations() - before;
    let allocs_per_move = allocs as f64 / f64::from(run.moves.max(1));

    let timing = Timing {
        fast_ms: time_best(reps, || localsearch::optimize(inst, &start, LS_MOVES)),
        reference_ms: time_best(reps, || localsearch::optimize_reference(inst, &start, LS_MOVES)),
    };
    (timing, fast.moves, allocs_per_move)
}

/// Jain–Vazirani phase-1 comparison, verified identical, with the fast
/// path's allocations per client.
fn bench_jv(inst: &Instance, reps: usize) -> (Timing, f64) {
    let fast = jv::dual_ascent(inst);
    let slow = jv::dual_ascent_reference(inst);
    assert_eq!(fast.alpha, slow.alpha, "event-driven ascent diverged from reference");
    assert_eq!(fast.temp_open, slow.temp_open, "ascent opening order diverged");

    let before = alloc::allocations();
    let run = jv::dual_ascent(inst);
    let allocs = alloc::allocations() - before;
    let allocs_per_client = allocs as f64 / inst.num_clients().max(1) as f64;
    drop(run);

    let timing = Timing {
        fast_ms: time_best(reps, || jv::dual_ascent(inst)),
        reference_ms: time_best(reps, || jv::dual_ascent_reference(inst)),
    };
    (timing, allocs_per_client)
}

fn json_timing(t: &Timing) -> String {
    format!(
        "{{\"fast_ms\": {:.3}, \"reference_ms\": {:.3}, \"speedup\": {:.3}}}",
        t.fast_ms,
        t.reference_ms,
        t.speedup()
    )
}

/// Pulls one committed allocation budget back out of a BENCH_2.json
/// document (no JSON dependency in-tree; the keys are written by this
/// same binary, so a flat scan is reliable).
fn read_key(path: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let key = format!("\"{key}\":");
    let at = text.find(&key)? + key.len();
    let rest = text[at..].trim_start();
    let end =
        rest.find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-')).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn instances(quick: bool) -> Vec<(String, Instance)> {
    let mk_uniform = |m: usize, n: usize, seed: u64| -> Instance {
        UniformRandom::new(m, n).unwrap().generate(seed).unwrap()
    };
    if quick {
        vec![
            ("uniform_10x50".into(), mk_uniform(10, 50, 1)),
            ("clustered_3x12x80".into(), Clustered::new(3, 12, 80).unwrap().generate(2).unwrap()),
            ("line_12x80".into(), LineCity::new(12, 80).unwrap().generate(3).unwrap()),
            // cap71..74 shape from the OR-Library: 16 facilities, 50 clients.
            ("cap74_shaped_16x50".into(), mk_uniform(16, 50, 4)),
        ]
    } else {
        vec![
            ("uniform_20x200".into(), mk_uniform(20, 200, 1)),
            ("clustered_5x30x400".into(), Clustered::new(5, 30, 400).unwrap().generate(2).unwrap()),
            ("line_40x400".into(), LineCity::new(40, 400).unwrap().generate(3).unwrap()),
            // cap71..74 shape from the OR-Library: 16 facilities, 50 clients.
            ("cap74_shaped_16x50".into(), mk_uniform(16, 50, 4)),
            // capb shape from the OR-Library: 100 facilities, 1000 clients.
            ("capb_shaped_100x1000".into(), mk_uniform(100, 1000, 5)),
        ]
    }
}

fn main() {
    let mut quick = false;
    let mut smoke = false;
    let mut out_path = "BENCH_2.json".to_owned();
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
                eprintln!("usage: bench_solvers [--quick] [--smoke] [--out <path>]");
                std::process::exit(2);
            }
        }
    }
    // Fail on an unwritable output path *before* minutes of measurement.
    if let Err(e) = std::fs::write(&out_path, "{}\n") {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(2);
    }

    // The smoke gate compares against the committed baseline's budgets
    // when available, so tightening BENCH_2.json tightens CI with it.
    let (g_budget, ls_budget, jv_budget) = if smoke {
        (
            read_key("BENCH_2.json", "greedy_allocs_per_iter_budget")
                .unwrap_or(GREEDY_ALLOCS_PER_ITER_BUDGET),
            read_key("BENCH_2.json", "ls_allocs_per_move_budget")
                .unwrap_or(LS_ALLOCS_PER_MOVE_BUDGET),
            read_key("BENCH_2.json", "jv_allocs_per_client_budget")
                .unwrap_or(JV_ALLOCS_PER_CLIENT_BUDGET),
        )
    } else {
        (GREEDY_ALLOCS_PER_ITER_BUDGET, LS_ALLOCS_PER_MOVE_BUDGET, JV_ALLOCS_PER_CLIENT_BUDGET)
    };

    let reps = if quick { 2usize } else { 3 };
    let mut entries = Vec::new();
    let mut worst_greedy = 0.0f64;
    let mut worst_ls = 0.0f64;
    let mut worst_jv = 0.0f64;
    for (name, inst) in instances(quick) {
        let (g_timing, iterations, allocs_per_iter) = bench_greedy(&inst, reps);
        let (ls_timing, moves, allocs_per_move) = bench_local_search(&inst, reps);
        let (jv_timing, allocs_per_client) = bench_jv(&inst, reps);
        worst_greedy = worst_greedy.max(allocs_per_iter);
        worst_ls = worst_ls.max(allocs_per_move);
        worst_jv = worst_jv.max(allocs_per_client);
        eprintln!(
            "{name:<24} greedy {:>7.2}x ({} iters, {allocs_per_iter:.1} allocs/iter)  \
             local-search {:>7.2}x ({moves} moves, {allocs_per_move:.1} allocs/move)  \
             jv-ascent {:>7.2}x ({allocs_per_client:.2} allocs/client)",
            g_timing.speedup(),
            iterations,
            ls_timing.speedup(),
            jv_timing.speedup(),
        );
        entries.push(format!(
            "    {{\"instance\": \"{name}\", \"facilities\": {}, \"clients\": {}, \
             \"links\": {},\n     \"greedy\": {},\n     \
             \"greedy_iterations\": {iterations}, \"greedy_allocs_per_iter\": \
             {allocs_per_iter:.2},\n     \"local_search\": {},\n     \
             \"local_search_moves\": {moves}, \"local_search_allocs_per_move\": \
             {allocs_per_move:.2},\n     \"jv_dual_ascent\": {},\n     \
             \"jv_allocs_per_client\": {allocs_per_client:.2}}}",
            inst.num_facilities(),
            inst.num_clients(),
            inst.num_links(),
            json_timing(&g_timing),
            json_timing(&ls_timing),
            json_timing(&jv_timing),
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"solver_hot_paths\",\n  \"mode\": \"{}\",\n  \
         \"baseline\": \"retained naive references: full-rescan greedy, \
         full-repricing local search (both capped at {LS_MOVES} moves), \
         per-round link-scan JV dual ascent\",\n  \
         \"greedy_allocs_per_iter_budget\": {GREEDY_ALLOCS_PER_ITER_BUDGET},\n  \
         \"ls_allocs_per_move_budget\": {LS_ALLOCS_PER_MOVE_BUDGET},\n  \
         \"jv_allocs_per_client_budget\": {JV_ALLOCS_PER_CLIENT_BUDGET},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        if smoke {
            "smoke"
        } else if quick {
            "quick"
        } else {
            "full"
        },
        entries.join(",\n")
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(2);
    }
    println!("{json}");
    eprintln!("wrote {out_path}");

    if smoke {
        let mut failed = false;
        for (what, worst, budget) in [
            ("greedy allocations per iteration", worst_greedy, g_budget),
            ("local-search allocations per move", worst_ls, ls_budget),
            ("jv allocations per client", worst_jv, jv_budget),
        ] {
            if worst > budget {
                eprintln!("error: {what} {worst:.2} exceed the budget {budget}");
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
