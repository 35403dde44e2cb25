//! `distfl` — command-line front end.
//!
//! ```text
//! distfl generate <family> [-m M] [-n N] [--seed S] [--rho R] [--clusters C]
//!                 [--rows R --cols C --radius H] -o FILE
//! distfl info FILE
//! distfl solve FILE --algo ALGO [--phases P] [--outer O --inner I]
//!              [--seed S] [--polish]
//! distfl evaluate FILE [--seed S]
//! distfl kmedian FILE -k K [--distributed] [--phases P] [--seed S]
//! ```
//!
//! Families: uniform, euclidean, clustered, grid, powerlaw, adversarial,
//! cdn. Algorithms: paydual, bucket, greedy, jv, mp, seqsim, seqreal.
//! Instance files
//! use the plain-text format of `distfl::instance::textio`; OR-Library
//! benchmark files are detected and read automatically.

use std::collections::HashMap;
use std::process::ExitCode;

use distfl::core::kmedian;
use distfl::instance::{metric, orlib, spread, textio};
use distfl::prelude::*;

/// Parsed command-line options: positional arguments plus `--key value`
/// pairs (bare `--flag` stores an empty value).
struct Opts {
    positional: Vec<String>,
    named: HashMap<String, String>,
}

impl Opts {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut positional = Vec::new();
        let mut named = HashMap::new();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                let value = match iter.peek() {
                    Some(next) if !next.starts_with("--") => iter.next().unwrap_or_default(),
                    _ => String::new(),
                };
                named.insert(key.to_owned(), value);
            } else if let Some(key) = arg.strip_prefix('-') {
                let value = iter.next().ok_or_else(|| format!("option -{key} needs a value"))?;
                named.insert(key.to_owned(), value);
            } else {
                positional.push(arg);
            }
        }
        Ok(Opts { positional, named })
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.named.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| format!("invalid value '{raw}' for --{key}")),
        }
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.named
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required option: {key}"))
    }

    fn flag(&self, key: &str) -> bool {
        self.named.contains_key(key)
    }
}

fn generate(opts: &Opts) -> Result<(), String> {
    let family =
        opts.positional.get(1).ok_or("usage: distfl generate <family> [options] -o FILE")?.as_str();
    let m: usize = opts.get("m", 10)?;
    let n: usize = opts.get("n", 50)?;
    let seed: u64 = opts.get("seed", 0)?;
    let gen: Box<dyn InstanceGenerator> = match family {
        "uniform" => Box::new(UniformRandom::new(m, n).map_err(|e| e.to_string())?),
        "euclidean" => Box::new(Euclidean::new(m, n).map_err(|e| e.to_string())?),
        "clustered" => {
            let clusters: usize = opts.get("clusters", 3)?;
            Box::new(Clustered::new(clusters, m, n).map_err(|e| e.to_string())?)
        }
        "grid" => {
            let rows: usize = opts.get("rows", 12)?;
            let cols: usize = opts.get("cols", 12)?;
            let radius: usize = opts.get("radius", (rows + cols).div_ceil(4))?;
            Box::new(GridNetwork::with_radius(rows, cols, m, n, radius).map_err(|e| e.to_string())?)
        }
        "powerlaw" => {
            let rho: f64 = opts.get("rho", 1e4)?;
            Box::new(PowerLaw::new(m, n, rho).map_err(|e| e.to_string())?)
        }
        "adversarial" => Box::new(AdversarialGreedy::new(n).map_err(|e| e.to_string())?),
        "cdn" => Box::new(CdnTrace::new(m, n).map_err(|e| e.to_string())?),
        other => return Err(format!("unknown family '{other}'")),
    };
    let inst = gen.generate(seed).map_err(|e| e.to_string())?;
    let out = opts.require("o")?;
    let body = match opts.named.get("format").map(String::as_str) {
        Some("orlib") => orlib::to_string(&inst).map_err(|e| e.to_string())?,
        Some("text") | None => textio::to_string(&inst),
        Some(other) => return Err(format!("unknown format '{other}'")),
    };
    std::fs::write(out, body).map_err(|e| e.to_string())?;
    println!(
        "wrote {}: {} facilities, {} clients, {} links",
        out,
        inst.num_facilities(),
        inst.num_clients(),
        inst.num_links()
    );
    Ok(())
}

fn load(opts: &Opts) -> Result<Instance, String> {
    let path = opts.positional.get(1).ok_or("missing instance file argument")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    // Native format first; fall back to the OR-Library benchmark format.
    match textio::from_str(&text) {
        Ok(inst) => Ok(inst),
        Err(native_err) => orlib::from_str(&text).map_err(|orlib_err| {
            format!("not a distfl instance ({native_err}) nor OR-Library ({orlib_err})")
        }),
    }
}

fn info(opts: &Opts) -> Result<(), String> {
    let inst = load(opts)?;
    println!("facilities     : {}", inst.num_facilities());
    println!("clients        : {}", inst.num_clients());
    println!("links          : {} (complete: {})", inst.num_links(), inst.is_complete());
    println!("max degree     : {}", inst.max_degree());
    println!("spread rho     : {:.3e}", spread::coefficient_spread(&inst));
    println!("phase factor   : gamma(s=8) = {:.3}", spread::phase_factor(&inst, 8));
    // Printed to six decimals: a defect the slack bound already puts
    // below 4e-7 of the largest link cost prints as zero without the
    // exact pricing, whose worst case is the quadruple scan's.
    let max_link =
        inst.clients().flat_map(|j| inst.client_links(j).costs.iter().copied()).fold(0.0, f64::max);
    let shown = if metric::is_metric(&inst, 4e-7 * max_link) {
        0.0
    } else {
        metric::relative_defect(&inst)
    };
    println!("metric defect  : {shown:.6}");
    println!("trivial LB     : {:.3}", bounds::trivial_lower_bound(&inst));
    if inst.num_facilities() <= 20 {
        let opt = exact::solve(&inst).map_err(|e| e.to_string())?;
        println!("exact optimum  : {:.3} ({} open)", opt.cost.value(), opt.solution.num_open());
    }
    Ok(())
}

fn solve(opts: &Opts) -> Result<(), String> {
    let inst = load(opts)?;
    let seed: u64 = opts.get("seed", 0)?;
    let algo_name = opts.require("algo")?;
    let phases: u32 = opts.get("phases", 8)?;
    let algo: Box<dyn FlAlgorithm> = match algo_name {
        "paydual" => Box::new(PayDual::new(PayDualParams::with_phases(phases))),
        "bucket" => {
            let outer: u32 = opts.get("outer", 6)?;
            let inner: u32 = opts.get("inner", 4)?;
            Box::new(GreedyBucket::new(BucketParams::new(outer, inner)))
        }
        "greedy" => Box::new(StarGreedy::new()),
        "jv" => Box::new(JainVazirani::new()),
        "mp" => Box::new(MettuPlaxton::new()),
        "seqsim" => Box::new(SimulatedSeqGreedy::new()),
        "seqreal" => Box::new(DistSeqGreedy::new()),
        other => return Err(format!("unknown algorithm '{other}'")),
    };
    let reports = evaluate(&inst, &[algo.as_ref()], seed, 20).map_err(|e| e.to_string())?;
    println!("{}", RunReport::table_header());
    for r in &reports {
        println!("{}", r.table_row());
    }
    if opts.flag("polish") {
        let outcome = algo.run(&inst, seed).map_err(|e| e.to_string())?;
        let run = distfl::core::localsearch::optimize(&inst, &outcome.solution, 500);
        println!(
            "after local search: cost {:.3} ({} moves, converged: {})",
            run.final_cost, run.moves, run.converged
        );
    }
    Ok(())
}

fn evaluate_cmd(opts: &Opts) -> Result<(), String> {
    let inst = load(opts)?;
    let seed: u64 = opts.get("seed", 0)?;
    let paydual8 = PayDual::new(PayDualParams::with_phases(8));
    let paydual24 = PayDual::new(PayDualParams::with_phases(24));
    let bucket = GreedyBucket::new(BucketParams::new(6, 4));
    let greedy = StarGreedy::new();
    let strawman = SimulatedSeqGreedy::new();
    let mut algos: Vec<&dyn FlAlgorithm> = vec![&paydual8, &paydual24, &bucket, &greedy, &strawman];
    // One metricity check for both baselines, which then skip their own.
    let jv = JainVazirani::unchecked();
    let mp = MettuPlaxton::unchecked();
    if metric::is_metric(&inst, 1e-6) {
        algos.push(&jv);
        algos.push(&mp);
    }
    let reports = evaluate(&inst, &algos, seed, 20).map_err(|e| e.to_string())?;
    println!("{}", RunReport::table_header());
    for r in &reports {
        println!("{}", r.table_row());
    }
    Ok(())
}

fn kmedian_cmd(opts: &Opts) -> Result<(), String> {
    let inst = load(opts)?;
    let k: usize = opts.get("k", 0)?;
    if k == 0 {
        return Err("missing or invalid -k".to_owned());
    }
    let seed: u64 = opts.get("seed", 0)?;
    let result = if opts.flag("distributed") {
        let phases: u32 = opts.get("phases", 10)?;
        kmedian::distributed(&inst, k, phases, seed).map_err(|e| e.to_string())?
    } else {
        kmedian::sequential(&inst, k).map_err(|e| e.to_string())?
    };
    println!(
        "k-median (k={k}): connection cost {:.3}, {} centers, {} probes",
        result.connection_cost,
        result.solution.num_open(),
        result.probes
    );
    for center in result.solution.open_facilities() {
        println!("  center {center}");
    }
    Ok(())
}

fn dispatch(args: Vec<String>) -> Result<(), String> {
    let opts = Opts::parse(args)?;
    match opts.positional.first().map(String::as_str) {
        Some("generate") => generate(&opts),
        Some("info") => info(&opts),
        Some("solve") => solve(&opts),
        Some("evaluate") => evaluate_cmd(&opts),
        Some("kmedian") => kmedian_cmd(&opts),
        Some(other) => Err(format!("unknown command '{other}'")),
        None => Err("usage: distfl <generate|info|solve|evaluate|kmedian> ...".to_owned()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn opts_parser_handles_mixed_forms() {
        let o = Opts::parse(args("solve file.fl --algo paydual --phases 12 -k 3 --distributed"))
            .unwrap();
        assert_eq!(o.positional, vec!["solve", "file.fl"]);
        assert_eq!(o.require("algo").unwrap(), "paydual");
        assert_eq!(o.get::<u32>("phases", 0).unwrap(), 12);
        assert_eq!(o.get::<usize>("k", 0).unwrap(), 3);
        assert!(o.flag("distributed"));
        assert!(!o.flag("bogus"));
        assert_eq!(o.get::<u64>("seed", 7).unwrap(), 7);
    }

    #[test]
    fn opts_parser_reports_bad_values() {
        let o = Opts::parse(args("solve --phases abc")).unwrap();
        assert!(o.get::<u32>("phases", 0).is_err());
        assert!(o.require("missing").is_err());
    }

    #[test]
    fn dispatch_rejects_unknown_commands() {
        assert!(dispatch(args("frobnicate")).is_err());
        assert!(dispatch(Vec::new()).is_err());
    }

    #[test]
    fn generate_info_solve_round_trip() {
        let dir = std::env::temp_dir().join("distfl-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("inst.fl");
        let file_str = file.to_str().unwrap().to_owned();
        dispatch(args(&format!("generate uniform -m 6 -n 20 --seed 3 -o {file_str}"))).unwrap();
        dispatch(args(&format!("info {file_str}"))).unwrap();
        dispatch(args(&format!("solve {file_str} --algo paydual --phases 6"))).unwrap();
        dispatch(args(&format!("solve {file_str} --algo greedy"))).unwrap();
        dispatch(args(&format!("solve {file_str} --algo paydual --phases 4 --polish"))).unwrap();
        dispatch(args(&format!("evaluate {file_str}"))).unwrap();
        std::fs::remove_file(&file).unwrap();
    }

    #[test]
    fn kmedian_commands_work_on_complete_instances() {
        let dir = std::env::temp_dir().join("distfl-cli-test-km");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("km.fl");
        let file_str = file.to_str().unwrap().to_owned();
        dispatch(args(&format!("generate euclidean -m 6 -n 18 --seed 2 -o {file_str}"))).unwrap();
        dispatch(args(&format!("kmedian {file_str} -k 2"))).unwrap();
        dispatch(args(&format!("kmedian {file_str} -k 2 --distributed --phases 6"))).unwrap();
        std::fs::remove_file(&file).unwrap();
    }
}
