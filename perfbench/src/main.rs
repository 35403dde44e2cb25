//! `perfbench` — the distfl benchmark: one command per workload that
//! drives the in-process service or sweep, checks every output, and prints
//! its metrics as the last line of standard output.
//!
//! ```text
//! perfbench --workload <wire-tiny|wire-solve|session-churn|sweep>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is the separate
//! traced run that reports the per-layer metrics. See `README.md` beside
//! this package for the workloads, metrics and how to compare commits.

mod check;
mod client;
mod gen;
mod layers;
mod report;
mod serve_wl;
mod stats;
mod sweep_wl;

use std::process::ExitCode;
use std::time::Duration;

use report::Report;

/// The seed kept out of tuning: claims of a gain are re-checked on it.
pub const HELD_OUT_SEED: u64 = 9001;

/// The workloads, by the names later changes refer to. `BENCHMARK.json`
/// lists all but `wire-tiny`, whose microsecond latencies swing more
/// between runs on a shared host than a regression bound can absorb; it
/// runs by hand for serve tail work on a quiet machine.
pub const WORKLOADS: [&str; 4] = ["wire-tiny", "wire-solve", "session-churn", "sweep"];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Seed all inputs are made from.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Available parallelism of this machine.
    pub nproc: usize,
}

impl Options {
    /// The measured interval.
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

const USAGE: &str = "usage: perfbench --workload <wire-tiny|wire-solve|session-churn|sweep> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err("--trace must be 0 or 1".into()),
            },
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

/// Runs one workload.
pub fn run(opts: &Options) -> std::io::Result<Report> {
    match opts.workload.as_str() {
        "wire-tiny" => serve_wl::wire_tiny(opts),
        "wire-solve" => serve_wl::wire_solve(opts),
        "session-churn" => serve_wl::session_churn(opts),
        _ => sweep_wl::sweep(opts),
    }
}

/// Peak resident set size of this process so far, in MB (`VmHWM`; 0
/// where `/proc` is unavailable). Workloads read it when their measured
/// interval ends, before the output checks allocate.
pub fn peak_rss_mb() -> f64 {
    let read = || -> Option<f64> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    };
    read().unwrap_or(0.0)
}

/// A fingerprint of the program source the benchmark was built from
/// (FNV-1a over the workspace manifests and `crates/`, read from the
/// working directory), since the checkout need not be a git repository.
fn source_fingerprint() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut seen = 0;
    for path in &files {
        let Ok(bytes) = std::fs::read(path) else { continue };
        seen += 1;
        for &b in path.to_string_lossy().as_bytes().iter().chain(&bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    if seen == 0 {
        "unknown".into()
    } else {
        format!("src-fnv-{hash:016x}")
    }
}

/// The run-metadata line printed before the result line.
fn meta_line(opts: &Options, report: &Report) -> String {
    let c = serve_wl::server_config(opts.nproc);
    let mut out = format!(
        concat!(
            r#"{{"perfbench": {{"workload": "{}", "seed": {}, "held_out_seed": {}, "seconds": {}, "#,
            r#""trace": {}, "nproc": {}, "rustc": "{}", "commit": "{}", "server_config": "#,
            r#"{{"shards": {}, "workers": {}, "queue_capacity": {}, "max_batch": {}, "#,
            r#""write_buffer_cap": {}, "session_capacity": {}, "reactor": "{:?}"}}"#
        ),
        opts.workload,
        opts.seed,
        HELD_OUT_SEED,
        opts.seconds,
        opts.trace,
        opts.nproc,
        env!("PERFBENCH_RUSTC"),
        source_fingerprint(),
        c.shards,
        c.workers.unwrap_or(0),
        c.queue_capacity,
        c.max_batch,
        c.write_buffer_cap,
        c.session_capacity,
        c.reactor,
    );
    for (key, value) in &report.meta {
        out.push_str(&format!(r#", "{key}": {value}"#));
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", opts.workload);
            return ExitCode::from(1);
        }
    };
    for failure in &report.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    let line = match report.result_line(opts.trace) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    println!("{}", meta_line(&opts, &report));
    println!("{line}");
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {} outputs failed their checks", report.failed);
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_contract_arguments() {
        let o = parse_args(&args("--workload sweep --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!((o.workload.as_str(), o.seed, o.seconds, o.trace), ("sweep", 7, 10.0, true));
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload sweep --seed x --seconds 1 --trace 0",
            "--workload sweep --seed 1 --seconds 0 --trace 0",
            "--workload sweep --seed 1 --seconds 1 --trace 2",
            "--workload sweep --seed 1 --seconds 1",
            "--workload sweep --seed",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    /// A seconds-long run of `workload`: every output check must pass
    /// and the result line must carry the full catalogue.
    fn smoke(workload: &str, trace: bool) {
        let opts = Options {
            workload: workload.into(),
            seed: 3,
            seconds: 1.0,
            trace,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        };
        let report = run(&opts).expect("workload runs");
        assert!(report.correct, "{workload}: {:?}", report.failures);
        assert!(report.attempted > 0 && report.failed == 0, "{workload}");
        let line = report.result_line(trace).expect("every metric measured");
        let catalogue: &[(&str, &str)] =
            if trace { &report::PER_LAYER } else { &report::END_TO_END };
        assert_eq!(line.matches("\"value\"").count(), catalogue.len());
        if !trace {
            for (name, _) in report::END_TO_END {
                assert!(report.get(name) > 0.0, "{workload}: {name} reads 0");
            }
        }
    }

    #[test]
    fn smoke_wire_tiny() {
        smoke("wire-tiny", false);
    }

    #[test]
    fn smoke_wire_solve() {
        smoke("wire-solve", false);
    }

    #[test]
    fn smoke_session_churn() {
        smoke("session-churn", false);
    }

    #[test]
    fn smoke_sweep() {
        smoke("sweep", false);
    }

    #[test]
    fn smoke_traced_session_churn() {
        smoke("session-churn", true);
    }
}
