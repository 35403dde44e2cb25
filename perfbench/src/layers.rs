//! Per-layer measurement for the traced run: timing calls into each
//! layer's public functions from the benchmark's own code, and reading the
//! `distfl_obs` counters and spans the program already emits.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use distfl_core::SolverKind;
use distfl_instance::Instance;
use distfl_serve::frame::LineFramer;
use distfl_serve::proto;
use distfl_serve::session::SessionCache;

use crate::report::Report;
use crate::stats::{median, percentile};

/// Least time one layer measurement repeats for.
const MIN_TIME: Duration = Duration::from_millis(40);

/// Mean nanoseconds per item of `f` over `items`: the whole set is timed
/// repeatedly (at least three passes and [`MIN_TIME`]) and the median
/// pass reported.
pub fn per_item_ns<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < 3 || started.elapsed() < MIN_TIME {
        let t = Instant::now();
        for item in items {
            f(item);
        }
        passes.push(t.elapsed().as_nanos() as f64 / items.len() as f64);
    }
    median(&passes).unwrap_or(0.0)
}

/// Records `serve.frame_ns` and `serve.parse_ns` over the exact request
/// bytes of a workload.
pub fn frame_and_parse(report: &mut Report, lines: &[String]) {
    let mut wire = Vec::new();
    for line in lines {
        wire.extend_from_slice(line.as_bytes());
        wire.push(b'\n');
    }
    // Fed in the reactor's read-burst size, as one connection's stream.
    let chunks: Vec<&[u8]> = wire.chunks(256 * 1024).collect();
    let frame = per_item_ns(&[()], |_| {
        let mut framer = LineFramer::new(16 * 1024 * 1024);
        let mut seen = 0usize;
        for chunk in &chunks {
            framer.feed(chunk, &mut |framed| {
                black_box(framed);
                seen += 1;
            });
        }
        assert_eq!(seen, lines.len(), "the framer finds every line");
    });
    report.set("serve.frame_ns", frame / lines.len() as f64);
    report.set(
        "serve.parse_ns",
        per_item_ns(lines, |line| {
            black_box(proto::parse_line(line).ok());
        }),
    );
}

/// Records `instance.orlib_ns` (per payload) and
/// `instance.orlib_ns_per_kb` for OR-Library `payloads`.
pub fn orlib_layers(report: &mut Report, payloads: &[String]) {
    let ns = per_item_ns(payloads, |p| {
        black_box(distfl_instance::orlib::from_str(p).expect("valid payload"));
    });
    let kb = payloads.iter().map(|p| p.len() as f64 / 1024.0).sum::<f64>();
    report.set("instance.orlib_ns", ns);
    report.set("instance.orlib_ns_per_kb", ns * payloads.len() as f64 / kb);
}

/// Nanoseconds of each `scheduler::execute` call replaying `lines` in
/// order on a private session cache, `reps` times over.
pub fn execute_samples(lines: &[String], reps: usize) -> Vec<u64> {
    let mut samples = Vec::with_capacity(lines.len() * reps);
    for _ in 0..reps {
        let sessions = SessionCache::new(4);
        for line in lines {
            let t = Instant::now();
            black_box(crate::check::replay(line, &sessions));
            samples.push(t.elapsed().as_nanos() as u64);
        }
    }
    samples
}

/// Records the execute distribution and the reconciliation against the
/// end-to-end median latency `e2e_p50_ns` (untraced).
pub fn attribute(report: &mut Report, mut execute: Vec<u64>, e2e_p50_ns: f64) {
    execute.sort_unstable();
    let p50 = percentile(&execute, 50.0).unwrap_or(0) as f64;
    report.set("serve.execute_ns.p50", p50);
    report.set("serve.execute_ns.p99", percentile(&execute, 99.0).unwrap_or(0) as f64);
    let framed = report.get("serve.frame_ns") + report.get("serve.parse_ns");
    report.set("serve.unattributed_us", (e2e_p50_ns - framed - p50) / 1e3);
    report.set("serve.attributed_share", if e2e_p50_ns > 0.0 { p50 / e2e_p50_ns } else { 0.0 });
}

/// The per-kind solve metric name.
pub fn solve_metric(kind: SolverKind) -> &'static str {
    match kind {
        SolverKind::Greedy => "core.solve_ns.greedy",
        SolverKind::LocalSearch => "core.solve_ns.local-search",
        SolverKind::JainVazirani => "core.solve_ns.jv",
        SolverKind::PayDual => "core.solve_ns.paydual",
        SolverKind::MetricBall => "core.solve_ns.metricball",
        SolverKind::MetricOutliers => "core.solve_ns.outliers",
        SolverKind::Auto => "core.solve_ns.auto",
    }
}

/// The per-kind warm solve metric name (only the kinds sessions serve).
pub fn warm_metric(kind: SolverKind) -> &'static str {
    match kind {
        SolverKind::Greedy => "core.warm_solve_ns.greedy",
        SolverKind::LocalSearch => "core.warm_solve_ns.local-search",
        _ => "core.warm_solve_ns.jv",
    }
}

/// Records `core.solve_ns.<kind>` for each kind over `instances`, and the
/// mean CONGEST transcript of the distributed solves among them.
pub fn solve_layers(report: &mut Report, instances: &[Instance], kinds: &[SolverKind], seed: u64) {
    let mut transcripts = Vec::new();
    for &kind in kinds {
        let ns = per_item_ns(instances, |inst| {
            black_box(kind.solve(inst, seed).expect("workload instances solve"));
        });
        report.set(solve_metric(kind), ns);
        for inst in instances {
            if let Some(t) = kind.solve(inst, seed).expect("workload instances solve").transcript {
                transcripts.push(t);
            }
        }
    }
    transcript_layers(report, &transcripts);
}

/// Records the mean rounds, messages and bits of distributed runs.
pub fn transcript_layers(report: &mut Report, transcripts: &[distfl_congest::Transcript]) {
    if transcripts.is_empty() {
        return;
    }
    let n = transcripts.len() as f64;
    let mean = |f: &dyn Fn(&distfl_congest::Transcript) -> u64| {
        transcripts.iter().map(|t| f(t) as f64).sum::<f64>() / n
    };
    report.set("congest.rounds", mean(&|t| u64::from(t.num_rounds())));
    report.set("congest.messages", mean(&|t| t.total_messages()));
    report.set("congest.bits", mean(&|t| t.total_bits()));
}

/// Sums of the engine's stage spans seen while tracing was on.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanSums {
    /// Engine rounds (`engine/round` spans).
    pub rounds: u64,
    /// Node-step time, fused rounds included (ns).
    pub step_ns: u64,
    /// Delivery time (ns).
    pub deliver_ns: u64,
    /// Events the per-thread rings overwrote before a drain.
    pub dropped: u64,
}

impl SpanSums {
    fn add(&mut self, snap: &distfl_obs::Snapshot) {
        for e in &snap.events {
            match (e.cat, e.name) {
                ("engine", "round") => self.rounds += 1,
                ("engine", "stage.step" | "stage.fused") => self.step_ns += e.dur_nanos,
                ("engine", "stage.deliver") => self.deliver_ns += e.dur_nanos,
                _ => {}
            }
        }
        self.dropped += snap.dropped_events();
    }
}

/// A traced interval: turns `distfl_obs` on with zeroed metrics and
/// drains span rings on a helper thread (so long phases never overwrite
/// events) until [`Traced::finish`].
pub struct Traced {
    stop: Arc<AtomicBool>,
    drain: JoinHandle<SpanSums>,
}

impl Traced {
    /// Starts tracing.
    pub fn start() -> Traced {
        distfl_obs::set_enabled(false);
        let _ = distfl_obs::snapshot();
        distfl_obs::metrics_reset();
        distfl_obs::set_enabled(true);
        let stop = Arc::new(AtomicBool::new(false));
        let drain = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut sums = SpanSums::default();
                while !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(50));
                    sums.add(&distfl_obs::snapshot());
                }
                sums
            })
        };
        Traced { stop, drain }
    }

    /// Stops tracing; returns the span sums. Counters keep their values
    /// for [`counter`] until the next [`Traced::start`].
    pub fn finish(self) -> SpanSums {
        distfl_obs::set_enabled(false);
        self.stop.store(true, Ordering::SeqCst);
        let mut sums = self.drain.join().expect("span drain thread");
        sums.add(&distfl_obs::snapshot());
        sums
    }
}

/// The current value of an obs counter.
pub fn counter(name: &'static str) -> f64 {
    distfl_obs::counter(name).get() as f64
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Records the engine span and solver/pool counter metrics of a traced
/// interval, normalised by `units` (requests served, or sweep passes).
pub fn counter_layers(report: &mut Report, spans: SpanSums, units: f64) {
    report.set("congest.step_ns", ratio(spans.step_ns as f64, spans.rounds as f64));
    report.set("congest.deliver_ns", ratio(spans.deliver_ns as f64, spans.rounds as f64));
    report.set("core.greedy_iterations", ratio(counter("solver.greedy.iterations"), units));
    report.set("core.localsearch_moves", ratio(counter("solver.localsearch.moves"), units));
    let tasks = counter("pool.tasks");
    report.set("pool.tasks", ratio(tasks, units));
    report.set("pool.steal_share", ratio(counter("pool.stolen"), tasks));
}

/// Records the `serve.*` counter ratios of a traced interval; `refused`
/// is the refusals the clients saw in it.
pub fn serve_counter_layers(report: &mut Report, refused: u64) {
    let requests = counter("serve.requests");
    report.set("serve.batch_mean", ratio(requests, counter("serve.batches")));
    report.set("serve.wakeups_per_req", ratio(counter("serve.reactor_wakeups"), requests));
    report.set("serve.pipelined_share", ratio(counter("serve.pipelined_requests"), requests));
    report.set("serve.bytes_in_per_req", ratio(counter("serve.bytes_read"), requests));
    report.set("serve.bytes_out_per_req", ratio(counter("serve.bytes_written"), requests));
    report.set("serve.refused", ratio(refused as f64, requests));
}
