//! The three serve workloads — `wire-tiny`, `wire-solve` and
//! `session-churn` — against an in-process `distfl_serve::Server`.

use std::io;
use std::time::{Duration, Instant};

use distfl_core::SolverKind;
use distfl_instance::{ClientId, Cost, DeltaBatch, FacilityId};
use distfl_serve::proto::{self, Action, Parsed};
use distfl_serve::session::SessionCache;
use distfl_serve::{ServeConfig, Server};

use crate::check::{self, Tally};
use crate::client::{self, since, Conn, OpenLoop, Pipe};
use crate::gen::{self, RequestSet, SessionPlan, ROTATION};
use crate::layers::{self, Traced};
use crate::report::Report;
use crate::stats::{median, percentile, quartile_spread};
use crate::Options;

/// Client connections of every serve workload.
pub const CONNECTIONS: usize = 2;
/// Times the set-up is repeated per run; `setup_s` is the median.
const SETUP_REPS: usize = 21;
/// `wire-tiny` open-loop offered rate (requests per second).
pub const TINY_RATE: f64 = 16_000.0;
/// `wire-tiny` closed-loop requests in flight per connection.
pub const TINY_DEPTH: usize = 8;
/// Session cycles per `sweep_s` block of `session-churn`.
const SESSION_BLOCK: usize = 100;
/// Every this many blocks of three cycles (one solve of each kind), up
/// to [`RATIO_UNTIL`] cycles, a block's answers feed `cost_ratio`: 1%
/// churn replaces the instance's clients within a few hundred cycles, so
/// the sampled blocks see nearly independent instances, and whole blocks
/// keep the mix of kinds fixed.
const RATIO_EVERY_BLOCKS: u64 = 16;
/// Cycles per connection after which answers no longer feed `cost_ratio`
/// (every 15-second run completes several times more).
const RATIO_UNTIL: u64 = 960;
/// Window of the windowed `wire-tiny` p99 (1600 samples at 16k rps).
const TINY_WINDOW: Duration = Duration::from_millis(100);
/// Window of the windowed closed-loop throughput and p99 (over 1000
/// samples at the rates `wire-solve` and `session-churn` run at).
const CLOSED_WINDOW: Duration = Duration::from_secs(2);
/// How long a phase waits past its end for answers still in flight.
const GRACE: Duration = Duration::from_secs(5);

/// The server configuration every serve workload uses: one shard and
/// `nproc - 1` pool workers, with an admission queue deep enough that a
/// host stall never refuses requests.
pub fn server_config(nproc: usize) -> ServeConfig {
    ServeConfig {
        shards: 1,
        workers: Some(nproc.saturating_sub(1)),
        queue_capacity: 4096,
        ..ServeConfig::default()
    }
}

/// A running server with its ready client connections.
struct Harness {
    server: Server,
    conns: Vec<Conn>,
    /// Each connection's answer to its set-up line (session `create`).
    acks: Vec<String>,
}

impl Harness {
    /// Starts a server and readies [`CONNECTIONS`] connections: a ping on
    /// each, then the connection's set-up line, if any.
    fn start(config: &ServeConfig, setup_lines: &[String]) -> io::Result<Harness> {
        let server = Server::start("127.0.0.1:0", config.clone())?;
        let mut conns = Vec::new();
        let mut acks = Vec::new();
        for index in 0..CONNECTIONS {
            let mut conn = Conn::connect(server.local_addr())?;
            let pong = conn.call(r#"{"cmd":"ping"}"#)?;
            if !pong.contains(r#""pong":true"#) {
                return Err(io::Error::other(format!("bad ping answer: {pong}")));
            }
            if let Some(line) = setup_lines.get(index) {
                acks.push(conn.call(line)?);
            }
            conns.push(conn);
        }
        Ok(Harness { server, conns, acks })
    }

    /// Starts [`SETUP_REPS`] times, shutting all but the last down; returns
    /// the last harness and the median set-up time in seconds.
    fn timed(config: &ServeConfig, setup_lines: &[String]) -> io::Result<(Harness, f64)> {
        let mut samples = Vec::new();
        loop {
            let t = Instant::now();
            let harness = Harness::start(config, setup_lines)?;
            samples.push(t.elapsed().as_secs_f64());
            if samples.len() == SETUP_REPS {
                return Ok((harness, median(&samples).expect("samples taken")));
            }
            harness.shutdown();
        }
    }

    fn shutdown(self) {
        drop(self.conns);
        self.server.shutdown();
    }
}

/// What one load phase observed.
#[derive(Debug, Default)]
struct Phase {
    /// Latency of each timed request or cycle (ns).
    latencies: Vec<u64>,
    /// Completion time (ns since the phase began) of each timed request,
    /// or, in the pipelined closed loop, of every block-th completion.
    completions: Vec<u64>,
    /// Requests (or cycles) completed.
    completed: u64,
    /// Phase length up to its last completion (ns).
    elapsed_ns: u64,
    /// Requests sent.
    attempted: u64,
    /// Requests the server declined (`queue_full`, `shutting_down`).
    refused: u64,
    /// Requests never answered.
    unanswered: u64,
    /// Verdicts on the answers: equal to the replay, and sound.
    tally: Tally,
    /// Open-loop generator lateness per request (ns).
    lag: Vec<u64>,
}

impl Phase {
    /// Records one completion at `done` of a request due or sent at `start`.
    fn record(&mut self, start: u64, done: u64) {
        self.latencies.push(done.saturating_sub(start));
        self.completions.push(done);
        self.completed += 1;
        self.elapsed_ns = self.elapsed_ns.max(done);
    }

    fn merge(&mut self, other: Phase) {
        self.latencies.extend(other.latencies);
        self.completions.extend(other.completions);
        self.completed += other.completed;
        self.elapsed_ns = self.elapsed_ns.max(other.elapsed_ns);
        self.attempted += other.attempted;
        self.refused += other.refused;
        self.unanswered += other.unanswered;
        self.tally.merge(other.tally);
        self.lag.extend(other.lag);
    }

    /// Checks `response` for the request of distinct line `index`: it
    /// must equal the replay, whose answer must be sound.
    fn check(&mut self, response: &[u8], index: usize, expected: &[Expected]) {
        let want = &expected[index];
        if response != want.response.as_bytes() {
            let text = String::from_utf8_lossy(response);
            if check::is_refusal(&text) {
                self.refused += 1;
            } else {
                self.tally.record(Err(format!("line {index}: got {text}")));
            }
        } else if !want.sound {
            self.tally.record(Err(format!("line {index}: answer fails its independent check")));
        } else {
            self.tally.record(Ok(()));
        }
    }

    fn throughput(&self) -> f64 {
        self.completed as f64 / (self.elapsed_ns.max(1) as f64 / 1e9)
    }

    fn latency_us(&self, p: f64) -> f64 {
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        percentile(&sorted, p).unwrap_or(0) as f64 / 1e3
    }

    /// The median over `window`-long windows (by completion time) of
    /// each window's `p`th latency percentile, in µs, so a host stall
    /// confined to a few windows does not swing the tail. Windows with
    /// fewer than 1000 samples are skipped unless none has more.
    fn windowed_latency_us(&self, p: f64, window: Duration) -> f64 {
        let mut windows: Vec<Vec<u64>> = Vec::new();
        for (&done, &latency) in self.completions.iter().zip(&self.latencies) {
            let w = (done / window.as_nanos() as u64) as usize;
            if windows.len() <= w {
                windows.resize_with(w + 1, Vec::new);
            }
            windows[w].push(latency);
        }
        let full = windows.iter().any(|w| w.len() >= 1000);
        let per_window: Vec<f64> = windows
            .iter_mut()
            .filter(|w| !w.is_empty() && (!full || w.len() >= 1000))
            .map(|w| {
                w.sort_unstable();
                percentile(w, p).unwrap_or(0) as f64 / 1e3
            })
            .collect();
        median(&per_window).unwrap_or(0.0)
    }

    /// Completions in each whole `window` of the phase.
    fn window_counts(&self, window: Duration) -> Vec<f64> {
        let width = window.as_nanos() as u64;
        let mut counts = vec![0.0; (self.elapsed_ns / width) as usize];
        for &done in &self.completions {
            if let Some(slot) = counts.get_mut((done / width) as usize) {
                *slot += 1.0;
            }
        }
        counts
    }

    /// The median per-window completion rate, so a host stall confined
    /// to a few windows does not swing it; the plain rate when the phase
    /// holds fewer than three whole windows.
    fn windowed_throughput(&self, window: Duration) -> f64 {
        let counts = self.window_counts(window);
        if counts.len() < 3 {
            return self.throughput();
        }
        median(&counts).expect("windows counted") / window.as_secs_f64()
    }

    /// Median seconds per block of `block` completions — one pass over
    /// the workload's unit of traffic. `marked` says `completions` already
    /// holds only every block-th completion.
    fn block_seconds(&self, block: usize, marked: bool) -> f64 {
        let mut marks = self.completions.clone();
        marks.sort_unstable();
        if !marked {
            marks = marks.into_iter().skip(block - 1).step_by(block).collect();
        }
        let spans: Vec<f64> = marks
            .iter()
            .scan(0u64, |prev, &t| {
                let span = (t - *prev) as f64 / 1e9;
                *prev = t;
                Some(span)
            })
            .collect();
        median(&spans).unwrap_or_else(|| block as f64 / self.throughput().max(1e-9))
    }

    /// Quartile spread of the completions per second over the phase's
    /// whole seconds: how steady the load ran within this run.
    fn steadiness(&self) -> String {
        quartile_spread(&self.window_counts(Duration::from_secs(1)))
            .map_or_else(|| "null".into(), |s| format!("{s:.4}"))
    }

    fn failed(&self) -> u64 {
        self.refused + self.unanswered + self.tally.wrong
    }
}

/// What a distinct line must be answered with: the in-process replay's
/// bytes, and whether that answer passed the independent checks.
struct Expected {
    response: String,
    sound: bool,
}

/// The expected answer of every distinct line (replayed in-process),
/// checked on its own against the instance it names; returns them with
/// the failure messages of the independent checks and the mean cost
/// ratio.
fn prepare(set: &RequestSet) -> (Vec<Expected>, Vec<String>, f64) {
    let sessions = SessionCache::new(1);
    let bounds: Vec<f64> = set.instances.iter().map(check::lower_bound).collect();
    let mut failures = Vec::new();
    let mut ratios = Vec::new();
    let expected = set
        .lines
        .iter()
        .zip(&set.targets)
        .map(|(line, &(instance, kind))| {
            let response = check::replay(line, &sessions);
            let lb = bounds[instance];
            let verdict = check::parse_answer(&response).and_then(|answer| {
                ratios.push(answer.cost / lb);
                check::check_answer(&set.instances[instance], &answer, lb)
            });
            if let Err(e) = &verdict {
                failures.push(format!("{} on instance {instance}: {e}", kind.name()));
            }
            Expected { response, sound: verdict.is_ok() }
        })
        .collect();
    (expected, failures, distfl_bench::mean(&ratios))
}

/// Fills the fields every serve workload reports from its checks.
/// `failures` are the independent-check failures of the expected answers;
/// answers sent for those lines are already counted wrong by the phase.
fn finish(report: &mut Report, phase: &Phase, failures: Vec<String>) {
    report.attempted = phase.attempted;
    report.failed = phase.failed();
    report.correct =
        phase.failed() == phase.refused && phase.unanswered == 0 && failures.is_empty();
    report.failures.extend(failures.into_iter().take(5));
    report.failures.extend(phase.tally.samples.iter().cloned());
    report.set("ok_share", 1.0 - report.failed as f64 / report.attempted.max(1) as f64);
}

// ---------------------------------------------------------------------------
// wire-tiny
// ---------------------------------------------------------------------------

/// Open loop at `rate` over the pipes for `duration`; request `i` sends
/// distinct line `i mod lines`.
fn tiny_open(
    pipes: &mut [Pipe],
    lines: &[String],
    expected: &[Expected],
    rate: f64,
    duration: Duration,
) -> io::Result<Phase> {
    client::tighten_timer_slack();
    let mut open = OpenLoop::new(rate, duration.as_nanos() as u64, pipes.len());
    let mut phase = Phase::default();
    let origin = Instant::now();
    let give_up = (duration + GRACE).as_nanos() as u64;
    loop {
        let now = since(origin);
        for (conn, index) in open.take_due(now) {
            pipes[conn].queue(&lines[index as usize % lines.len()]);
            phase.attempted += 1;
        }
        for pipe in pipes.iter_mut() {
            pipe.flush()?;
        }
        for (conn, pipe) in pipes.iter_mut().enumerate() {
            pipe.drain(&mut |response| {
                let done = since(origin);
                match open.on_response(conn, done) {
                    Some((index, latency)) => {
                        phase.record(done - latency, done);
                        phase.check(response, index as usize % lines.len(), expected);
                    }
                    None => phase.tally.record(Err("answer to no request".into())),
                }
            })?;
        }
        let now = since(origin);
        match open.next_due() {
            None if open.in_flight() == 0 => break,
            _ if now > give_up => {
                phase.unanswered = open.in_flight() as u64;
                break;
            }
            Some(due) if due > now => client::wait(pipes, Duration::from_nanos(due - now)),
            Some(_) => {}
            None => client::wait(pipes, Duration::from_millis(1)),
        }
    }
    phase.lag = std::mem::take(&mut open.lag);
    Ok(phase)
}

/// Closed loop keeping `depth` requests in flight on each pipe for
/// `duration`.
fn tiny_closed(
    pipes: &mut [Pipe],
    lines: &[String],
    expected: &[Expected],
    depth: usize,
    duration: Duration,
) -> io::Result<Phase> {
    let mut phase = Phase::default();
    let mut pending: Vec<std::collections::VecDeque<usize>> = vec![Default::default(); pipes.len()];
    let mut next = 0usize;
    let origin = Instant::now();
    let end = duration.as_nanos() as u64;
    let give_up = (duration + GRACE).as_nanos() as u64;
    for (conn, pipe) in pipes.iter_mut().enumerate() {
        for _ in 0..depth {
            pipe.queue(&lines[next % lines.len()]);
            pending[conn].push_back(next % lines.len());
            next += 1;
            phase.attempted += 1;
        }
    }
    loop {
        for pipe in pipes.iter_mut() {
            pipe.flush()?;
        }
        for (conn, pipe) in pipes.iter_mut().enumerate() {
            let mut answered = 0;
            pipe.drain(&mut |response| {
                let done = since(origin);
                match pending[conn].pop_front() {
                    Some(index) => {
                        // Throughput needs only counts: keep every
                        // block-th completion time, not one per request.
                        phase.completed += 1;
                        phase.elapsed_ns = done;
                        if phase.completed.is_multiple_of(lines.len() as u64) {
                            phase.completions.push(done);
                        }
                        phase.check(response, index, expected);
                        answered += 1;
                    }
                    None => phase.tally.record(Err("answer to no request".into())),
                }
            })?;
            let now = since(origin);
            for _ in 0..answered {
                if now < end {
                    pipe.queue(&lines[next % lines.len()]);
                    pending[conn].push_back(next % lines.len());
                    next += 1;
                    phase.attempted += 1;
                }
            }
        }
        let in_flight: usize = pending.iter().map(|p| p.len()).sum();
        if in_flight == 0 {
            break;
        }
        if since(origin) > give_up {
            phase.unanswered = in_flight as u64;
            break;
        }
        client::wait(pipes, Duration::from_millis(1));
    }
    Ok(phase)
}

/// `wire-tiny`: tiny inline instances; the open loop gives the latencies,
/// the pipelined closed loop gives `throughput_rps`.
pub fn wire_tiny(opts: &Options) -> io::Result<Report> {
    let set = gen::tiny_set(opts.seed);
    let lines = &set.lines;
    let (expected, failures, cost_ratio) = prepare(&set);
    let config = server_config(opts.nproc);
    let (harness, setup_s) = Harness::timed(&config, &[])?;
    let Harness { server, conns, .. } = harness;
    let mut pipes =
        conns.into_iter().map(|c| Pipe::new(c.into_stream())).collect::<io::Result<Vec<_>>>()?;

    let mut report = Report::default();
    report
        .meta("loop", r#""open loop (p50_us, p99_us) then closed loop (throughput_rps, sweep_s)""#);
    report.meta("rate_rps", format!("{TINY_RATE}"));
    report.meta("pipeline_depth", format!("{TINY_DEPTH}"));
    report.meta("connections", format!("{CONNECTIONS}"));
    report.meta("client_threads", "1");
    report.meta("distinct_lines", format!("{}", lines.len()));

    // Two thirds open loop (the latencies), one third closed loop.
    let open_share = opts.duration() * 2 / 3;
    let closed_share = opts.duration() - open_share;
    let mut total = Phase::default();
    if opts.trace {
        let quarter = opts.duration() / 4;
        let open_u = tiny_open(&mut pipes, lines, &expected, TINY_RATE, quarter)?;
        let closed_u = tiny_closed(&mut pipes, lines, &expected, TINY_DEPTH, quarter)?;
        let traced = Traced::start();
        let open_t = tiny_open(&mut pipes, lines, &expected, TINY_RATE, quarter)?;
        let closed_t = tiny_closed(&mut pipes, lines, &expected, TINY_DEPTH, quarter)?;
        let spans = traced.finish();
        let completed = (open_t.completed + closed_t.completed) as f64;
        layers::serve_counter_layers(&mut report, open_t.refused + closed_t.refused);
        layers::counter_layers(&mut report, spans, completed);
        let p50_u = open_u.latency_us(50.0) * 1e3;
        report.set("obs.overhead_share", (open_t.latency_us(50.0) * 1e3 - p50_u) / p50_u);
        // The raw pooled tail, beside the windowed end-to-end p99.
        report.set("serve.tiny_p99_us", open_u.latency_us(99.0));
        let mut lag = open_u.lag.clone();
        lag.sort_unstable();
        report.set("bench.gen_lag_us", percentile(&lag, 99.0).unwrap_or(0) as f64 / 1e3);
        layers::frame_and_parse(&mut report, lines);
        layers::attribute(&mut report, layers::execute_samples(lines, 20), p50_u);
        layers::solve_layers(&mut report, &set.instances, &ROTATION, 0);
        for phase in [open_u, closed_u, open_t, closed_t] {
            total.merge(phase);
        }
    } else {
        let open = tiny_open(&mut pipes, lines, &expected, TINY_RATE, open_share)?;
        let closed = tiny_closed(&mut pipes, lines, &expected, TINY_DEPTH, closed_share)?;
        report.set("peak_rss_mb", crate::peak_rss_mb());
        // The median block rate, so one host stall does not swing it.
        let block_s = closed.block_seconds(lines.len(), true);
        report.set("throughput_rps", lines.len() as f64 / block_s);
        report.set("p50_us", open.latency_us(50.0));
        report.set("p99_us", open.windowed_latency_us(99.0, TINY_WINDOW));
        report.set("sweep_s", block_s);
        report.set("cost_ratio", cost_ratio);
        report.set("setup_s", setup_s);
        report.meta("latency_samples", format!("{}", open.completed));
        report.meta("per_second_spread", open.steadiness());
        total.merge(open);
        total.merge(closed);
    }
    drop(pipes);
    server.shutdown();
    finish(&mut report, &total, failures);
    Ok(report)
}

// ---------------------------------------------------------------------------
// wire-solve
// ---------------------------------------------------------------------------

/// One connection's walk over the distinct lines: every pass visits each
/// line once, in a fresh order drawn from the connection's own seeded
/// stream, so which requests run side by side changes from pass to pass
/// instead of repeating one seed-fixed pairing all run long.
struct Walk {
    rng: gen::Rng,
    order: Vec<usize>,
    step: usize,
}

impl Walk {
    fn new(seed: u64, conn: usize, lines: usize) -> Walk {
        Walk { rng: gen::Rng::new(seed, 10 + conn as u64), order: (0..lines).collect(), step: 0 }
    }

    fn next(&mut self) -> usize {
        if self.step.is_multiple_of(self.order.len()) {
            self.rng.shuffle(&mut self.order);
        }
        self.step += 1;
        self.order[(self.step - 1) % self.order.len()]
    }
}

/// A closed loop for `duration`: one client thread per connection, each
/// repeating `step` (one request or cycle, which records itself into the
/// thread's phase) with its connection and its own state until time is up.
fn closed_loop<S: Send>(
    conns: &mut [Conn],
    states: &mut [S],
    duration: Duration,
    step: impl Fn(usize, &mut Conn, &mut S, &mut Phase, u64, Instant) -> io::Result<()> + Sync,
) -> io::Result<Phase> {
    let origin = Instant::now();
    let end = duration.as_nanos() as u64;
    let step = &step;
    let results: Vec<io::Result<Phase>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(states.iter_mut())
            .enumerate()
            .map(|(c, (conn, state))| {
                scope.spawn(move || {
                    let mut phase = Phase::default();
                    loop {
                        let sent = since(origin);
                        if sent >= end {
                            return Ok(phase);
                        }
                        step(c, conn, state, &mut phase, sent, origin)?;
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let mut total = Phase::default();
    for result in results {
        total.merge(result?);
    }
    Ok(total)
}

/// `wire-solve`'s closed loop: one request in flight per connection, each
/// connection following its [`Walk`].
fn solve_closed(
    conns: &mut [Conn],
    lines: &[String],
    expected: &[Expected],
    walks: &mut [Walk],
    duration: Duration,
) -> io::Result<Phase> {
    closed_loop(conns, walks, duration, |_, conn, walk, phase, sent, origin| {
        let index = walk.next();
        phase.attempted += 1;
        let response = conn.call(&lines[index])?;
        phase.record(sent, since(origin));
        phase.check(response.as_bytes(), index, expected);
        Ok(())
    })
}

/// `wire-solve`: cold solves of OR-Library payloads over all seven kinds.
pub fn wire_solve(opts: &Options) -> io::Result<Report> {
    let set = gen::solve_set(opts.seed);
    let lines = &set.lines;
    let (expected, failures, cost_ratio) = prepare(&set);
    let config = server_config(opts.nproc);
    let (harness, setup_s) = Harness::timed(&config, &[])?;
    let Harness { server, mut conns, .. } = harness;
    let mut walks: Vec<Walk> =
        (0..CONNECTIONS).map(|c| Walk::new(opts.seed, c, lines.len())).collect();

    let mut report = Report::default();
    report.meta("loop", r#""closed loop, one request in flight per connection""#);
    report.meta("connections", format!("{CONNECTIONS}"));
    report.meta("client_threads", format!("{CONNECTIONS}"));
    report.meta("distinct_lines", format!("{}", lines.len()));
    let payload_kb: Vec<f64> = lines.iter().map(|l| l.len() as f64 / 1024.0).collect();
    report.meta(
        "payload_kb_range",
        format!(
            "[{:.0}, {:.0}]",
            payload_kb.iter().copied().fold(f64::INFINITY, f64::min),
            payload_kb.iter().copied().fold(0.0, f64::max)
        ),
    );

    let total = if opts.trace {
        let half = opts.duration() / 2;
        let untraced = solve_closed(&mut conns, lines, &expected, &mut walks, half)?;
        let traced = Traced::start();
        let phase = solve_closed(&mut conns, lines, &expected, &mut walks, half)?;
        let spans = traced.finish();
        layers::serve_counter_layers(&mut report, phase.refused);
        layers::counter_layers(&mut report, spans, phase.completed as f64);
        let p50_u = untraced.latency_us(50.0) * 1e3;
        report.set("obs.overhead_share", (phase.latency_us(50.0) * 1e3 - p50_u) / p50_u);
        layers::frame_and_parse(&mut report, lines);
        layers::attribute(&mut report, layers::execute_samples(lines, 2), p50_u);
        instance_layers(&mut report, &set);
        layers::solve_layers(&mut report, &set.instances, &SolverKind::ALL, opts.seed % 1000);
        let mut total = untraced;
        total.merge(phase);
        total
    } else {
        let phase = solve_closed(&mut conns, lines, &expected, &mut walks, opts.duration())?;
        report.set("peak_rss_mb", crate::peak_rss_mb());
        report.set("throughput_rps", phase.windowed_throughput(CLOSED_WINDOW));
        report.set("p50_us", phase.latency_us(50.0));
        report.set("p99_us", phase.windowed_latency_us(99.0, CLOSED_WINDOW));
        report.set("sweep_s", phase.block_seconds(lines.len(), false));
        report.set("cost_ratio", cost_ratio);
        report.set("setup_s", setup_s);
        report.meta("latency_samples", format!("{}", phase.completed));
        report.meta("per_second_spread", phase.steadiness());
        phase
    };
    drop(conns);
    server.shutdown();
    finish(&mut report, &total, failures);
    Ok(report)
}

/// `instance.*` layers of `wire-solve`: OR-Library parsing of every
/// payload and classification of the instances `auto` lines carry.
fn instance_layers(report: &mut Report, set: &RequestSet) {
    let payloads: Vec<String> = set
        .instances
        .iter()
        .map(|inst| distfl_instance::orlib::to_string(inst).expect("complete instances"))
        .collect();
    layers::orlib_layers(report, &payloads);
    report.set(
        "instance.classify_ns",
        layers::per_item_ns(&set.instances, |inst| {
            std::hint::black_box(distfl_instance::classify::classify(inst));
        }),
    );
}

// ---------------------------------------------------------------------------
// session-churn
// ---------------------------------------------------------------------------

/// One connection's session traffic: its `create` answer, then per cycle
/// the mutate and solve answers.
#[derive(Debug, Default)]
struct SessionLog {
    create: String,
    cycles: Vec<(String, String)>,
}

/// `session-churn`'s closed loop of mutate → solve cycles, appending to
/// each connection's log.
fn session_closed(
    conns: &mut [Conn],
    plan: &SessionPlan,
    logs: &mut [SessionLog],
    duration: Duration,
) -> io::Result<Phase> {
    closed_loop(conns, logs, duration, |c, conn, log, phase, sent, origin| {
        let cycle = log.cycles.len() as u64;
        phase.attempted += 2;
        let mutated = conn.call(&plan.mutate_line(c, cycle))?;
        let solved = conn.call(&plan.solve_line(c, cycle))?;
        phase.record(sent, since(origin));
        phase.refused +=
            u64::from(check::is_refusal(&mutated)) + u64::from(check::is_refusal(&solved));
        log.cycles.push((mutated, solved));
        Ok(())
    })
}

/// Replays one connection's log in order on a private session cache:
/// every answer must be byte-equal, and every solve must pass the
/// independent checks. Returns the tally, the cost ratios of the sampled
/// cycles, and each replayed execute's nanoseconds.
fn replay_session(
    plan: &SessionPlan,
    conn: usize,
    log: &SessionLog,
) -> (Tally, Vec<f64>, Vec<u64>) {
    let sessions = SessionCache::new(1);
    let name = SessionPlan::session(conn);
    let mut tally = Tally::default();
    let mut ratios = Vec::new();
    let mut execute = Vec::new();
    // One verdict per answer: byte-equal to the replay and, for a solve,
    // sound on its own.
    let mut compare = |line: &str, got: &str| -> Result<(), String> {
        let t = Instant::now();
        let want = check::replay(line, &sessions);
        execute.push(t.elapsed().as_nanos() as u64);
        if want == got {
            Ok(())
        } else {
            Err(format!("session {name}: {line:.60}… answered {got}, replay gives {want}"))
        }
    };
    tally.record(compare(&plan.creates[conn], &log.create));
    for (cycle, (mutated, solved)) in log.cycles.iter().enumerate() {
        let cycle = cycle as u64;
        tally.record(compare(&plan.mutate_line(conn, cycle), mutated));
        let verdict = compare(&plan.solve_line(conn, cycle), solved).and_then(|()| {
            let handle = sessions.get(&name).expect("replayed session exists");
            let state = handle.lock().expect("session lock");
            let answer = check::parse_answer(solved)?;
            if (cycle / 3).is_multiple_of(RATIO_EVERY_BLOCKS) && cycle < RATIO_UNTIL {
                ratios.push(answer.cost / check::lower_bound(&state.instance));
            }
            let lb = check::quick_lower_bound(&state.instance);
            check::check_answer(&state.instance, &answer, lb)
                .map_err(|e| format!("session {name} cycle {cycle}: {e}"))
        });
        tally.record(verdict);
    }
    (tally, ratios, execute)
}

/// Replays every connection's log, one thread per connection.
fn replay_sessions(plan: &SessionPlan, logs: &[SessionLog]) -> (Tally, f64, Vec<u64>) {
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = logs
            .iter()
            .enumerate()
            .map(|(c, log)| scope.spawn(move || replay_session(plan, c, log)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("replay thread")).collect()
    });
    let mut tally = Tally::default();
    let mut ratios = Vec::new();
    let mut execute = Vec::new();
    for (t, r, e) in results {
        tally.merge(t);
        ratios.extend(r);
        execute.extend(e);
    }
    (tally, distfl_bench::mean(&ratios), execute)
}

/// `session-churn`: warm sessions under 1% churn, with no OR-Library
/// parse and no classification on the request path.
pub fn session_churn(opts: &Options) -> io::Result<Report> {
    let plan = gen::session_plan(opts.seed, CONNECTIONS);
    let config = server_config(opts.nproc);
    let (harness, setup_s) = Harness::timed(&config, &plan.creates)?;
    let Harness { server, mut conns, acks } = harness;
    let mut logs: Vec<SessionLog> =
        acks.into_iter().map(|create| SessionLog { create, cycles: Vec::new() }).collect();

    let mut report = Report::default();
    report.meta("loop", r#""closed loop, mutate then solve per cycle, one request in flight""#);
    report.meta("connections", format!("{CONNECTIONS}"));
    report.meta("client_threads", format!("{CONNECTIONS}"));
    report.meta("session", r#""uniform 50x500 per connection, 1% churn per cycle""#);

    let (mut total, untraced_p50) = if opts.trace {
        let half = opts.duration() / 2;
        let untraced = session_closed(&mut conns, &plan, &mut logs, half)?;
        let traced = Traced::start();
        let phase = session_closed(&mut conns, &plan, &mut logs, half)?;
        let spans = traced.finish();
        layers::serve_counter_layers(&mut report, phase.refused);
        layers::counter_layers(&mut report, spans, 2.0 * phase.completed as f64);
        let p50_u = untraced.latency_us(50.0) * 1e3;
        report.set("obs.overhead_share", (phase.latency_us(50.0) * 1e3 - p50_u) / p50_u);
        let lines: Vec<String> = (0..logs[0].cycles.len().min(300) as u64)
            .flat_map(|cycle| [plan.mutate_line(0, cycle), plan.solve_line(0, cycle)])
            .collect();
        layers::frame_and_parse(&mut report, &lines);
        warm_layers(&mut report, &plan);
        layers::orlib_layers(&mut report, &plan.payloads);
        let mut total = untraced;
        total.merge(phase);
        (total, Some(p50_u))
    } else {
        let phase = session_closed(&mut conns, &plan, &mut logs, opts.duration())?;
        report.set("peak_rss_mb", crate::peak_rss_mb());
        report.set("throughput_rps", phase.windowed_throughput(CLOSED_WINDOW));
        report.set("p50_us", phase.latency_us(50.0));
        report.set("p99_us", phase.windowed_latency_us(99.0, CLOSED_WINDOW));
        report.set("sweep_s", phase.block_seconds(SESSION_BLOCK, false));
        report.set("setup_s", setup_s);
        report.meta("latency_samples", format!("{}", phase.completed));
        report.meta("per_second_spread", phase.steadiness());
        (phase, None)
    };
    drop(conns);
    server.shutdown();

    let (checks, cost_ratio, execute) = replay_sessions(&plan, &logs);
    // The set-up `create`s are answers too.
    total.attempted += logs.len() as u64;
    if let Some(p50_u) = untraced_p50 {
        // A cycle is two requests; attribute against one request's share.
        layers::attribute(&mut report, execute, p50_u / 2.0);
    } else {
        report.set("cost_ratio", cost_ratio);
    }
    total.tally.merge(checks);
    finish(&mut report, &total, Vec::new());
    Ok(report)
}

/// Converts a wire delta into a [`DeltaBatch`], as the scheduler does.
fn delta_batch(line: &str) -> DeltaBatch {
    let Ok(Parsed::Request(request)) = proto::parse_line(line) else {
        panic!("plan lines parse");
    };
    let Action::Mutate { delta, .. } = &request.action else {
        panic!("plan line is a mutate");
    };
    let mut batch = DeltaBatch::new();
    for &j in &delta.remove {
        batch.remove_client(ClientId::new(j));
    }
    for &(j, i, c) in &delta.reprice {
        batch.reprice(ClientId::new(j), FacilityId::new(i), Cost::new(c).expect("finite"));
    }
    for links in &delta.add {
        let p = batch.add_client();
        for &(i, c) in links {
            batch.link(p, FacilityId::new(i), Cost::new(c).expect("finite")).expect("fresh link");
        }
    }
    batch
}

/// `instance.apply_delta_ns` and the `core.warm_*` layers over the first
/// 300 cycles of connection 0's plan, outside the serve layer.
fn warm_layers(report: &mut Report, plan: &SessionPlan) {
    const CYCLES: usize = 300;
    let batches: Vec<DeltaBatch> =
        (0..CYCLES as u64).map(|cycle| delta_batch(&plan.mutate_line(0, cycle))).collect();
    let mut instance = plan.instances[0].clone();
    let mut warm = distfl_core::warm::WarmCache::new(&instance);
    let (mut apply, mut warm_apply) = (Vec::new(), Vec::new());
    let mut solves: Vec<Vec<f64>> = vec![Vec::new(); ROTATION.len()];
    for (cycle, batch) in batches.iter().enumerate() {
        let t = Instant::now();
        let delta = instance.apply_delta(batch).expect("plan deltas apply");
        apply.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        warm.apply_delta(&instance, &delta);
        warm_apply.push(t.elapsed().as_nanos() as f64);
        let kind = plan.kind(0, cycle as u64);
        let t = Instant::now();
        std::hint::black_box(kind.solve_warm(&instance, 0, &mut warm).expect("warm solve"));
        let slot = ROTATION.iter().position(|&k| k == kind).expect("sessions rotate these kinds");
        solves[slot].push(t.elapsed().as_nanos() as f64);
    }
    report.set("instance.apply_delta_ns", median(&apply).unwrap_or(0.0));
    report.set("core.warm_apply_ns", median(&warm_apply).unwrap_or(0.0));
    for (kind, samples) in ROTATION.iter().zip(&solves) {
        report.set(layers::warm_metric(*kind), median(samples).unwrap_or(0.0));
    }
    let (patches, rebuilds) = (warm.patches() as f64, warm.rebuilds() as f64);
    report.set("core.warm_patch_share", layers::ratio(patches, patches + rebuilds));
}
