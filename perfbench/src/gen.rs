//! Seeded input generation: every request line a workload sends is made
//! here from the workload seed, before the server starts, so the same
//! seed always yields the same bytes on the wire.

use distfl_core::SolverKind;
use distfl_instance::generators::{Clustered, Euclidean, InstanceGenerator, UniformRandom};
use distfl_instance::{orlib, Instance};
use distfl_obs::JsonWriter;

/// SplitMix64: a small, fast, seedable generator. The benchmark owns its
/// randomness so that inputs do not depend on the program's RNG code.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` salted with `stream`, so different input
    /// families drawn from one workload seed are independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Uniform float in `[lo, hi)`, rounded to two decimals so the wire
    /// text stays short and exact.
    pub fn cost(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        ((lo + (hi - lo) * unit) * 100.0).round() / 100.0
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0, i));
        }
    }
}

/// A workload's stateless request set: distinct lines over a list of
/// instances. Traffic cycles through `lines` in order.
#[derive(Debug, Clone)]
pub struct RequestSet {
    /// Instances the lines refer to.
    pub instances: Vec<Instance>,
    /// Distinct request lines (no trailing newline), in the seed's
    /// shuffled order.
    pub lines: Vec<String>,
    /// For each line: the index of its instance and the kind it asks for.
    pub targets: Vec<(usize, SolverKind)>,
}

impl RequestSet {
    /// Adds one line asking `kind` of instance `instance`.
    fn push(&mut self, text: String, instance: usize, kind: SolverKind) {
        self.lines.push(text);
        self.targets.push((instance, kind));
    }

    /// Shuffles lines (with their targets) by `rng`.
    fn shuffle(&mut self, rng: &mut Rng) {
        let mut order: Vec<usize> = (0..self.lines.len()).collect();
        rng.shuffle(&mut order);
        self.lines = order.iter().map(|&i| std::mem::take(&mut self.lines[i])).collect();
        self.targets = order.iter().map(|&i| self.targets[i]).collect();
    }
}

/// The kinds `wire-tiny` and `session-churn` rotate through.
pub const ROTATION: [SolverKind; 3] =
    [SolverKind::Greedy, SolverKind::LocalSearch, SolverKind::JainVazirani];

/// `wire-tiny`: 40 inline instances, eight each of 2, 3, 4, 5 and 6
/// facilities with `30 / m` clients linked to random facility subsets
/// (at most 30 links), each asked of greedy, local search and JV — 120
/// distinct lines.
pub fn tiny_set(seed: u64) -> RequestSet {
    let mut rng = Rng::new(seed, 1);
    let mut set = RequestSet { instances: Vec::new(), lines: Vec::new(), targets: Vec::new() };
    for index in 0..40 {
        let m = 2 + index % 5;
        let n = 30 / m;
        let opening: Vec<f64> = (0..m).map(|_| rng.cost(1.0, 20.0)).collect();
        let mut links: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);
        for _ in 0..n {
            let mut row: Vec<(usize, f64)> = Vec::new();
            for i in 0..m {
                if row.is_empty() && i + 1 == m || rng.range(0, 2) > 0 {
                    row.push((i, rng.cost(0.5, 10.0)));
                }
            }
            links.push(row);
        }
        for kind in ROTATION {
            let mut w = JsonWriter::object();
            w.key("id").string(&format!("t{}", set.lines.len()));
            w.key("solver").string(kind.name());
            w.key("instance").begin_object();
            w.key("opening").begin_array();
            for &f in &opening {
                w.number(f);
            }
            w.end_array();
            w.key("links").begin_array();
            for row in &links {
                w.begin_array();
                for &(i, c) in row {
                    w.number_u64(i as u64).number(c);
                }
                w.end_array();
            }
            w.end_array();
            w.end_object();
            set.push(w.finish(), index, kind);
        }
        set.instances.push(build_instance(&opening, &links));
    }
    set.shuffle(&mut rng);
    set
}

/// Instances of each (size, family) pair in `wire-solve`.
const SOLVE_PER_SHAPE: usize = 3;

/// `wire-solve`: 27 dense OR-Library payloads — 20×200, 30×300 and
/// 50×500, each as a uniform (non-metric), euclidean (metric) and
/// clustered instance, three of each — asked of all seven kinds
/// including `auto`: 189 distinct lines, shuffled by the seed.
pub fn solve_set(seed: u64) -> RequestSet {
    let mut rng = Rng::new(seed, 2);
    let mut set = RequestSet { instances: Vec::new(), lines: Vec::new(), targets: Vec::new() };
    for (m, n) in [(20, 200), (30, 300), (50, 500)] {
        for family in 0..3 {
            for _ in 0..SOLVE_PER_SHAPE {
                let gen_seed = rng.next_u64() >> 1;
                let instance = match family {
                    0 => UniformRandom::new(m, n).and_then(|g| g.generate(gen_seed)),
                    1 => Euclidean::new(m, n).and_then(|g| g.generate(gen_seed)),
                    _ => Clustered::new(4, m, n).and_then(|g| g.generate(gen_seed)),
                }
                .expect("generator sizes are valid");
                set.instances.push(instance);
            }
        }
    }
    for index in 0..set.instances.len() {
        let payload =
            orlib::to_string(&set.instances[index]).expect("generated instances are complete");
        for kind in SolverKind::ALL {
            let mut w = JsonWriter::object();
            w.key("id").string(&format!("w{}", set.lines.len()));
            w.key("solver").string(kind.name());
            w.key("seed").number_u64(seed % 1000);
            w.key("orlib").string(&payload);
            set.push(w.finish(), index, kind);
        }
    }
    set.shuffle(&mut rng);
    set
}

/// Clients in the `session-churn` instance.
pub const SESSION_CLIENTS: usize = 500;
/// Facilities in the `session-churn` instance.
pub const SESSION_FACILITIES: usize = 50;
/// Distinct mutate deltas in one connection's plan; the plan repeats.
pub const SESSION_PLAN: usize = 512;

/// `session-churn` inputs: per connection, a uniform 50×500 instance
/// that the connection pins as its session, and a plan of mutate lines.
/// Each delta touches 1% of the clients — 2 removed, 2 added with a full
/// row of links, and every link of 1 repriced — so the client count stays
/// at 500 and any delta of the plan is valid at any point of the stream.
#[derive(Debug, Clone)]
pub struct SessionPlan {
    /// Per connection: the instance its session is created from.
    pub instances: Vec<Instance>,
    /// Per connection: the instance as an OR-Library payload.
    pub payloads: Vec<String>,
    /// Per connection: the `create` line.
    pub creates: Vec<String>,
    /// Per connection: the mutate `delta` objects (JSON text).
    pub deltas: Vec<Vec<String>>,
    /// The workload seed, which also orders each block's solver kinds.
    seed: u64,
}

impl SessionPlan {
    /// The session name of connection `conn`.
    pub fn session(conn: usize) -> String {
        format!("s{conn}")
    }

    /// The mutate line of cycle `cycle` on connection `conn`.
    pub fn mutate_line(&self, conn: usize, cycle: u64) -> String {
        let delta = &self.deltas[conn][(cycle % SESSION_PLAN as u64) as usize];
        format!(
            r#"{{"cmd":"mutate","id":"m{}","session":"s{conn}","delta":{delta}}}"#,
            cycle % SESSION_PLAN as u64
        )
    }

    /// The kind cycle `cycle` of connection `conn` solves with. Every block
    /// of three cycles asks greedy, local search and JV once each, in an
    /// order drawn per block and connection, so the two connections'
    /// expensive solves do not stay in step for a whole run.
    pub fn kind(&self, conn: usize, cycle: u64) -> SolverKind {
        let block = cycle / ROTATION.len() as u64;
        let mut rng =
            Rng::new(self.seed ^ block.wrapping_mul(0xD134_2543_DE82_EF95), 200 + conn as u64);
        let mut order = ROTATION;
        rng.shuffle(&mut order);
        order[(cycle % ROTATION.len() as u64) as usize]
    }

    /// The solve line of cycle `cycle` on connection `conn`.
    pub fn solve_line(&self, conn: usize, cycle: u64) -> String {
        format!(
            r#"{{"cmd":"solve","id":"q{}","session":"s{conn}","solver":"{}"}}"#,
            cycle % ROTATION.len() as u64,
            self.kind(conn, cycle).name()
        )
    }
}

/// Builds the `session-churn` plan for `connections` connections.
pub fn session_plan(seed: u64, connections: usize) -> SessionPlan {
    let mut plan = SessionPlan {
        instances: Vec::new(),
        payloads: Vec::new(),
        creates: Vec::new(),
        deltas: Vec::new(),
        seed,
    };
    for conn in 0..connections {
        let mut stream = Rng::new(seed, 100 + conn as u64);
        let instance = UniformRandom::new(SESSION_FACILITIES, SESSION_CLIENTS)
            .and_then(|g| g.generate(stream.next_u64() >> 1))
            .expect("generator sizes are valid");
        let payload = orlib::to_string(&instance).expect("generated instances are complete");
        let mut w = JsonWriter::object();
        w.key("cmd").string("create");
        w.key("id").string(&format!("c{conn}"));
        w.key("session").string(&SessionPlan::session(conn));
        w.key("orlib").string(&payload);
        plan.creates.push(w.finish());
        plan.deltas.push((0..SESSION_PLAN).map(|_| churn_delta(&mut stream)).collect());
        plan.instances.push(instance);
        plan.payloads.push(payload);
    }
    plan
}

/// One 1% churn delta over a 500-client session (see [`SessionPlan`]).
fn churn_delta(rng: &mut Rng) -> String {
    let mut picked: Vec<usize> = Vec::new();
    while picked.len() < 3 {
        let j = rng.range(0, SESSION_CLIENTS - 1);
        if !picked.contains(&j) {
            picked.push(j);
        }
    }
    let (removed, repriced) = (&picked[..2], picked[2]);
    let mut text = format!(r#"{{"remove":[{},{}],"reprice":["#, removed[0], removed[1]);
    for i in 0..SESSION_FACILITIES {
        if i > 0 {
            text.push(',');
        }
        text.push_str(&format!("[{repriced},{i},{}]", rng.cost(1.0, 100.0)));
    }
    text.push_str(r#"],"add":["#);
    for added in 0..2 {
        if added > 0 {
            text.push(',');
        }
        text.push('[');
        for i in 0..SESSION_FACILITIES {
            if i > 0 {
                text.push(',');
            }
            text.push_str(&format!("{i},{}", rng.cost(1.0, 100.0)));
        }
        text.push(']');
    }
    text.push_str("]}");
    text
}

/// Builds an instance from dense opening costs and per-client link lists.
fn build_instance(opening: &[f64], links: &[Vec<(usize, f64)>]) -> Instance {
    use distfl_instance::{Cost, FacilityId, InstanceBuilder};
    let mut b = InstanceBuilder::new();
    let fids: Vec<FacilityId> =
        opening.iter().map(|&f| b.add_facility(Cost::new(f).expect("finite cost"))).collect();
    for row in links {
        let j = b.add_client();
        for &(i, c) in row {
            b.link(j, fids[i], Cost::new(c).expect("finite cost")).expect("fresh link");
        }
    }
    b.build().expect("every client has a link")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes() {
        let (a, b) = (tiny_set(5), tiny_set(5));
        assert_eq!(a.lines, b.lines);
        assert_ne!(tiny_set(6).lines, a.lines);
        let (p, q) = (session_plan(5, 2), session_plan(5, 2));
        assert_eq!(p.deltas, q.deltas);
        assert_ne!(p.deltas[0], p.deltas[1], "connections get their own streams");
        for block in 0..20u64 {
            let mut kinds: Vec<&str> = (0..3).map(|i| p.kind(0, block * 3 + i).name()).collect();
            kinds.sort_unstable();
            assert_eq!(kinds, ["greedy", "jv", "local-search"], "each block asks every kind once");
        }
    }

    #[test]
    fn tiny_instances_stay_tiny() {
        let set = tiny_set(1);
        assert_eq!(set.lines.len(), 120);
        assert_eq!(set.targets.len(), 120);
        for inst in &set.instances {
            assert!((2..=6).contains(&inst.num_facilities()));
            assert!(inst.num_links() <= 30);
        }
    }
}
