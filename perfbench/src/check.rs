//! Output checks. Every response is compared byte for byte with an
//! in-process replay of the same line (`proto::parse_line` followed by
//! `scheduler::execute`), and every solve answer is also checked on its
//! own: each client links to a reported open facility, and the reported
//! cost is at least the best assignment cost of that open set, which is at
//! least a certified lower bound.

use distfl_bench::experiments::EXACT_LIMIT;
use distfl_core::greedy::StarGreedy;
use distfl_core::jv::JainVazirani;
use distfl_core::FlAlgorithm;
use distfl_instance::{FacilityId, Instance};
use distfl_lp::bounds;
use distfl_serve::proto::{self, Parsed};
use distfl_serve::scheduler;
use distfl_serve::session::SessionCache;

/// Relative slack for comparing float sums computed in different orders.
const TOLERANCE: f64 = 1e-9;

/// The response the server must send for `line`, computed in-process.
/// `sessions` carries session state between calls, so session verbs
/// must be replayed in the order the connection sent them.
pub fn replay(line: &str, sessions: &SessionCache) -> String {
    match proto::parse_line(line) {
        Ok(Parsed::Request(request)) => scheduler::execute(&request, sessions),
        Ok(Parsed::Command(command)) => proto::render_command_ack(command),
        Err(error) => proto::render_error(&error, proto::span_id(line.as_bytes())),
    }
}

/// Whether a response is a refusal — the server declined to run the
/// request (`queue_full`, `shutting_down`) rather than answering it.
pub fn is_refusal(response: &str) -> bool {
    response.contains(r#""kind":"queue_full""#) || response.contains(r#""kind":"shutting_down""#)
}

/// The `cost` and `open` fields of a solve response.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// Reported total cost.
    pub cost: f64,
    /// Reported open facilities.
    pub open: Vec<usize>,
}

/// Extracts the answer of a successful solve response, by plain text
/// scanning so the check does not lean on the program's JSON reader.
pub fn parse_answer(response: &str) -> Result<Answer, String> {
    if !response.contains(r#""ok":true"#) {
        return Err(format!("not a success response: {response}"));
    }
    let field = |key: &str| -> Result<&str, String> {
        let start = response
            .find(&format!("\"{key}\":"))
            .ok_or_else(|| format!("response lacks {key}: {response}"))?
            + key.len()
            + 3;
        Ok(&response[start..])
    };
    let cost_text = field("cost")?;
    let end = cost_text.find([',', '}']).ok_or("unterminated cost")?;
    let cost: f64 = cost_text[..end].parse().map_err(|_| format!("bad cost in {response}"))?;
    let open_text = field("open")?;
    let end = open_text.find(']').ok_or("unterminated open list")?;
    let open = open_text[1..end]
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.parse::<usize>().map_err(|_| format!("bad open list in {response}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Answer { cost, open })
}

/// The cost of `open` with every client served by its cheapest open
/// link, or an error naming a client no open facility serves.
pub fn best_assignment_cost(instance: &Instance, open: &[usize]) -> Result<f64, String> {
    let m = instance.num_facilities();
    let mut is_open = vec![false; m];
    let mut total = 0.0;
    for &i in open {
        if i >= m || is_open[i] {
            return Err(format!("open list names facility {i} twice or out of range"));
        }
        is_open[i] = true;
        total += instance.opening_cost(FacilityId::new(i as u32)).value();
    }
    for j in instance.clients() {
        let links = instance.client_links(j);
        let best = links
            .iter()
            .filter(|&(i, _)| is_open[i as usize])
            .map(|(_, c)| c)
            .fold(f64::INFINITY, f64::min);
        if !best.is_finite() {
            return Err(format!("client {} links to no open facility", j.index()));
        }
        total += best;
    }
    Ok(total)
}

/// Checks one answer against `instance` and a certified lower bound:
/// feasible, `cost >= best assignment >= lower_bound` (to float slack).
pub fn check_answer(instance: &Instance, answer: &Answer, lower_bound: f64) -> Result<(), String> {
    let best = best_assignment_cost(instance, &answer.open)?;
    let slack = |x: f64| TOLERANCE * x.abs().max(1.0);
    if answer.cost < best - slack(best) {
        return Err(format!("reported cost {} below its open set's best {best}", answer.cost));
    }
    if best < lower_bound - slack(lower_bound) {
        return Err(format!("open set cost {best} below the certified lower bound {lower_bound}"));
    }
    Ok(())
}

/// The certified lower bound the checks and `cost_ratio` use:
/// `distfl_lp::bounds::certified_lower_bound` with the experiments'
/// exact-solve limit — the optimum up to 22 facilities, else the best of
/// the trivial bound and dual fitting of the greedy and Jain–Vazirani
/// duals (the JV dual keeps the bound, and so the ratio, tight).
pub fn lower_bound(instance: &Instance) -> f64 {
    let dual = |outcome: Result<distfl_core::Outcome, _>| {
        outcome.ok().and_then(|o: distfl_core::Outcome| o.dual)
    };
    let duals: Vec<_> = [
        dual(StarGreedy::new().run(instance, 0)),
        dual(JainVazirani::unchecked().run(instance, 0)),
    ]
    .into_iter()
    .flatten()
    .collect();
    let refs: Vec<_> = duals.iter().collect();
    bounds::certified_lower_bound(instance, &refs, EXACT_LIMIT).value
}

/// A cheap certified lower bound (the trivial structural bound) for
/// checking every warm session answer.
pub fn quick_lower_bound(instance: &Instance) -> f64 {
    bounds::trivial_lower_bound(instance)
}

/// A tally of checked outputs, with the first few failures kept for the
/// report.
#[derive(Debug, Default)]
pub struct Tally {
    /// Outputs checked.
    pub checked: u64,
    /// Outputs that failed a check.
    pub wrong: u64,
    /// The first failure messages.
    pub samples: Vec<String>,
}

impl Tally {
    /// Records one checked output.
    pub fn record(&mut self, result: Result<(), String>) {
        self.checked += 1;
        if let Err(message) = result {
            self.wrong += 1;
            if self.samples.len() < 5 {
                self.samples.push(message);
            }
        }
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.checked += other.checked;
        self.wrong += other.wrong;
        for s in other.samples {
            if self.samples.len() < 5 {
                self.samples.push(s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distfl_instance::generators::{InstanceGenerator, UniformRandom};

    #[test]
    fn parses_answers() {
        let r = r#"{"id":"a","ok":true,"solver":"jv","seed":0,"cost":12.5,"open":[0,3],"rounds":null,"span":"00"}"#;
        assert_eq!(parse_answer(r).unwrap(), Answer { cost: 12.5, open: vec![0, 3] });
        assert!(parse_answer(r#"{"id":"a","ok":false}"#).is_err());
    }

    #[test]
    fn replayed_answers_pass_and_tampered_ones_fail() {
        let inst = UniformRandom::new(4, 12).unwrap().generate(3).unwrap();
        let payload = distfl_instance::orlib::to_string(&inst).unwrap();
        let mut w = distfl_obs::JsonWriter::object();
        w.key("id").string("x").key("solver").string("greedy").key("orlib").string(&payload);
        let line = w.finish();
        let response = replay(&line, &SessionCache::new(1));
        let answer = parse_answer(&response).unwrap();
        let lb = lower_bound(&inst);
        check_answer(&inst, &answer, lb).unwrap();
        // Claiming a lower cost than the open set allows is caught.
        let cheaper = Answer { cost: answer.cost * 0.5, ..answer.clone() };
        assert!(check_answer(&inst, &cheaper, lb).is_err());
        // So is a cost below the certified bound.
        assert!(check_answer(&inst, &answer, answer.cost * 2.0).is_err());
        // And an empty open set leaves clients unserved.
        assert!(check_answer(&inst, &Answer { cost: 1e9, open: vec![] }, 0.0).is_err());
    }
}
