//! Plain-text instance serialization.
//!
//! A deliberately simple line-oriented format (no serde format crate
//! needed). Floats round-trip exactly via Rust's shortest-representation
//! formatting.
//!
//! ```text
//! distfl-instance v1
//! facilities 2
//! clients 2
//! opening 10 4.5
//! client 0 2 0 1.25 1 3
//! client 1 1 1 0.5
//! ```
//!
//! `client <j> <k> (<facility> <cost>){k}` lists the `k` links of client
//! `j`. Lines starting with `#` are comments.

use std::fmt::Write as _;

use crate::cost::Cost;
use crate::error::InstanceError;
use crate::instance::{FacilityId, Instance, InstanceBuilder};

/// The header line identifying the format version.
pub const HEADER: &str = "distfl-instance v1";

/// Serializes an instance to the text format.
pub fn to_string(instance: &Instance) -> String {
    let mut out = String::new();
    out.push_str(HEADER);
    out.push('\n');
    let _ = writeln!(out, "facilities {}", instance.num_facilities());
    let _ = writeln!(out, "clients {}", instance.num_clients());
    out.push_str("opening");
    for i in instance.facilities() {
        let _ = write!(out, " {}", instance.opening_cost(i).value());
    }
    out.push('\n');
    for j in instance.clients() {
        let links = instance.client_links(j);
        let _ = write!(out, "client {} {}", j.index(), links.len());
        for (i, c) in links.iter() {
            let _ = write!(out, " {i} {c}");
        }
        out.push('\n');
    }
    out
}

/// Parses an instance from the text format.
///
/// # Errors
///
/// Returns [`InstanceError::Parse`] with a 1-based line number for any
/// syntactic problem, and the usual construction errors for semantic ones
/// (duplicate links, unreachable clients, ...).
pub fn from_str(text: &str) -> Result<Instance, InstanceError> {
    let err = |line: usize, reason: &str| InstanceError::Parse { line, reason: reason.to_owned() };
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(idx, l)| (idx + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));

    let (line_no, header) = lines.next().ok_or_else(|| err(1, "empty input"))?;
    if header != HEADER {
        return Err(err(line_no, "missing or unsupported header"));
    }

    let mut expect_count = |keyword: &str| -> Result<usize, InstanceError> {
        let (line_no, line) = lines.next().ok_or_else(|| err(0, "unexpected end of input"))?;
        let mut parts = line.split_whitespace();
        if parts.next() != Some(keyword) {
            return Err(err(line_no, &format!("expected '{keyword} <count>'")));
        }
        parts
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| err(line_no, &format!("expected a count after '{keyword}'")))
    };
    let m = expect_count("facilities")?;
    let n = expect_count("clients")?;

    let (line_no, opening_line) = lines.next().ok_or_else(|| err(0, "unexpected end of input"))?;
    let mut parts = opening_line.split_whitespace();
    if parts.next() != Some("opening") {
        return Err(err(line_no, "expected 'opening <m costs>'"));
    }
    let opening: Vec<f64> = parts
        .map(|v| v.parse::<f64>())
        .collect::<Result<_, _>>()
        .map_err(|_| err(line_no, "invalid opening cost"))?;
    if opening.len() != m {
        return Err(err(line_no, &format!("expected {m} opening costs, got {}", opening.len())));
    }

    let mut builder = InstanceBuilder::new();
    let fids: Vec<FacilityId> = opening
        .into_iter()
        .map(|f| Cost::new(f).map(|c| builder.add_facility(c)))
        .collect::<Result<_, _>>()?;
    // Every client needs a line of its own, so only as many clients as
    // lines remain are allocated up front; a larger `n` cannot be met and
    // its clients past that bound are tracked sparsely, only to report
    // the same error the lines would.
    let lines: Vec<(usize, &str)> = lines.collect();
    let allocated = n.min(lines.len());
    let cids: Vec<_> = (0..allocated).map(|_| builder.add_client()).collect();
    let mut seen = vec![false; allocated];
    let mut seen_beyond = std::collections::HashSet::new();
    for (line_no, line) in lines {
        let mut parts = line.split_whitespace();
        if parts.next() != Some("client") {
            return Err(err(line_no, "expected 'client <j> <k> (<facility> <cost>)*'"));
        }
        let j: usize = parts
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| err(line_no, "invalid client index"))?;
        if j >= n {
            return Err(InstanceError::ClientOutOfRange { client: j, num_clients: n });
        }
        let declared = match seen.get_mut(j) {
            Some(seen) => std::mem::replace(seen, true),
            None => !seen_beyond.insert(j),
        };
        if declared {
            return Err(err(line_no, &format!("client {j} declared twice")));
        }
        let k: usize = parts
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| err(line_no, "invalid link count"))?;
        for _ in 0..k {
            let i: usize = parts
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| err(line_no, "missing facility index"))?;
            let c: f64 = parts
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| err(line_no, "missing link cost"))?;
            if i >= m {
                return Err(InstanceError::FacilityOutOfRange { facility: i, num_facilities: m });
            }
            let cost = Cost::new(c)?;
            if let Some(&cid) = cids.get(j) {
                builder.link(cid, fids[i], cost)?;
            }
        }
        if parts.next().is_some() {
            return Err(err(line_no, "trailing tokens after links"));
        }
    }
    if allocated < n {
        if fids.is_empty() {
            return Err(InstanceError::NoFacilities);
        }
        let client = (0..n)
            .find(|&j| !seen.get(j).copied().unwrap_or_else(|| seen_beyond.contains(&j)))
            .expect("fewer lines than clients leave a client without one");
        return Err(InstanceError::UnreachableClient { client });
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{InstanceGenerator, UniformRandom};

    #[test]
    fn round_trip_generated_instance() {
        let inst = UniformRandom::new(4, 9).unwrap().generate(3).unwrap();
        let text = to_string(&inst);
        let parsed = from_str(&text).unwrap();
        assert_eq!(inst, parsed);
    }

    #[test]
    fn parses_documented_example() {
        let text = "\
distfl-instance v1
facilities 2
clients 2
opening 10 4.5
client 0 2 0 1.25 1 3
client 1 1 1 0.5
";
        let inst = from_str(text).unwrap();
        assert_eq!(inst.num_facilities(), 2);
        assert_eq!(inst.num_clients(), 2);
        assert_eq!(inst.num_links(), 3);
        assert_eq!(
            inst.connection_cost(crate::ClientId::new(0), FacilityId::new(1)).unwrap().value(),
            3.0
        );
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "\
# a comment
distfl-instance v1

facilities 1
clients 1
# another comment
opening 2
client 0 1 0 1
";
        assert!(from_str(text).is_ok());
    }

    #[test]
    fn rejects_bad_header() {
        let e = from_str("bogus v9\nfacilities 1\n").unwrap_err();
        assert!(matches!(e, InstanceError::Parse { line: 1, .. }));
    }

    #[test]
    fn rejects_wrong_opening_count() {
        let text = "distfl-instance v1\nfacilities 2\nclients 1\nopening 5\nclient 0 1 0 1\n";
        assert!(matches!(from_str(text), Err(InstanceError::Parse { line: 4, .. })));
    }

    #[test]
    fn rejects_duplicate_client_line() {
        let text = "\
distfl-instance v1
facilities 1
clients 1
opening 5
client 0 1 0 1
client 0 1 0 2
";
        assert!(from_str(text).is_err());
    }

    #[test]
    fn rejects_out_of_range_indices() {
        let text = "\
distfl-instance v1
facilities 1
clients 1
opening 5
client 0 1 7 1
";
        assert!(matches!(from_str(text), Err(InstanceError::FacilityOutOfRange { .. })));
        let text2 = "\
distfl-instance v1
facilities 1
clients 1
opening 5
client 9 1 0 1
";
        assert!(matches!(from_str(text2), Err(InstanceError::ClientOutOfRange { .. })));
    }

    #[test]
    fn rejects_trailing_tokens() {
        let text = "\
distfl-instance v1
facilities 1
clients 1
opening 5
client 0 1 0 1 extra
";
        assert!(from_str(text).is_err());
    }

    #[test]
    fn huge_client_counts_are_errors_not_allocations() {
        let header = "distfl-instance v1\nfacilities 1\nclients 18446744073709551615\nopening 5\n";
        let text = format!("{header}client 0 1 0 1\nclient 1 1 0 2\n");
        assert!(matches!(from_str(&text), Err(InstanceError::UnreachableClient { client: 2 })));
        // Lines are still checked in order before the count is.
        let text = format!("{header}client 0 1 0 1\nclient 0 1 0 2\n");
        assert!(matches!(from_str(&text), Err(InstanceError::Parse { line: 6, .. })));
        let text = format!("{header}client 4000000000 1 0 1\nclient 0 1 0 x\n");
        assert!(matches!(from_str(&text), Err(InstanceError::Parse { line: 6, .. })));
        let text = format!("{header}client 4000000000 1 0 1\nclient 4000000000 1 0 1\n");
        assert!(matches!(from_str(&text), Err(InstanceError::Parse { line: 6, .. })));
    }

    #[test]
    fn missing_client_line_means_unreachable() {
        let text = "\
distfl-instance v1
facilities 1
clients 2
opening 5
client 0 1 0 1
";
        assert!(matches!(from_str(text), Err(InstanceError::UnreachableClient { client: 1 })));
    }
}
