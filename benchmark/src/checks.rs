//! The correctness gate: every pass's outputs are compared with what
//! `expected.json` pins for this seed and scale, or, for a seed nobody
//! pinned, with what the warm-up pass produced.

use serde::Value;
use std::collections::BTreeMap;

/// The pins committed beside the sources:
/// `{"<seed>": {"<scale>": {"<key>": "<observation>", ..}}}`.
const EXPECTED: &str = include_str!("../expected.json");

/// Checks attempted and failed by one child, and what it observed.
pub struct Checks {
    workload: &'static str,
    /// The pass being checked, for failure messages.
    pub pass: u32,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// What each key must read: the pins, then first observations.
    reference: BTreeMap<String, String>,
    /// What each key read last; written to `results.json` so that pins
    /// can be copied from a run that was reviewed.
    pub observed: BTreeMap<String, String>,
}

impl Checks {
    pub fn new(workload: &'static str, seed: u64, scale: u64) -> Checks {
        let pins = serde::json::parse(EXPECTED).expect("expected.json is valid JSON");
        let reference = match pins
            .get(&seed.to_string())
            .and_then(|s| s.get(&scale.to_string()))
        {
            Some(Value::Object(entries)) => entries
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
                .collect(),
            _ => BTreeMap::new(),
        };
        Checks {
            workload,
            pass: 0,
            attempted: 0,
            failures: Vec::new(),
            reference,
            observed: BTreeMap::new(),
        }
    }

    fn fail(&mut self, message: String) {
        let line = format!("{} pass {}: {message}", self.workload, self.pass);
        eprintln!("FAILED CHECK {line}");
        self.failures.push(line);
    }

    /// One check: `key` must read what it is pinned to, or what it read
    /// the first time.
    pub fn same(&mut self, key: &str, observation: String) {
        self.attempted += 1;
        match self.reference.get(key) {
            Some(want) if *want != observation => {
                let message = format!("{key}: expected `{want}`, observed `{observation}`");
                self.fail(message);
            }
            Some(_) => {}
            None => {
                self.reference.insert(key.to_string(), observation.clone());
            }
        }
        self.observed.insert(key.to_string(), observation);
    }

    /// One check: `ok` must hold.
    pub fn require(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.fail(what.to_string());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unpinned_seeds_fall_back_to_pass_to_pass_identity() {
        let mut c = Checks::new("w", 0xDEAD_BEEF, 7);
        c.same("k", "a".to_string());
        c.pass = 1;
        c.same("k", "a".to_string());
        assert_eq!((c.attempted, c.failures.len()), (2, 0));
        c.pass = 2;
        c.same("k", "b".to_string());
        c.require(false, "violations == 0");
        c.require(true, "fine");
        assert_eq!(c.attempted, 5);
        assert_eq!(
            c.failures,
            vec![
                "w pass 2: k: expected `a`, observed `b`".to_string(),
                "w pass 2: violations == 0".to_string()
            ]
        );
        assert_eq!(c.observed["k"], "b");
    }

    #[test]
    fn the_default_seed_is_pinned_at_both_scales() {
        for scale in [1, 20] {
            let mut c = Checks::new("w", 1998, scale);
            assert_eq!(c.reference.len(), 6 + 1 + 3, "scale {scale}");
            c.same("SEQ", "not what SEQ produces".to_string());
            assert_eq!(c.failures.len(), 1);
        }
    }
}
