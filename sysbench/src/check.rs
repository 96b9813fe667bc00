//! The output check: each simulated run yields named values, which
//! must match the reference values recorded for [`REFERENCE_SEED`] and
//! must repeat exactly from iteration to iteration for any seed.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The seed whose outputs are recorded in `reference.txt`.
pub const REFERENCE_SEED: u64 = 42;

/// Relative tolerance on virtual seconds and dollars against the
/// reference. A change to the bandwidth model may move completions by a
/// microsecond; 1e-4 of a run's seconds or dollars absorbs that while
/// any change to what the simulation computes still fails.
pub const REL_TOL: f64 = 1e-4;

/// One checked output value.
#[derive(Debug, Clone)]
pub enum Val {
    /// Counts and digests: must match exactly.
    Count(u64),
    /// Virtual seconds and dollars: within [`REL_TOL`] of the reference.
    Virtual(f64),
    /// Identifiers such as plan keys: must match exactly.
    Text(String),
}

impl Val {
    /// Bit-for-bit equality, used between iterations of one process.
    fn same(&self, other: &Val) -> bool {
        match (self, other) {
            (Val::Count(a), Val::Count(b)) => a == b,
            (Val::Virtual(a), Val::Virtual(b)) => a.to_bits() == b.to_bits(),
            (Val::Text(a), Val::Text(b)) => a == b,
            _ => false,
        }
    }

    /// Equality against the reference: exact, except virtual floats.
    fn matches_reference(&self, reference: &Val) -> bool {
        match (self, reference) {
            (Val::Virtual(a), Val::Virtual(r)) => (a - r).abs() <= REL_TOL * r.abs(),
            _ => self.same(reference),
        }
    }
}

/// The checked values of one simulated run, keyed `<run>.<field>`.
pub type Outcome = Vec<(String, Val)>;

/// Reference values, parsed from `reference.txt`.
#[derive(Debug, Default)]
pub struct Reference(BTreeMap<String, Val>);

impl Reference {
    /// Parses `<key> <c|v|t> <value>` lines; `#` starts a comment line.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut map = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, ' ');
            let (Some(key), Some(tag), Some(value)) = (parts.next(), parts.next(), parts.next())
            else {
                return Err(format!(
                    "reference line {}: expected `<key> <tag> <value>`",
                    n + 1
                ));
            };
            let bad = |what: &str| format!("reference line {}: bad {what} `{value}`", n + 1);
            let val = match tag {
                "c" => Val::Count(value.parse().map_err(|_| bad("count"))?),
                "v" => Val::Virtual(value.parse().map_err(|_| bad("float"))?),
                "t" => Val::Text(value.to_owned()),
                _ => return Err(format!("reference line {}: unknown tag `{tag}`", n + 1)),
            };
            if map.insert(key.to_owned(), val).is_some() {
                return Err(format!("reference line {}: duplicate key `{key}`", n + 1));
            }
        }
        Ok(Reference(map))
    }

    /// Compares one run's outcome with the reference: every value must
    /// match, and every reference value of that run must be produced.
    pub fn check(&self, run: &str, outcome: &Outcome) -> Result<(), String> {
        for (key, val) in outcome {
            match self.0.get(key) {
                None => return Err(format!("{key}: no reference value")),
                Some(r) if !val.matches_reference(r) => {
                    return Err(format!("{key}: {val:?} differs from reference {r:?}"))
                }
                Some(_) => {}
            }
        }
        let prefix = format!("{run}.");
        let missing = self
            .0
            .keys()
            .filter(|k| k.starts_with(&prefix))
            .find(|k| !outcome.iter().any(|(o, _)| o == *k));
        match missing {
            Some(k) => Err(format!("{k}: reference value not produced")),
            None => Ok(()),
        }
    }
}

/// Checks a later iteration's outcome against the first one's.
pub fn check_repeat(first: &Outcome, again: &Outcome) -> Result<(), String> {
    if first.len() != again.len() {
        return Err(format!(
            "{} values, first iteration had {}",
            again.len(),
            first.len()
        ));
    }
    for ((k1, v1), (k2, v2)) in first.iter().zip(again) {
        if k1 != k2 || !v1.same(v2) {
            return Err(format!(
                "{k2} = {v2:?} but the first iteration gave {k1} = {v1:?}"
            ));
        }
    }
    Ok(())
}

/// Renders outcomes in the reference file's format.
pub fn render(outcomes: &[Outcome]) -> String {
    let mut out = String::new();
    for (key, val) in outcomes.iter().flatten() {
        let _ = match val {
            Val::Count(c) => writeln!(out, "{key} c {c}"),
            Val::Virtual(v) => writeln!(out, "{key} v {v}"),
            Val::Text(t) => writeln!(out, "{key} t {t}"),
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        vec![
            ("run.tasks".into(), Val::Count(12)),
            ("run.wall_secs".into(), Val::Virtual(100.0)),
            ("run.plan".into(), Val::Text("fn:FS:mem1769".into())),
        ]
    }

    #[test]
    fn rendered_outcomes_parse_back_and_match() {
        let r = Reference::parse(&render(&[outcome()])).unwrap();
        assert!(r.check("run", &outcome()).is_ok());
    }

    #[test]
    fn virtual_values_get_the_tolerance_and_counts_do_not() {
        let r = Reference::parse(&render(&[outcome()])).unwrap();
        let mut near = outcome();
        near[1].1 = Val::Virtual(100.0 * (1.0 + REL_TOL / 2.0));
        assert!(r.check("run", &near).is_ok());
        let mut far = outcome();
        far[1].1 = Val::Virtual(100.0 * (1.0 + REL_TOL * 2.0));
        assert!(r.check("run", &far).is_err());
        let mut miscount = outcome();
        miscount[0].1 = Val::Count(11);
        assert!(r.check("run", &miscount).is_err());
    }

    #[test]
    fn a_missing_value_fails_the_check() {
        let r = Reference::parse(&render(&[outcome()])).unwrap();
        assert!(r.check("run", &outcome()[..2].to_vec()).is_err());
    }

    #[test]
    fn repeats_must_be_bit_identical() {
        assert!(check_repeat(&outcome(), &outcome()).is_ok());
        let mut drift = outcome();
        drift[1].1 = Val::Virtual(100.0 + 1e-9);
        assert!(check_repeat(&outcome(), &drift).is_err());
    }

    #[test]
    fn malformed_reference_lines_are_rejected() {
        assert!(Reference::parse("a.b c x").is_err());
        assert!(Reference::parse("a.b q 1").is_err());
        assert!(Reference::parse("a.b c 1\na.b c 1").is_err());
        assert!(Reference::parse("just-a-key").is_err());
    }
}
