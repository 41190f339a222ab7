//! The one per-field contract of every spec record: whatever a record's
//! field listing walks is hashed, serialised and parsed back — field by
//! field, for the machine configuration and for every Table I family.
//!
//! Each walked leaf is perturbed in turn (through its own JSON form, so
//! the test knows nothing about the record): the digest must move, the
//! perturbed record must round-trip through JSON to an equal value with
//! an equal digest, and the listing must walk exactly as many fields as
//! the document has keys.

use belenos_json::schema::{Leaf, Record, Rule, Walker};
use belenos_json::{FromJson, Json, JsonError, ToJson};
use belenos_uarch::CoreConfig;
use belenos_workloads::{Family, ScenarioSpec};

/// Hands every field back unchanged except leaf number `target`, which
/// comes back perturbed; counts what it walks.
struct Perturb {
    target: usize,
    leaves: usize,
    keys: usize,
    hit: &'static str,
}

impl Walker for Perturb {
    fn leaf<T: Leaf>(&mut self, name: &'static str, value: &T, _: Rule) -> Result<T, JsonError> {
        self.keys += 1;
        self.leaves += 1;
        if self.leaves - 1 != self.target {
            return Ok(value.clone());
        }
        self.hit = name;
        Ok(perturbed(value))
    }

    fn nested<R: Record>(&mut self, _: &'static str, value: &R) -> Result<R, JsonError> {
        self.keys += 1;
        value.walk(self)
    }
}

/// A different value of the same type: numbers move by one, booleans
/// flip, `null` becomes a number, an array moves its last element and a
/// string becomes another spelling its type accepts.
fn perturbed<T: Leaf>(value: &T) -> T {
    fn bump(v: &Json) -> Vec<Json> {
        match v {
            Json::Num(n) => vec![Json::Num(n + 1.0)],
            Json::Bool(b) => vec![Json::Bool(!b)],
            Json::Null => vec![Json::Num(1.0)],
            Json::Str(s) => [format!("{s}x").as_str(), "inorder", "LTAGE", "LocalBP"]
                .map(|s| Json::Str(s.to_string()))
                .to_vec(),
            Json::Arr(items) => {
                let (last, head) = items.split_last().expect("no empty array fields");
                let rebuilt = |last: Json| Json::Arr(head.iter().cloned().chain([last]).collect());
                bump(last).into_iter().map(rebuilt).collect()
            }
            Json::Obj(_) => unreachable!("a leaf is not an object"),
        }
    }
    let before = value.to_json();
    bump(&before)
        .iter()
        .filter_map(|candidate| T::from_json(candidate).ok())
        .find(|v| v.to_json() != before)
        .unwrap_or_else(|| panic!("no way to perturb {}", before.render()))
}

fn keys(v: &Json) -> usize {
    match v {
        Json::Obj(fields) => fields.iter().map(|(_, v)| 1 + keys(v)).sum(),
        _ => 0,
    }
}

fn every_field_is_hashed_and_roundtrips<R>(base: &R, digest: impl Fn(&R) -> u64)
where
    R: Record + FromJson + PartialEq + std::fmt::Debug,
{
    let walk = |target| {
        let mut w = Perturb {
            target,
            leaves: 0,
            keys: 0,
            hit: "",
        };
        let record = base.walk(&mut w).expect("perturbing cannot fail");
        (record, w)
    };
    let (same, counted) = walk(usize::MAX);
    assert_eq!(same, *base);
    assert_eq!(counted.keys, keys(&base.to_json()), "{base:?}");
    for target in 0..counted.leaves {
        let (variant, w) = walk(target);
        if w.hit == "family" {
            // The label is derived from the variant; see the test below.
            continue;
        }
        assert_ne!(variant, *base, "{} did not change", w.hit);
        assert_ne!(digest(&variant), digest(base), "{} is not hashed", w.hit);
        let wire = Json::parse(&variant.to_json().pretty()).expect("renders as JSON");
        let back = R::from_json(&wire).unwrap_or_else(|e| panic!("{}: {e}", w.hit));
        assert_eq!(back, variant, "{} does not round-trip", w.hit);
        assert_eq!(digest(&back), digest(&variant), "{}", w.hit);
    }
}

#[test]
fn every_machine_parameter_is_hashed_and_roundtrips() {
    for config in [CoreConfig::gem5_baseline(), CoreConfig::host_like()] {
        every_field_is_hashed_and_roundtrips(&config, CoreConfig::stable_digest);
    }
}

#[test]
fn every_scenario_field_of_every_family_is_hashed_and_roundtrips() {
    for family in Family::all_canonical() {
        let spec = ScenarioSpec::new(format!("t-{}", family.label()), family);
        every_field_is_hashed_and_roundtrips(&spec, ScenarioSpec::stable_digest);
    }
}

#[test]
fn families_of_the_same_shape_still_hash_apart() {
    // `arterial`, `tetrahedral` and `damage` each carry one `stretch`:
    // only the label tells them apart.
    let with = |family| ScenarioSpec {
        family,
        ..ScenarioSpec::new("x", Family::Arterial { stretch: 0.1 })
    };
    let digests = [
        with(Family::Arterial { stretch: 0.1 }).stable_digest(),
        with(Family::Tetrahedral { stretch: 0.1 }).stable_digest(),
        with(Family::Damage { stretch: 0.1 }).stable_digest(),
    ];
    assert_ne!(digests[0], digests[1]);
    assert_ne!(digests[0], digests[2]);
    assert_ne!(digests[1], digests[2]);
}
