//! The one per-field contract of every record: whatever a record's
//! field listing walks is written, read back and (where the record has
//! one) hashed — field by field, for the machine configuration, every
//! Table I family, the simulation options and their sampling object, a
//! campaign spec, and the two job-board documents.
//!
//! Each walked leaf is perturbed in turn (through its own JSON form, so
//! the test knows nothing about the record): the document must change,
//! the perturbed record must read back to an equal value, a digest must
//! move and come back equal, and the listing must walk exactly the keys
//! the document has, in document order.

use belenos::campaign::CampaignSpec;
use belenos::SimOptions;
use belenos_dist::{DoneDoc, JobDoc};
use belenos_json::schema::{self, Leaf, Record, Rule, Walker};
use belenos_json::{FromJson, Json, JsonError};
use belenos_uarch::{CoreConfig, ModelKind, SamplingConfig};
use belenos_workloads::{Family, ScenarioSpec};

/// Hands every field back unchanged except leaf number `target`, which
/// comes back perturbed; records the dotted path of everything it walks.
#[derive(Default)]
struct Perturb {
    target: usize,
    leaves: usize,
    hit: &'static str,
    path: Vec<&'static str>,
    walked: Vec<String>,
    nested: Vec<String>,
}

impl Perturb {
    fn at(&self, name: &str) -> String {
        let mut parts = self.path.clone();
        parts.push(name);
        parts.join(".")
    }
}

/// Leaves a record's shape fixes: the version stamp and a family's label.
const FIXED: [&str; 2] = ["v", "family"];

impl Walker for Perturb {
    fn leaf<T: Leaf>(&mut self, name: &'static str, value: &T, _: Rule) -> Result<T, JsonError> {
        self.walked.push(self.at(name));
        self.leaves += 1;
        if self.leaves - 1 != self.target {
            return Ok(value.clone());
        }
        self.hit = name;
        if FIXED.contains(&name) {
            return Ok(value.clone());
        }
        Ok(perturbed(value))
    }

    fn nested<R: Record>(&mut self, name: &'static str, value: &R) -> Result<R, JsonError> {
        let path = self.at(name);
        self.walked.push(path.clone());
        self.nested.push(path);
        self.path.push(name);
        let record = value.walk(self);
        self.path.pop();
        record
    }
}

/// A different value of the same type: numbers move by one, booleans
/// flip, `null` becomes a number or a string, an array moves its last
/// element, an object one of its fields, and a string becomes another
/// spelling its type accepts.
fn perturbed<T: Leaf>(value: &T) -> T {
    fn bump(v: &Json) -> Vec<Json> {
        match v {
            Json::Num(n) => vec![Json::Num(n + 1.0)],
            Json::Bool(b) => vec![Json::Bool(!b)],
            Json::Null => vec![Json::Num(1.0), Json::Str("x".into())],
            Json::Str(s) => {
                let mut last_digit = s.clone();
                last_digit.pop();
                last_digit.push(if s.ends_with('0') { '1' } else { '0' });
                let spellings = ["inorder", "LTAGE", "LocalBP", "on", "topdown"];
                [format!("{s}x"), last_digit]
                    .into_iter()
                    .chain(spellings.map(str::to_string))
                    .map(Json::Str)
                    .collect()
            }
            Json::Arr(items) => {
                let (last, head) = items.split_last().expect("no empty array fields");
                let rebuilt = |last: Json| Json::Arr(head.iter().cloned().chain([last]).collect());
                bump(last).into_iter().map(rebuilt).collect()
            }
            Json::Obj(fields) => (0..fields.len())
                .flat_map(|i| {
                    bump(&fields[i].1).into_iter().map(move |v| {
                        let mut fields = fields.clone();
                        fields[i].1 = v;
                        Json::Obj(fields)
                    })
                })
                .collect(),
        }
    }
    let before = value.to_json();
    bump(&before)
        .iter()
        .filter_map(|candidate| T::from_json(candidate).ok())
        .find(|v| v.to_json() != before)
        .unwrap_or_else(|| panic!("no way to perturb {}", before.render()))
}

/// The keys of `v`, and of every nested section the walk entered, as
/// dotted paths in document order.
fn emitted(v: &Json, prefix: &str, nested: &[String], out: &mut Vec<String>) {
    for (k, child) in v.as_obj().expect("a record writes an object") {
        let path = if prefix.is_empty() {
            k.clone()
        } else {
            format!("{prefix}.{k}")
        };
        out.push(path.clone());
        if nested.contains(&path) {
            emitted(child, &path, nested, out);
        }
    }
}

/// The per-field contract, reading documents back with `read` and, for
/// records that have one, hashing with `digest`.
fn every_field_roundtrips<R>(
    base: &R,
    read: impl Fn(&Json) -> Result<R, JsonError>,
    digest: Option<fn(&R) -> u64>,
) where
    R: Record + PartialEq + std::fmt::Debug,
{
    let walk = |target| {
        let mut w = Perturb {
            target,
            ..Perturb::default()
        };
        let record = base.walk(&mut w).expect("perturbing cannot fail");
        (record, w)
    };
    let (same, counted) = walk(usize::MAX);
    assert_eq!(same, *base);
    let mut keys = Vec::new();
    emitted(&schema::write(base), "", &counted.nested, &mut keys);
    assert_eq!(counted.walked, keys, "{base:?}");
    for target in 0..counted.leaves {
        let (variant, w) = walk(target);
        if FIXED.contains(&w.hit) {
            continue;
        }
        assert_ne!(variant, *base, "{} did not change", w.hit);
        let wire = schema::write(&variant);
        assert_ne!(wire, schema::write(base), "{} is not written", w.hit);
        let back = read(&Json::parse(&wire.pretty()).expect("renders as JSON"))
            .unwrap_or_else(|e| panic!("{}: {e}", w.hit));
        assert_eq!(back, variant, "{} does not round-trip", w.hit);
        if let Some(digest) = digest {
            assert_ne!(digest(&variant), digest(base), "{} is not hashed", w.hit);
            assert_eq!(digest(&back), digest(&variant), "{}", w.hit);
        }
    }
}

/// Reads a complete document over `base` — the listing alone, without
/// the validation a document's own reader adds.
fn exact<R: Record>(base: &R) -> impl Fn(&Json) -> Result<R, JsonError> + '_ {
    move |v| schema::read_exact(base, v, "")
}

#[test]
fn every_machine_parameter_is_hashed_and_roundtrips() {
    for config in [CoreConfig::gem5_baseline(), CoreConfig::host_like()] {
        every_field_roundtrips(
            &config,
            CoreConfig::from_json,
            Some(CoreConfig::stable_digest),
        );
    }
}

#[test]
fn every_scenario_field_of_every_family_is_hashed_and_roundtrips() {
    for family in Family::all_canonical() {
        let spec = ScenarioSpec::new(format!("t-{}", family.label()), family);
        every_field_roundtrips(
            &spec,
            ScenarioSpec::from_json,
            Some(ScenarioSpec::stable_digest),
        );
    }
}

#[test]
fn every_option_and_sampling_field_roundtrips() {
    let object = SamplingConfig {
        intervals: 16,
        warmup_frac: 0.5,
    };
    for opts in [
        SimOptions::default(),
        SimOptions::new(20_000).with_sampling(SamplingConfig::smarts(8)),
        SimOptions::new(20_000).with_sampling(object.clone()),
        SimOptions::new(1_000_000).with_model(ModelKind::Analytic),
    ] {
        every_field_roundtrips(&opts, exact(&opts), None);
    }
    for sampling in [object, SamplingConfig::smarts(8)] {
        every_field_roundtrips(
            &sampling,
            exact(&sampling),
            Some(SamplingConfig::stable_digest),
        );
    }
}

#[test]
fn every_campaign_spec_field_roundtrips() {
    let smoke = include_str!("../examples/smoke.json");
    let spec = CampaignSpec::parse(smoke).expect("smoke spec parses");
    every_field_roundtrips(&spec, exact(&spec), None);
}

#[test]
fn every_job_and_done_marker_field_roundtrips() {
    let job = JobDoc::decode(include_str!("golden/specs/job.json")).expect("golden decodes");
    every_field_roundtrips(&job, exact(&job), None);
    for error in [None, Some("pipeline wedged".to_string())] {
        let done = DoneDoc {
            digest: 0xdead_beef_0123_4567,
            worker: "w1".to_string(),
            wall_s: 1.25,
            stolen: true,
            error,
        };
        every_field_roundtrips(&done, exact(&done), None);
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
