//! Hostile documents for the document readers' fuzz tests: byte flips
//! and truncations of a known-good document, each key's value swapped
//! for a value of every other JSON type, and random JSON trees drawn
//! with the in-repo proptest shim. A reader fed any of them must answer
//! `Ok` or `Err`, never panic, and whatever it accepts must re-encode to
//! a fixed point.

use belenos_json::Json;
use proptest::{Strategy, TestRng};
use std::fmt::Display;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Every truncation of `doc`, and every flip of one of the seven low
/// bits of each byte (an ASCII document stays a string).
pub fn mutations(doc: &str) -> Vec<String> {
    let bytes = doc.as_bytes();
    let truncations = (0..bytes.len()).map(|n| bytes[..n].to_vec());
    let flips = (0..bytes.len()).flat_map(|i| {
        (0..7).map(move |bit| {
            let mut b = bytes.to_vec();
            b[i] ^= 1 << bit;
            b
        })
    });
    truncations
        .chain(flips)
        .filter_map(|b| String::from_utf8(b).ok())
        .collect()
}

/// One value of each JSON type.
fn one_of_each() -> [Json; 6] {
    [
        Json::Null,
        Json::Bool(true),
        Json::Num(3.0),
        Json::Str("x".into()),
        Json::Arr(vec![]),
        Json::Obj(vec![]),
    ]
}

fn same_type(a: &Json, b: &Json) -> bool {
    std::mem::discriminant(a) == std::mem::discriminant(b)
}

/// `doc` with one key's value, at any depth, replaced by a value of
/// another JSON type — every key, every other type.
pub fn type_swaps(doc: &Json) -> Vec<Json> {
    let mut out = Vec::new();
    match doc {
        Json::Obj(fields) => {
            for (i, (_, value)) in fields.iter().enumerate() {
                let rebuilt = |v: Json| {
                    let mut fields = fields.clone();
                    fields[i].1 = v;
                    Json::Obj(fields)
                };
                let others = one_of_each().into_iter().filter(|o| !same_type(o, value));
                out.extend(others.map(rebuilt));
                out.extend(type_swaps(value).into_iter().map(rebuilt));
            }
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                let rebuilt = |v: Json| {
                    let mut items = items.clone();
                    items[i] = v;
                    Json::Arr(items)
                };
                out.extend(type_swaps(item).into_iter().map(rebuilt));
            }
        }
        _ => {}
    }
    out
}

/// Every key of every object in `doc`, at any depth.
pub fn keys(doc: &Json, out: &mut Vec<String>) {
    match doc {
        Json::Obj(fields) => {
            for (k, v) in fields {
                if !out.contains(k) {
                    out.push(k.clone());
                }
                keys(v, out);
            }
        }
        Json::Arr(items) => items.iter().for_each(|v| keys(v, out)),
        _ => {}
    }
}

/// Random JSON trees up to `depth` deep, whose object keys and strings
/// come from `words` — the readers' own vocabulary, so a tree gets past
/// the first unknown-key check often enough to reach the fields behind it.
pub struct Trees {
    /// Deepest nesting drawn.
    pub depth: usize,
    /// Keys and string values to draw from.
    pub words: Vec<String>,
}

impl Trees {
    fn pick<'a, T>(rng: &mut TestRng, from: &'a [T]) -> &'a T {
        &from[(rng.next_u64() % from.len() as u64) as usize]
    }

    fn tree(&self, rng: &mut TestRng, depth: usize) -> Json {
        let kinds = if depth == 0 { 4 } else { 6 };
        match rng.next_u64() % kinds {
            0 => Json::Null,
            1 => Json::Bool(rng.next_u64().is_multiple_of(2)),
            2 => Json::Num(*Self::pick(
                rng,
                &[0.0, 1.0, -1.0, 2.5, 8.0, 65.0, 1e6, 1e300],
            )),
            3 => Json::Str(Self::pick(rng, &self.words).clone()),
            4 => {
                let n = rng.next_u64() % 4;
                Json::Arr((0..n).map(|_| self.tree(rng, depth - 1)).collect())
            }
            _ => {
                let n = rng.next_u64() % 6;
                let field = |rng: &mut TestRng| {
                    let key = Self::pick(rng, &self.words).clone();
                    (key, self.tree(rng, depth - 1))
                };
                Json::Obj((0..n).map(|_| field(rng)).collect())
            }
        }
    }
}

impl Strategy for Trees {
    type Value = Json;

    fn sample(&self, rng: &mut TestRng) -> Json {
        self.tree(rng, self.depth)
    }
}

/// Feeds `input` to `read`: a panic fails with the input named, and an
/// accepted document must re-encode (with `encode`) to a fixed point.
pub fn check<T, E: Display>(
    input: &str,
    read: impl Fn(&str) -> Result<T, E>,
    encode: impl Fn(&T) -> String,
) {
    let outcome = catch_unwind(AssertUnwindSafe(|| read(input)));
    let Ok(read_back) = outcome else {
        panic!("the reader panicked on:\n{input}");
    };
    let Ok(value) = read_back else { return };
    let once = encode(&value);
    let again = read(&once)
        .unwrap_or_else(|e| panic!("refused its own encoding ({e}) of:\n{input}\n---\n{once}"));
    assert_eq!(encode(&again), once, "no fixed point for:\n{input}");
}
