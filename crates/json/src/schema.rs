//! One listing per spec record.
//!
//! A [`Record`] lists its fields **once** — name, value and, where it has
//! one, a range [`Rule`] — in [`Record::walk`] (usually through
//! [`record!`](crate::record)). Everything that would otherwise spell
//! the fields out again is a [`Walker`] over that listing:
//!
//! * JSON out — [`write()`], and [`ToJson`] for every `record!`;
//! * JSON in — [`read`] / [`read_exact`]: the unknown-key allow-list,
//!   the "expected an object" check on every nested section and the
//!   `path.key:` error prefixes all come from the walk;
//! * the bytes a stable digest hashes — [`feed`], in listing order;
//! * validation — [`check`], from the rules on the listing.
//!
//! The walk *rebuilds* the record: a walker hands every field back (the
//! reader from the document, the others unchanged) and the struct
//! literal collecting them is the exhaustiveness guard. A field the
//! listing forgets does not compile (`E0027: pattern does not mention
//! field`, `E0063: missing field in initializer`), so it can never
//! silently alias a cache entry or drop out of the wire format.

use crate::{FromJson, Json, JsonError, ToJson};

/// The range constraint on a numeric field (applied to every element
/// of an array field and to the payload of an optional one).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Unconstrained beyond the field's type.
    Any,
    /// Finite.
    Finite,
    /// Finite and strictly positive.
    Positive,
    /// Within the inclusive range.
    Within(f64, f64),
    /// Strictly between the bounds.
    Between(f64, f64),
}

impl Rule {
    /// A count of at least one.
    pub const COUNT: Rule = Rule::Within(1.0, f64::INFINITY);

    /// Checks one number; the error is what it must do (` must be
    /// positive`), for the caller to prefix with the field's path.
    fn admit(self, v: f64) -> Result<(), String> {
        let must = match self {
            Rule::Finite | Rule::Positive if !v.is_finite() => "be finite".to_string(),
            Rule::Positive if v <= 0.0 => "be positive".to_string(),
            Rule::Within(lo, hi) if !(lo..=hi).contains(&v) && hi == f64::INFINITY => {
                format!("be at least {lo}")
            }
            Rule::Within(lo, hi) if !(lo..=hi).contains(&v) => format!("lie in {lo}..={hi}"),
            Rule::Between(lo, hi) if !(v > lo && v < hi) => format!("lie in ({lo}, {hi})"),
            _ => return Ok(()),
        };
        Err(format!(" must {must}"))
    }
}

/// A value a record field can hold: it has a JSON form both ways, a
/// canonical byte encoding for stable digests, and numbers a [`Rule`]
/// can constrain.
pub trait Leaf: ToJson + FromJson + Clone {
    /// Hands `sink` the bytes a stable digest hashes for this value.
    fn feed(&self, sink: &mut dyn FnMut(&[u8]));

    /// Checks the value's numbers against `rule`. Non-numeric leaves
    /// have nothing to check.
    ///
    /// # Errors
    ///
    /// What the first number outside the rule must do, to be appended
    /// to the field's path: ` must be positive`, `[1] must be positive`.
    fn check(&self, _rule: Rule) -> Result<(), String> {
        Ok(())
    }
}

/// Something done to every field of a record, in listing order. Each
/// visit returns the field's value for the rebuilt record.
pub trait Walker {
    /// Visits a leaf field.
    ///
    /// # Errors
    ///
    /// Whatever this walker rejects: a malformed document value, a
    /// violated rule.
    fn leaf<T: Leaf>(&mut self, name: &'static str, value: &T, rule: Rule) -> Result<T, JsonError>;

    /// Visits a field that is itself a record.
    ///
    /// # Errors
    ///
    /// The nested walk's first error.
    fn nested<R: Record>(&mut self, name: &'static str, value: &R) -> Result<R, JsonError>;
}

/// A spec record: a struct (or an enum of struct variants) whose fields
/// are listed exactly once, in [`Record::walk`].
pub trait Record: Clone {
    /// Visits every field in order and rebuilds the record from what
    /// the walker returns.
    ///
    /// # Errors
    ///
    /// The walker's first error.
    fn walk<W: Walker>(&self, w: &mut W) -> Result<Self, JsonError>;
}

/// Implements [`Record`](crate::schema::Record) and [`ToJson`](crate::ToJson)
/// from one listing of `field: Rule` lines — `record!(Point { x: Finite,
/// y: Within(0.0, 1.0), origin: record })` for a struct, `record!(enum
/// Shape { Dot {}, Disc { r: Positive } })` for an enum of struct
/// variants. The rule is a [`Rule`](crate::schema::Rule) variant or
/// constant; `record` marks a field that is itself a record. The JSON
/// key is the field's name, and the listing destructures without `..`,
/// so a field it omits is a compile error.
#[macro_export]
macro_rules! record {
    (enum $ty:ident { $($variant:ident { $($field:ident: $how:ident $(($($arg:expr),*))?),* $(,)? }),+ $(,)? }) => {
        impl $crate::schema::Record for $ty {
            fn walk<W: $crate::schema::Walker>(&self, w: &mut W) -> Result<Self, $crate::JsonError> {
                Ok(match self {
                    $($ty::$variant { $($field),* } => $ty::$variant {
                        $($field: $crate::record!(@visit w $field $how $(($($arg),*))?)),*
                    },)+
                })
            }
        }
        $crate::record!(@json $ty);
    };
    ($ty:ident { $($field:ident: $how:ident $(($($arg:expr),*))?),* $(,)? }) => {
        impl $crate::schema::Record for $ty {
            fn walk<W: $crate::schema::Walker>(&self, w: &mut W) -> Result<Self, $crate::JsonError> {
                let $ty { $($field),* } = self;
                Ok($ty { $($field: $crate::record!(@visit w $field $how $(($($arg),*))?)),* })
            }
        }
        $crate::record!(@json $ty);
    };
    (@json $ty:ident) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::schema::write(self)
            }
        }
    };
    (@visit $w:ident $field:ident record) => {
        $crate::schema::Walker::nested($w, stringify!($field), $field)?
    };
    (@visit $w:ident $field:ident $how:ident $(($($arg:expr),*))?) => {
        $crate::schema::Walker::leaf(
            $w,
            stringify!($field),
            $field,
            $crate::schema::Rule::$how $(($($arg),*))?,
        )?
    };
}

/// `path.name`, or just `name` at the root.
fn at(path: &str, name: &str) -> String {
    if path.is_empty() {
        name.to_string()
    } else {
        format!("{path}.{name}")
    }
}

/// `path: what`, or just `what` at the root.
fn fail(path: &str, what: impl std::fmt::Display) -> JsonError {
    if path.is_empty() {
        JsonError::new(what.to_string())
    } else {
        JsonError::new(format!("{path}: {what}"))
    }
}

struct Writer(Vec<(String, Json)>);

impl Walker for Writer {
    fn leaf<T: Leaf>(&mut self, name: &'static str, value: &T, _: Rule) -> Result<T, JsonError> {
        self.0.push((name.to_string(), value.to_json()));
        Ok(value.clone())
    }

    fn nested<R: Record>(&mut self, name: &'static str, value: &R) -> Result<R, JsonError> {
        self.0.push((name.to_string(), write(value)));
        Ok(value.clone())
    }
}

/// The record as a JSON object, one key per listed field.
pub fn write<R: Record>(record: &R) -> Json {
    let mut w = Writer(Vec::new());
    record
        .walk(&mut w)
        .expect("a writer hands every field back unchanged");
    Json::Obj(w.0)
}

struct Reader<'a> {
    fields: &'a [(String, Json)],
    path: &'a str,
    /// Every listed field must be present (a wire format), as opposed
    /// to absent fields keeping the value of the record read over.
    exact: bool,
    listed: Vec<&'static str>,
}

impl<'a> Reader<'a> {
    fn find(&mut self, name: &'static str) -> Result<Option<&'a Json>, JsonError> {
        self.listed.push(name);
        let found = self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        if found.is_none() && self.exact {
            return Err(fail(self.path, format!("missing field `{name}`")));
        }
        Ok(found)
    }
}

/// A leaf's error under the field's path. A leaf that reads an object
/// names the field itself (`scenario.mesh: …`, as a scenario read alone
/// does): the path continues from that name instead of repeating it.
fn within(path: &str, name: &str, e: JsonError) -> JsonError {
    match e.message.strip_prefix(name) {
        Some(rest) if rest.starts_with(['.', ':', '[']) => JsonError::new(format!("{path}{rest}")),
        _ => fail(path, e),
    }
}

impl Walker for Reader<'_> {
    fn leaf<T: Leaf>(&mut self, name: &'static str, value: &T, _: Rule) -> Result<T, JsonError> {
        match self.find(name)? {
            Some(v) => T::from_json(v).map_err(|e| within(&at(self.path, name), name, e)),
            None => Ok(value.clone()),
        }
    }

    fn nested<R: Record>(&mut self, name: &'static str, value: &R) -> Result<R, JsonError> {
        match self.find(name)? {
            Some(v) => read_object(value, v, &at(self.path, name), self.exact),
            None => Ok(value.clone()),
        }
    }
}

fn read_object<R: Record>(over: &R, v: &Json, path: &str, exact: bool) -> Result<R, JsonError> {
    let fields = v.as_obj().ok_or_else(|| fail(path, "expected an object"))?;
    let mut reader = Reader {
        fields,
        path,
        exact,
        listed: Vec::new(),
    };
    let record = over.walk(&mut reader)?;
    // A misspelled key must fail loudly, not silently keep a default.
    match fields
        .iter()
        .find(|(k, _)| !reader.listed.contains(&k.as_str()))
    {
        Some((k, _)) => Err(fail(
            path,
            format!(
                "unknown field `{k}` (expected one of: {})",
                reader.listed.join(", ")
            ),
        )),
        None => Ok(record),
    }
}

/// Reads a record from the JSON object `v`, field by field over
/// `defaults`: an absent key (or nested section) keeps `defaults`' value.
/// `path` prefixes every error (`path.section.key: ...`; `""` for none).
///
/// # Errors
///
/// `v` or a nested section is not an object, a key is not listed, or a
/// value does not parse as its field's type.
pub fn read<R: Record>(defaults: &R, v: &Json, path: &str) -> Result<R, JsonError> {
    read_object(defaults, v, path, false)
}

/// [`read`] for a wire format: every listed field must be present
/// (`shape` only says which fields there are).
///
/// # Errors
///
/// As [`read`], plus a missing field.
pub fn read_exact<R: Record>(shape: &R, v: &Json, path: &str) -> Result<R, JsonError> {
    read_object(shape, v, path, true)
}

struct Feeder<'a>(&'a mut dyn FnMut(&[u8]));

impl Walker for Feeder<'_> {
    fn leaf<T: Leaf>(&mut self, _: &'static str, value: &T, _: Rule) -> Result<T, JsonError> {
        value.feed(self.0);
        Ok(value.clone())
    }

    fn nested<R: Record>(&mut self, _: &'static str, value: &R) -> Result<R, JsonError> {
        value.walk(self)
    }
}

/// Hands `sink` the canonical bytes of every field, in listing order —
/// what the record's stable digest hashes.
pub fn feed<R: Record>(record: &R, sink: &mut dyn FnMut(&[u8])) {
    record
        .walk(&mut Feeder(sink))
        .expect("a feeder hands every field back unchanged");
}

struct Checker<'a>(&'a str);

impl Walker for Checker<'_> {
    fn leaf<T: Leaf>(&mut self, name: &'static str, value: &T, rule: Rule) -> Result<T, JsonError> {
        match value.check(rule) {
            Ok(()) => Ok(value.clone()),
            Err(must) => Err(JsonError::new(format!("{}{must}", at(self.0, name)))),
        }
    }

    fn nested<R: Record>(&mut self, name: &'static str, value: &R) -> Result<R, JsonError> {
        value.walk(&mut Checker(&at(self.0, name)))
    }
}

/// Checks every field against the rule on its listing.
///
/// # Errors
///
/// The first violated rule, naming the field as `path.section.key`.
pub fn check<R: Record>(record: &R, path: &str) -> Result<(), JsonError> {
    record.walk(&mut Checker(path)).map(|_| ())
}

// --- leaves ---------------------------------------------------------------

/// Integers hash as a little-endian `u64` and are range-checked as `f64`.
macro_rules! integer_leaves {
    ($($t:ty),*) => {$(
        #[allow(clippy::unnecessary_cast)] // `u64 as u64`, for the one arm
        impl Leaf for $t {
            fn feed(&self, sink: &mut dyn FnMut(&[u8])) {
                sink(&(*self as u64).to_le_bytes());
            }

            fn check(&self, rule: Rule) -> Result<(), String> {
                rule.admit(*self as f64)
            }
        }
    )*};
}

integer_leaves!(usize, u64, u32);

impl Leaf for f64 {
    /// The exact bit pattern.
    fn feed(&self, sink: &mut dyn FnMut(&[u8])) {
        self.to_bits().feed(sink);
    }

    fn check(&self, rule: Rule) -> Result<(), String> {
        rule.admit(*self)
    }
}

impl Leaf for bool {
    fn feed(&self, sink: &mut dyn FnMut(&[u8])) {
        u64::from(*self).feed(sink);
    }
}

/// Feeds a string the way every string leaf hashes: length-prefixed, so
/// `"ab","c"` ≠ `"a","bc"`. For leaves that hash as a `&'static str`
/// label.
pub fn feed_str(s: &str, sink: &mut dyn FnMut(&[u8])) {
    s.len().feed(sink);
    sink(s.as_bytes());
}

impl Leaf for String {
    fn feed(&self, sink: &mut dyn FnMut(&[u8])) {
        feed_str(self, sink);
    }
}

impl<T: Leaf> Leaf for Option<T> {
    /// A presence word, then the payload.
    fn feed(&self, sink: &mut dyn FnMut(&[u8])) {
        u64::from(self.is_some()).feed(sink);
        if let Some(v) = self {
            v.feed(sink);
        }
    }

    fn check(&self, rule: Rule) -> Result<(), String> {
        self.as_ref().map_or(Ok(()), |v| v.check(rule))
    }
}

/// Checks every element, naming the first offender by index.
fn check_each<T: Leaf>(items: &[T], rule: Rule) -> Result<(), String> {
    let indexed = |(i, v): (usize, &T)| v.check(rule).map_err(|e| format!("[{i}]{e}"));
    items.iter().enumerate().try_for_each(indexed)
}

impl<T: Leaf, const N: usize> Leaf for [T; N] {
    fn feed(&self, sink: &mut dyn FnMut(&[u8])) {
        self.iter().for_each(|v| v.feed(sink));
    }

    fn check(&self, rule: Rule) -> Result<(), String> {
        check_each(self, rule)
    }
}

impl<T: Leaf> Leaf for Vec<T> {
    /// A length word, then the elements.
    fn feed(&self, sink: &mut dyn FnMut(&[u8])) {
        self.len().feed(sink);
        self.iter().for_each(|v| v.feed(sink));
    }

    fn check(&self, rule: Rule) -> Result<(), String> {
        check_each(self, rule)
    }
}

/// A 64-bit digest on the wire: 16 hex digits in a string, since JSON
/// numbers are `f64` and would round it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hex(pub u64);

impl ToJson for Hex {
    fn to_json(&self) -> Json {
        Json::Str(format!("{:016x}", self.0))
    }
}

impl FromJson for Hex {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_str() {
            Some(s) if s.len() == 16 && s.bytes().all(|b| b.is_ascii_hexdigit()) => {
                Ok(Hex(u64::from_str_radix(s, 16).expect("16 hex digits")))
            }
            _ => Err(JsonError::new("expected a 16-hex-digit string")),
        }
    }
}

impl Leaf for Hex {
    fn feed(&self, sink: &mut dyn FnMut(&[u8])) {
        self.0.feed(sink);
    }
}

/// A wire format's version stamp: written as `V`, and any other value
/// refused on read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Version<const V: usize>;

impl<const V: usize> ToJson for Version<V> {
    fn to_json(&self) -> Json {
        V.to_json()
    }
}

impl<const V: usize> FromJson for Version<V> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match usize::from_json(v)? {
            n if n == V => Ok(Version),
            n => Err(JsonError::new(format!("unsupported version {n}"))),
        }
    }
}

impl<const V: usize> Leaf for Version<V> {
    fn feed(&self, sink: &mut dyn FnMut(&[u8])) {
        V.feed(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Inner {
        n: usize,
        seed: Option<u64>,
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Outer {
        name: String,
        k: [f64; 3],
        on: bool,
        inner: Inner,
    }

    #[derive(Debug, Clone, PartialEq)]
    enum Shape {
        Dot {},
        Disc { r: f64 },
    }

    record!(Inner {
        n: Within(1.0, 64.0),
        seed: Any
    });
    record!(Outer {
        name: Any,
        k: Positive,
        on: Any,
        inner: record
    });
    record!(enum Shape { Dot {}, Disc { r: Between(0.0, 2.0) } });

    fn outer() -> Outer {
        Outer {
            name: "a".into(),
            k: [1.0, 2.0, 3.0],
            on: true,
            inner: Inner { n: 3, seed: None },
        }
    }

    #[test]
    fn a_record_roundtrips_in_listing_order() {
        let v = outer().to_json();
        assert_eq!(
            v.render(),
            r#"{"name":"a","k":[1,2,3],"on":true,"inner":{"n":3,"seed":null}}"#
        );
        assert_eq!(read_exact(&outer(), &v, "o").unwrap(), outer());
        let disc = Shape::Disc { r: 1.5 };
        assert_eq!(
            read(&Shape::Disc { r: 0.0 }, &disc.to_json(), "s").unwrap(),
            disc
        );
        assert_eq!(Shape::Dot {}.to_json().render(), "{}");
    }

    #[test]
    fn reading_over_defaults_keeps_what_the_document_omits() {
        let doc = Json::parse(r#"{"inner": {"seed": 7}, "on": false}"#).unwrap();
        let got = read(&outer(), &doc, "").unwrap();
        assert_eq!(
            got.inner,
            Inner {
                n: 3,
                seed: Some(7)
            }
        );
        assert!(!got.on);
        assert_eq!(got.k, outer().k);
        let e = read_exact(&outer(), &doc, "o").unwrap_err();
        assert_eq!(e.message, "o: missing field `name`");
    }

    #[test]
    fn malformed_documents_name_the_path() {
        for (doc, message) in [
            (r#"{"inner": 5}"#, "o.inner: expected an object"),
            (r#"[]"#, "o: expected an object"),
            (
                r#"{"inner": {"m": 1}}"#,
                "o.inner: unknown field `m` (expected one of: n, seed)",
            ),
            (
                r#"{"inner": {"n": -1}}"#,
                "o.inner.n: expected a non-negative integer",
            ),
            (r#"{"k": [1, 2]}"#, "o.k: expected an array of 3 values"),
        ] {
            let e = read(&outer(), &Json::parse(doc).unwrap(), "o").unwrap_err();
            assert_eq!(e.message, message);
        }
    }

    #[test]
    fn a_root_read_has_no_prefix_and_a_self_naming_leaf_continues_its_path() {
        let e = read(&outer(), &Json::parse(r#"{"x": 1}"#).unwrap(), "").unwrap_err();
        assert!(e.message.starts_with("unknown field `x`"), "{e}");
        let e = read_exact(&outer(), &Json::parse("{}").unwrap(), "").unwrap_err();
        assert_eq!(e.message, "missing field `name`");
        // `Inner` read as a leaf under `inner` names its own fields.
        assert_eq!(
            within("o.inner", "inner", JsonError::new("inner.n: bad")).message,
            "o.inner.n: bad"
        );
        assert_eq!(
            within("o.inner", "inner", JsonError::new("inner: bad")).message,
            "o.inner: bad"
        );
        assert_eq!(
            within("o.inner", "inner", JsonError::new("innermost")).message,
            "o.inner: innermost"
        );
    }

    #[test]
    fn wire_leaves_spell_digests_versions_and_lists() {
        let hex = Hex(0xdead_beef_0123_4567);
        assert_eq!(hex.to_json(), Json::Str("deadbeef01234567".into()));
        assert_eq!(Hex::from_json(&hex.to_json()).unwrap(), hex);
        for bad in [r#""deadbeef""#, r#""+eadbeef01234567""#, "5"] {
            assert!(Hex::from_json(&Json::parse(bad).unwrap()).is_err(), "{bad}");
        }
        assert_eq!(Version::<1>.to_json(), Json::Num(1.0));
        let e = Version::<1>::from_json(&Json::Num(2.0)).unwrap_err();
        assert_eq!(e.message, "unsupported version 2");
        let mut bytes = Vec::new();
        vec![7u64].feed(&mut |b| bytes.extend_from_slice(b));
        assert_eq!(bytes, [1u64.to_le_bytes(), 7u64.to_le_bytes()].concat());
        assert_eq!(
            vec![1.0, 0.0].check(Rule::Positive).unwrap_err(),
            "[1] must be positive"
        );
    }

    #[test]
    fn rules_name_the_field_and_the_element() {
        assert!(check(&outer(), "").is_ok());
        let mut bad = outer();
        bad.k[1] = 0.0;
        assert_eq!(
            check(&bad, "").unwrap_err().message,
            "k[1] must be positive"
        );
        let mut bad = outer();
        bad.inner.n = 65;
        assert_eq!(
            check(&bad, "o").unwrap_err().message,
            "o.inner.n must lie in 1..=64"
        );
        let e = check(&Shape::Disc { r: 2.0 }, "s").unwrap_err();
        assert_eq!(e.message, "s.r must lie in (0, 2)");
        assert_eq!(Rule::COUNT.admit(0.0).unwrap_err(), " must be at least 1");
        assert!(Rule::Finite.admit(f64::NAN).is_err());
        assert!(Rule::Positive.admit(f64::INFINITY).is_err());
    }

    #[test]
    fn fed_bytes_are_little_endian_words_and_prefixed_strings() {
        let mut bytes = Vec::new();
        feed(&outer(), &mut |b| bytes.extend_from_slice(b));
        let mut want = Vec::new();
        want.extend(1u64.to_le_bytes());
        want.extend(b"a");
        for k in [1.0f64, 2.0, 3.0] {
            want.extend(k.to_bits().to_le_bytes());
        }
        want.extend(1u64.to_le_bytes()); // on
        want.extend(3u64.to_le_bytes()); // inner.n
        want.extend(0u64.to_le_bytes()); // inner.seed: absent
        assert_eq!(bytes, want);
        let mut some = Vec::new();
        Some(9u64).feed(&mut |b| some.extend_from_slice(b));
        assert_eq!(some, [1u64.to_le_bytes(), 9u64.to_le_bytes()].concat());
    }
}
