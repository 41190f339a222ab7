//! Versioned binary serialization for prepared traces.
//!
//! A [`TraceArtifact`] bundles everything the prepare phase produces for
//! one scenario — the [`PhaseLog`], solve metadata, and (optionally) the
//! fully expanded [`FlatTrace`] — into a self-describing byte format that
//! the content-addressed trace store in `belenos-core` persists to disk.
//!
//! Format contract:
//!
//! * **Std-only, no external crates.** Little-endian fixed-width fields
//!   written and read through small internal byte-cursor helpers.
//! * **Versioned.** The header carries [`STORE_VERSION`]; any other
//!   version is a clean [`StoreError::Version`] so readers recompute
//!   instead of misinterpreting bytes.
//! * **Sectioned for partial reads.** A fixed-size [`StoreHeader`]
//!   declares the byte length of the log and flat sections, each of
//!   which carries its own trailing checksum. A store hit at prepare
//!   time reads and verifies only the (small) log section; the flat
//!   section — megabytes for long traces — is decoded lazily via
//!   [`TraceArtifact::decode_flat`] when a simulation first wants it.
//! * **Checksummed.** An FNV-64 follows each section; truncation or
//!   corruption surfaces as [`StoreError::Truncated`] /
//!   [`StoreError::Checksum`], never as a wrong trace.
//! * **Arc-deduplicated.** `KernelCall`s hold `Arc`s to shared index
//!   structures (CSR patterns, factor columns, contact outcomes). Each
//!   distinct allocation is written once into a table and referenced by
//!   index, and decoding rebuilds *shared* `Arc`s — so the on-disk size
//!   and the decoded memory footprint both match the live log, and
//!   pointer-identity memoization downstream keeps working.
//!
//! Exact round-tripping is load-bearing: the embedded trace fingerprint
//! is recomputed over the decoded log on load, so any encoding loss would
//! show up as a persistent cache miss, not silent drift.

use crate::digest::Fnv64;
use crate::flat::FlatTrace;
use crate::op::{FnCategory, MicroOp, OpKind};
use crate::program::{ArcMemo, KernelCall, MaterialClass, PhaseLog, PrecondClass, Source, Walker};
use belenos_sparse::CsrPattern;
use std::fmt;
use std::sync::Arc;

/// Magic bytes opening every store file.
pub const STORE_MAGIC: &[u8; 12] = b"BELENOSTRACE";

/// Current format version. Bump on any layout change.
pub const STORE_VERSION: u32 = 1;

/// Why a byte buffer failed to decode as a [`TraceArtifact`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Buffer ended before a field completed (truncated file).
    Truncated,
    /// Leading magic bytes are not [`STORE_MAGIC`].
    BadMagic,
    /// Header version differs from [`STORE_VERSION`].
    Version {
        /// Version found in the header.
        found: u32,
    },
    /// Payload checksum mismatch (bit rot / partial write).
    Checksum,
    /// Structurally invalid payload (bad enum tag, index out of range…).
    Malformed(&'static str),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Truncated => write!(f, "trace store file truncated"),
            StoreError::BadMagic => write!(f, "not a belenos trace store file"),
            StoreError::Version { found } => {
                write!(f, "trace store version {found} (expected {STORE_VERSION})")
            }
            StoreError::Checksum => write!(f, "trace store payload checksum mismatch"),
            StoreError::Malformed(what) => write!(f, "malformed trace store payload: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Solve metadata carried alongside the log so a store hit can
/// reconstruct the prepare result without re-running the solver.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveMeta {
    /// Whole seconds of the original solve wall time.
    pub wall_secs: u64,
    /// Sub-second nanoseconds of the original solve wall time.
    pub wall_subsec_nanos: u32,
    /// Linear-system dof count.
    pub n_dofs: usize,
    /// Newton iterations taken across all steps.
    pub iterations: usize,
    /// Estimated working-set size in KiB.
    pub size_kb: f64,
    /// Whether every step converged.
    pub converged: bool,
}

/// Bytes of the fixed-size file header: magic, version, the three key
/// fields, and the three section-length fields.
pub const HEADER_LEN: usize = 12 + 4 + 8 * 6;

/// Encoded size of one [`MicroOp`] in the flat section.
const OP_ENC_LEN: u64 = 28;

/// The decoded fixed-size header of a store file: everything needed to
/// key-check an entry and locate its sections without reading them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreHeader {
    /// `ScenarioSpec::stable_digest()` of the source scenario.
    pub scenario_digest: u64,
    /// Fingerprint of the expansion config the trace was prepared under.
    pub expand_fingerprint: u64,
    /// [`trace_fingerprint`](crate::trace_fingerprint)`(log, expand)` at
    /// encode time.
    pub trace_fingerprint: u64,
    /// Byte length of the log section (excluding its checksum).
    pub log_len: u64,
    /// Micro-op count of the flat section; 0 = no flat section.
    pub flat_ops: u64,
    /// Byte length of the flat section (excluding its checksum).
    pub flat_len: u64,
}

impl StoreHeader {
    /// Decodes and validates the fixed-size header prefix of `bytes`.
    pub fn decode(bytes: &[u8]) -> Result<StoreHeader, StoreError> {
        let mut r = ByteReader::new(bytes);
        if r.take(STORE_MAGIC.len())? != STORE_MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = r.u32()?;
        if version != STORE_VERSION {
            return Err(StoreError::Version { found: version });
        }
        let h = StoreHeader {
            scenario_digest: r.u64()?,
            expand_fingerprint: r.u64()?,
            trace_fingerprint: r.u64()?,
            log_len: r.u64()?,
            flat_ops: r.u64()?,
            flat_len: r.u64()?,
        };
        let expect_flat_len = h
            .flat_ops
            .checked_mul(OP_ENC_LEN)
            .ok_or(StoreError::Malformed("flat op count overflow"))?;
        if h.flat_len != expect_flat_len {
            return Err(StoreError::Malformed("flat section length mismatch"));
        }
        // Lengths whose sum overflows describe a file no buffer can back;
        // past this check `flat_offset` and `total_len` cannot overflow.
        (HEADER_LEN as u64 + 16)
            .checked_add(h.log_len)
            .and_then(|n| n.checked_add(h.flat_len))
            .ok_or(StoreError::Truncated)?;
        Ok(h)
    }

    /// Byte offset of the flat section within the file.
    pub fn flat_offset(&self) -> u64 {
        HEADER_LEN as u64 + self.log_len + 8
    }

    /// Total file length this header describes.
    pub fn total_len(&self) -> u64 {
        self.flat_offset()
            + if self.flat_ops > 0 {
                self.flat_len + 8
            } else {
                0
            }
    }
}

/// One prepared scenario, ready to persist or just decoded.
#[derive(Debug, Clone)]
pub struct TraceArtifact {
    /// `ScenarioSpec::stable_digest()` of the source scenario.
    pub scenario_digest: u64,
    /// Fingerprint of the expansion config the trace was prepared under.
    pub expand_fingerprint: u64,
    /// [`trace_fingerprint`](crate::trace_fingerprint)`(log, expand)` at
    /// encode time; re-verified on load.
    pub trace_fingerprint: u64,
    /// Solve metadata for reconstructing the prepare summary.
    pub solve: SolveMeta,
    /// The recorded kernel log.
    pub log: PhaseLog,
    /// Fully expanded trace, when it fit the in-memory budget at save time.
    pub flat: Option<Arc<FlatTrace>>,
}

// ---------------------------------------------------------------------------
// byte-level primitives
// ---------------------------------------------------------------------------

struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    fn new() -> Self {
        ByteWriter { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
}

struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self.pos.checked_add(n).ok_or(StoreError::Truncated)?;
        if end > self.buf.len() {
            return Err(StoreError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn usize(&mut self) -> Result<usize, StoreError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| StoreError::Malformed("usize overflow"))
    }

    /// A length field additionally bounded by the remaining buffer (each
    /// element needs ≥ 1 byte), so hostile counts can't trigger huge
    /// allocations before the truncation is noticed.
    fn len(&mut self) -> Result<usize, StoreError> {
        let n = self.usize()?;
        if n > self.buf.len().saturating_sub(self.pos) {
            return Err(StoreError::Truncated);
        }
        Ok(n)
    }

    fn f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> Result<bool, StoreError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(StoreError::Malformed("bool tag")),
        }
    }
}

// ---------------------------------------------------------------------------
// shared-array tables and the two walkers over the kernel listing
// ---------------------------------------------------------------------------

/// The shared index structures a log references, each distinct
/// allocation once, in first-appearance order.
#[derive(Default)]
struct Tables {
    patterns: Vec<Arc<CsrPattern>>,
    usizes: Vec<Arc<Vec<usize>>>,
    u32s: Vec<Arc<Vec<u32>>>,
    bools: Vec<Arc<Vec<bool>>>,
}

fn put_vec<T>(w: &mut ByteWriter, v: &[T], put: impl Fn(&mut ByteWriter, &T)) {
    w.usize(v.len());
    for x in v {
        put(w, x);
    }
}

fn get_vec<'a, T>(
    p: &mut ByteReader<'a>,
    get: impl Fn(&mut ByteReader<'a>) -> Result<T, StoreError>,
) -> Result<Vec<T>, StoreError> {
    let n = p.len()?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(get(p)?);
    }
    Ok(v)
}

impl Tables {
    fn put(&self, w: &mut ByteWriter) {
        put_vec(w, &self.patterns, |w, p| {
            w.usize(p.nrows());
            w.usize(p.ncols());
            put_vec(w, p.row_ptr(), |w, &x| w.usize(x));
            put_vec(w, p.col_idx(), |w, &x| w.u32(x));
        });
        put_vec(w, &self.usizes, |w, v| put_vec(w, v, |w, &x| w.usize(x)));
        put_vec(w, &self.u32s, |w, v| put_vec(w, v, |w, &x| w.u32(x)));
        put_vec(w, &self.bools, |w, v| put_vec(w, v, |w, &x| w.bool(x)));
    }

    fn get(p: &mut ByteReader<'_>) -> Result<Tables, StoreError> {
        Ok(Tables {
            patterns: get_vec(p, |p| {
                let (nrows, ncols) = (p.usize()?, p.usize()?);
                let row_ptr = get_vec(p, ByteReader::usize)?;
                let col_idx = get_vec(p, ByteReader::u32)?;
                CsrPattern::new(nrows, ncols, row_ptr, col_idx)
                    .map(Arc::new)
                    .map_err(|_| StoreError::Malformed("invalid CSR pattern"))
            })?,
            usizes: get_vec(p, |p| get_vec(p, ByteReader::usize).map(Arc::new))?,
            u32s: get_vec(p, |p| get_vec(p, ByteReader::u32).map(Arc::new))?,
            bools: get_vec(p, |p| get_vec(p, ByteReader::bool).map(Arc::new))?,
        })
    }
}

/// Writes each call as tag + fields, a shared array as its table index —
/// interned on first sight, so decoding rebuilds *shared* `Arc`s.
struct Encoder {
    calls: ByteWriter,
    tables: Tables,
    ids: ArcMemo<u32>,
}

impl Encoder {
    fn shared<T>(&mut self, table: fn(&mut Tables) -> &mut Vec<Arc<T>>, v: &Arc<T>) -> Arc<T> {
        let table = table(&mut self.tables);
        let id = self.ids.get(v, || {
            table.push(Arc::clone(v));
            (table.len() - 1) as u32
        });
        self.calls.u32(id);
        Arc::clone(v)
    }
}

impl Walker for Encoder {
    fn kernel(&mut self, tag: u8, _label: &'static str) {
        self.calls.u8(tag);
    }

    fn count(&mut self, v: &usize) -> usize {
        self.calls.usize(*v);
        *v
    }

    fn material(&mut self, v: &MaterialClass) -> MaterialClass {
        self.calls.u8(v.tag());
        *v
    }

    fn precond(&mut self, v: &PrecondClass) -> PrecondClass {
        self.calls.u8(v.tag());
        *v
    }

    fn pattern(&mut self, v: &Arc<CsrPattern>) -> Arc<CsrPattern> {
        self.shared(|t| &mut t.patterns, v)
    }

    fn usizes(&mut self, v: &Arc<Vec<usize>>) -> Arc<Vec<usize>> {
        self.shared(|t| &mut t.usizes, v)
    }

    fn u32s(&mut self, v: &Arc<Vec<u32>>) -> Arc<Vec<u32>> {
        self.shared(|t| &mut t.u32s, v)
    }

    fn bools(&mut self, v: &Arc<Vec<bool>>) -> Arc<Vec<bool>> {
        self.shared(|t| &mut t.bools, v)
    }
}

/// Reads a call's fields back, a shared array by its table index.
struct Decoder<'a> {
    p: ByteReader<'a>,
    tables: Tables,
}

impl Decoder<'_> {
    fn shared<T>(&mut self, table: fn(&Tables) -> &Vec<Arc<T>>) -> Result<Arc<T>, StoreError> {
        let idx = self.p.u32()? as usize;
        let shared = table(&self.tables).get(idx);
        shared
            .cloned()
            .ok_or(StoreError::Malformed("shared-array index out of range"))
    }
}

impl Source for Decoder<'_> {
    type Error = StoreError;

    fn count(&mut self) -> Result<usize, StoreError> {
        self.p.usize()
    }

    fn material(&mut self) -> Result<MaterialClass, StoreError> {
        MaterialClass::from_tag(self.p.u8()?).ok_or(StoreError::Malformed("material class tag"))
    }

    fn precond(&mut self) -> Result<PrecondClass, StoreError> {
        PrecondClass::from_tag(self.p.u8()?).ok_or(StoreError::Malformed("precond class tag"))
    }

    fn pattern(&mut self) -> Result<Arc<CsrPattern>, StoreError> {
        self.shared(|t| &t.patterns)
    }

    fn usizes(&mut self) -> Result<Arc<Vec<usize>>, StoreError> {
        self.shared(|t| &t.usizes)
    }

    fn u32s(&mut self) -> Result<Arc<Vec<u32>>, StoreError> {
        self.shared(|t| &t.u32s)
    }

    fn bools(&mut self) -> Result<Arc<Vec<bool>>, StoreError> {
        self.shared(|t| &t.bools)
    }
}

/// The payload of a section (`len` bytes, then their FNV-64), verified.
fn checked_payload(section: &[u8], len: u64) -> Result<&[u8], StoreError> {
    let len = usize::try_from(len).map_err(|_| StoreError::Malformed("section length"))?;
    let mut r = ByteReader::new(section);
    let payload = r.take(len)?;
    if Fnv64::new().write_bytes(payload).finish() != r.u64()? {
        return Err(StoreError::Checksum);
    }
    Ok(payload)
}

// ---------------------------------------------------------------------------
// encode / decode
// ---------------------------------------------------------------------------

impl TraceArtifact {
    /// Serializes to the versioned binary format.
    pub fn encode(&self) -> Vec<u8> {
        // The calls are walked first: that is what fills the tables
        // that precede them in the section.
        let mut enc = Encoder {
            calls: ByteWriter::new(),
            tables: Tables::default(),
            ids: ArcMemo::default(),
        };
        for call in self.log.calls() {
            call.walk(&mut enc);
        }

        let mut payload = ByteWriter::new();
        payload.u64(self.solve.wall_secs);
        payload.u32(self.solve.wall_subsec_nanos);
        payload.usize(self.solve.n_dofs);
        payload.usize(self.solve.iterations);
        payload.f64(self.solve.size_kb);
        payload.bool(self.solve.converged);
        enc.tables.put(&mut payload);
        payload.usize(self.log.len());
        payload.buf.extend_from_slice(&enc.calls.buf);
        let log_payload = payload.buf;

        // Flat section: fixed-width ops, back to back (count in header).
        let mut flat_payload = ByteWriter::new();
        if let Some(flat) = &self.flat {
            for op in flat.iter() {
                flat_payload.u8(op.kind.tag());
                flat_payload.u32(op.pc);
                flat_payload.u64(op.addr);
                flat_payload.u8(op.size);
                flat_payload.bool(op.taken);
                flat_payload.u32(op.target);
                flat_payload.u32(op.dep1);
                flat_payload.u32(op.dep2);
                flat_payload.u8(op.cat.tag());
            }
        }
        let flat_payload = flat_payload.buf;

        let mut out = ByteWriter::new();
        out.buf.extend_from_slice(STORE_MAGIC);
        out.u32(STORE_VERSION);
        out.u64(self.scenario_digest);
        out.u64(self.expand_fingerprint);
        out.u64(self.trace_fingerprint);
        out.u64(log_payload.len() as u64);
        out.u64(self.flat.as_ref().map_or(0, |f| f.len() as u64));
        out.u64(flat_payload.len() as u64);
        debug_assert_eq!(out.buf.len(), HEADER_LEN);
        out.buf.extend_from_slice(&log_payload);
        out.u64(Fnv64::new().write_bytes(&log_payload).finish());
        if self.flat.is_some() {
            out.buf.extend_from_slice(&flat_payload);
            out.u64(Fnv64::new().write_bytes(&flat_payload).finish());
        }
        out.buf
    }

    /// Decodes a full byte buffer, verifying magic, version, section
    /// lengths, and both checksums.
    ///
    /// Key-field verification (does this artifact describe the scenario I
    /// asked for?) is the caller's job — this only guarantees structural
    /// integrity.
    pub fn decode(bytes: &[u8]) -> Result<TraceArtifact, StoreError> {
        let header = StoreHeader::decode(bytes)?;
        let total = usize::try_from(header.total_len()).map_err(|_| StoreError::Truncated)?;
        if bytes.len() < total {
            return Err(StoreError::Truncated);
        }
        if bytes.len() > total {
            return Err(StoreError::Malformed("trailing bytes after sections"));
        }
        let log_end = header.flat_offset() as usize;
        let mut artifact = Self::decode_log(&header, &bytes[HEADER_LEN..log_end])?;
        if header.flat_ops > 0 {
            artifact.flat = Some(Arc::new(Self::decode_flat(
                &header,
                &bytes[log_end..total],
            )?));
        }
        Ok(artifact)
    }

    /// Decodes the log section (the bytes between the header and the flat
    /// section, *including* the trailing log checksum) into an artifact
    /// with `flat: None`. This is the store-hit fast path: for long
    /// traces the log section is KBs where the flat section is MBs.
    pub fn decode_log(header: &StoreHeader, section: &[u8]) -> Result<TraceArtifact, StoreError> {
        let payload = checked_payload(section, header.log_len)?;
        let mut p = ByteReader::new(payload);
        let solve = SolveMeta {
            wall_secs: p.u64()?,
            wall_subsec_nanos: p.u32()?,
            n_dofs: p.usize()?,
            iterations: p.usize()?,
            size_kb: p.f64()?,
            converged: p.bool()?,
        };
        let tables = Tables::get(&mut p)?;
        let n_calls = p.len()?;
        let mut d = Decoder { p, tables };
        let mut log = PhaseLog::new();
        for _ in 0..n_calls {
            let tag = d.p.u8()?;
            let call = KernelCall::read(tag, &mut d)?;
            log.record(call.ok_or(StoreError::Malformed("kernel call tag"))?);
        }
        if d.p.pos != payload.len() {
            return Err(StoreError::Malformed("trailing bytes in log section"));
        }

        Ok(TraceArtifact {
            scenario_digest: header.scenario_digest,
            expand_fingerprint: header.expand_fingerprint,
            trace_fingerprint: header.trace_fingerprint,
            solve,
            log,
            flat: None,
        })
    }

    /// Decodes the flat section (the bytes from [`StoreHeader::flat_offset`]
    /// to the end of the file, *including* the trailing flat checksum),
    /// verifying its checksum and op count. Called lazily — a failure
    /// here means the caller re-expands from the (already verified) log,
    /// never a wrong trace.
    pub fn decode_flat(header: &StoreHeader, section: &[u8]) -> Result<FlatTrace, StoreError> {
        let payload = checked_payload(section, header.flat_len)?;
        let n =
            usize::try_from(header.flat_ops).map_err(|_| StoreError::Malformed("flat op count"))?;
        let mut p = ByteReader::new(payload);
        let mut flat = FlatTrace::with_capacity(n);
        for _ in 0..n {
            flat.push(MicroOp {
                kind: OpKind::from_tag(p.u8()?).ok_or(StoreError::Malformed("op kind tag"))?,
                pc: p.u32()?,
                addr: p.u64()?,
                size: p.u8()?,
                taken: p.bool()?,
                target: p.u32()?,
                dep1: p.u32()?,
                dep2: p.u32()?,
                cat: FnCategory::from_tag(p.u8()?)
                    .ok_or(StoreError::Malformed("fn category tag"))?,
            });
        }
        if p.pos != payload.len() {
            return Err(StoreError::Malformed("trailing bytes in flat section"));
        }
        Ok(flat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_artifact() -> TraceArtifact {
        let pat = Arc::new(CsrPattern::new(2, 2, vec![0, 1, 2], vec![0, 1]).unwrap());
        let conn = Arc::new(vec![0u32, 1, 2, 3]);
        let mut log = PhaseLog::new();
        log.record(KernelCall::Dot { n: 64 });
        log.record(KernelCall::SpMv {
            pattern: Arc::clone(&pat),
        });
        log.record(KernelCall::AssembleStiffness {
            conn: Arc::clone(&conn),
            nodes_per_elem: 4,
            dofs_per_node: 3,
            gauss_points: 8,
            material: MaterialClass::Viscoelastic,
            pattern: Arc::clone(&pat),
        });
        log.record(KernelCall::ContactSearch {
            outcomes: Arc::new(vec![true, false, true]),
        });
        let mut flat = FlatTrace::new();
        flat.push(MicroOp::load(7, 0x1000, 8, 1, FnCategory::MklBlas));
        flat.push(MicroOp::fp(OpKind::FpMul, 8, 1, 2, FnCategory::Internal));
        TraceArtifact {
            scenario_digest: 0xdead_beef,
            expand_fingerprint: 0x1234,
            trace_fingerprint: 0x5678,
            solve: SolveMeta {
                wall_secs: 1,
                wall_subsec_nanos: 250_000_000,
                n_dofs: 300,
                iterations: 12,
                size_kb: 48.5,
                converged: true,
            },
            log,
            flat: Some(Arc::new(flat)),
        }
    }

    /// Builds calls from the listing alone: counts run up from 2, enums
    /// cycle through their tags, and every shared-array field of a kind
    /// gets the same `Arc`.
    struct Sample {
        next: usize,
        pattern: Arc<CsrPattern>,
        usizes: Arc<Vec<usize>>,
        u32s: Arc<Vec<u32>>,
        bools: Arc<Vec<bool>>,
    }

    impl Sample {
        fn new() -> Self {
            Sample {
                next: 1,
                pattern: Arc::new(CsrPattern::new(2, 2, vec![0, 1, 2], vec![0, 1]).unwrap()),
                usizes: Arc::new(vec![0, 1, 2]),
                u32s: Arc::new(vec![0, 1, 1, 0]),
                bools: Arc::new(vec![true, false]),
            }
        }

        /// One call per listing row, in tag order, read over all 256 tags:
        /// the retired 9 and 10 read nothing.
        fn every_kernel(&mut self) -> Vec<KernelCall> {
            let rows: Vec<_> = (0..=u8::MAX)
                .map(|tag| KernelCall::read(tag, self).unwrap())
                .collect();
            assert!(rows[9].is_none() && rows[10].is_none());
            let calls: Vec<_> = rows.into_iter().flatten().collect();
            assert_eq!(calls.len(), 18);
            calls
        }
    }

    impl Source for Sample {
        type Error = std::convert::Infallible;

        fn count(&mut self) -> Result<usize, Self::Error> {
            self.next += 1;
            Ok(self.next)
        }

        fn material(&mut self) -> Result<MaterialClass, Self::Error> {
            self.next += 1;
            Ok(MaterialClass::from_tag((self.next % 12) as u8).unwrap())
        }

        fn precond(&mut self) -> Result<PrecondClass, Self::Error> {
            self.next += 1;
            Ok(PrecondClass::from_tag((self.next % 3) as u8).unwrap())
        }

        fn pattern(&mut self) -> Result<Arc<CsrPattern>, Self::Error> {
            Ok(Arc::clone(&self.pattern))
        }

        fn usizes(&mut self) -> Result<Arc<Vec<usize>>, Self::Error> {
            Ok(Arc::clone(&self.usizes))
        }

        fn u32s(&mut self) -> Result<Arc<Vec<u32>>, Self::Error> {
            Ok(Arc::clone(&self.u32s))
        }

        fn bools(&mut self) -> Result<Arc<Vec<bool>>, Self::Error> {
            Ok(Arc::clone(&self.bools))
        }
    }

    /// Hands every field back unchanged except field number `target`,
    /// which comes back as a different value of its kind; counts what it
    /// walks and the distinct allocations it sees.
    struct Perturb {
        target: usize,
        fields: usize,
        allocations: std::collections::HashSet<usize>,
    }

    impl Perturb {
        fn new(target: usize) -> Self {
            Perturb {
                target,
                fields: 0,
                allocations: Default::default(),
            }
        }

        fn visit<T: Clone>(&mut self, v: &T, other: impl FnOnce(&T) -> T) -> T {
            self.fields += 1;
            if self.fields - 1 == self.target {
                other(v)
            } else {
                v.clone()
            }
        }

        fn shared<T: Clone>(&mut self, v: &Arc<T>, other: impl FnOnce(&mut T)) -> Arc<T> {
            self.allocations.insert(Arc::as_ptr(v) as usize);
            self.visit(v, |v| {
                let mut changed = T::clone(v);
                other(&mut changed);
                Arc::new(changed)
            })
        }
    }

    impl Walker for Perturb {
        fn kernel(&mut self, _tag: u8, _label: &'static str) {}

        fn count(&mut self, v: &usize) -> usize {
            self.visit(v, |v| v + 1)
        }

        fn material(&mut self, v: &MaterialClass) -> MaterialClass {
            self.visit(v, |v| MaterialClass::from_tag((v.tag() + 1) % 12).unwrap())
        }

        fn precond(&mut self, v: &PrecondClass) -> PrecondClass {
            self.visit(v, |v| PrecondClass::from_tag((v.tag() + 1) % 3).unwrap())
        }

        fn pattern(&mut self, v: &Arc<CsrPattern>) -> Arc<CsrPattern> {
            self.shared(v, |p| {
                *p = CsrPattern::new(
                    p.nrows(),
                    p.ncols() + 1,
                    p.row_ptr().to_vec(),
                    p.col_idx().to_vec(),
                )
                .unwrap()
            })
        }

        fn usizes(&mut self, v: &Arc<Vec<usize>>) -> Arc<Vec<usize>> {
            self.shared(v, |v| v[0] += 1)
        }

        fn u32s(&mut self, v: &Arc<Vec<u32>>) -> Arc<Vec<u32>> {
            self.shared(v, |v| v[0] += 1)
        }

        fn bools(&mut self, v: &Arc<Vec<bool>>) -> Arc<Vec<bool>> {
            self.shared(v, |v| v[0] ^= true)
        }
    }

    fn log_of(calls: &[KernelCall]) -> PhaseLog {
        let mut log = PhaseLog::new();
        calls.iter().cloned().for_each(|c| log.record(c));
        log
    }

    fn encoded(calls: &[KernelCall]) -> Vec<u8> {
        TraceArtifact {
            log: log_of(calls),
            flat: None,
            ..sample_artifact()
        }
        .encode()
    }

    fn fingerprint(calls: &[KernelCall]) -> u64 {
        crate::trace_fingerprint(&log_of(calls), &Default::default())
    }

    #[test]
    fn every_field_of_every_kernel_is_stored_and_fingerprinted() {
        let calls = Sample::new().every_kernel();
        for call in &calls {
            let mut count = Perturb::new(usize::MAX);
            let same = [call.walk(&mut count)];
            let base = std::slice::from_ref(call);
            assert_eq!(encoded(&same), encoded(base), "{call:?}");
            assert_eq!(fingerprint(&same), fingerprint(base), "{call:?}");
            assert!(count.fields > 0, "{call:?} has no fields");
            for field in 0..count.fields {
                let changed = [call.walk(&mut Perturb::new(field))];
                let ctx = format!("field {field} of {call:?}");
                assert_ne!(encoded(&changed), encoded(base), "{ctx} is not stored");
                assert_ne!(
                    fingerprint(&changed),
                    fingerprint(base),
                    "{ctx} is not fingerprinted"
                );
            }
        }
        // The kind alone tells two calls of equal fields apart.
        assert_ne!(encoded(&calls[0..1]), encoded(&calls[1..2]));
        assert_ne!(fingerprint(&calls[0..1]), fingerprint(&calls[1..2]));
    }

    #[test]
    fn every_kernel_roundtrips_and_a_shared_array_is_stored_once() {
        let calls = Sample::new().every_kernel();
        // Twice over: 36 calls, still one allocation per kind.
        let twice = [calls.clone(), calls].concat();
        let bytes = encoded(&twice);
        let decoded = TraceArtifact::decode(&bytes).unwrap();
        assert_eq!(bytes, encoded(decoded.log.calls()));
        assert_eq!(fingerprint(decoded.log.calls()), fingerprint(&twice));
        let mut seen = Perturb::new(usize::MAX);
        for (before, after) in twice.iter().zip(decoded.log.calls()) {
            assert_eq!(
                format!("{before:?}"),
                format!("{:?}", after.walk(&mut seen))
            );
        }
        assert_eq!(seen.allocations.len(), 4);
        // A call over another allocation costs a table entry, not only
        // its own tag + index.
        let other = twice[4].walk(&mut Perturb::new(0));
        let grown = [twice.as_slice(), &[other]].concat();
        assert!(encoded(&grown).len() > bytes.len() + 5);
    }

    /// Tags 9 and 10 stored the deleted skyline kernels: a log carrying
    /// one is malformed, not a call.
    #[test]
    fn retired_kernel_tags_are_refused() {
        let bytes = encoded(&[KernelCall::Dot { n: 64 }]);
        // The log section ends with the call (its tag, then `n`), and
        // the section's checksum follows.
        let log_end = bytes.len() - 8;
        let tag_at = log_end - 9;
        assert_eq!(bytes[tag_at], 0, "the tag of `Dot`");
        for retired in [9, 10] {
            let mut bytes = bytes.clone();
            bytes[tag_at] = retired;
            let sum = Fnv64::new()
                .write_bytes(&bytes[HEADER_LEN..log_end])
                .finish();
            bytes[log_end..].copy_from_slice(&sum.to_le_bytes());
            assert_eq!(
                TraceArtifact::decode(&bytes).unwrap_err(),
                StoreError::Malformed("kernel call tag"),
                "tag {retired}"
            );
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let a = sample_artifact();
        let bytes = a.encode();
        let b = TraceArtifact::decode(&bytes).unwrap();
        assert_eq!(b.scenario_digest, a.scenario_digest);
        assert_eq!(b.expand_fingerprint, a.expand_fingerprint);
        assert_eq!(b.trace_fingerprint, a.trace_fingerprint);
        assert_eq!(b.solve, a.solve);
        assert_eq!(b.log.len(), a.log.len());
        let fa = a.flat.as_ref().unwrap();
        let fb = b.flat.as_ref().unwrap();
        assert_eq!(fa.len(), fb.len());
        for i in 0..fa.len() {
            assert_eq!(fa.get(i), fb.get(i));
        }
    }

    #[test]
    fn decode_rebuilds_shared_arcs() {
        let a = sample_artifact();
        let b = TraceArtifact::decode(&a.encode()).unwrap();
        let pats: Vec<_> = b
            .log
            .calls()
            .iter()
            .filter_map(|c| match c {
                KernelCall::SpMv { pattern } => Some(Arc::as_ptr(pattern)),
                KernelCall::AssembleStiffness { pattern, .. } => Some(Arc::as_ptr(pattern)),
                _ => None,
            })
            .collect();
        assert_eq!(pats.len(), 2);
        assert_eq!(pats[0], pats[1], "shared pattern must decode to one Arc");
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let bytes = sample_artifact().encode();
        for cut in 0..bytes.len() {
            let err = TraceArtifact::decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, StoreError::Truncated | StoreError::BadMagic),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn wrong_version_is_a_clean_error() {
        let mut bytes = sample_artifact().encode();
        bytes[STORE_MAGIC.len()] = 99;
        assert_eq!(
            TraceArtifact::decode(&bytes).unwrap_err(),
            StoreError::Version { found: 99 }
        );
    }

    #[test]
    fn payload_corruption_fails_checksum() {
        let mut bytes = sample_artifact().encode();
        bytes[HEADER_LEN + 10] ^= 0xff;
        assert_eq!(
            TraceArtifact::decode(&bytes).unwrap_err(),
            StoreError::Checksum
        );
    }

    #[test]
    fn flat_corruption_leaves_log_section_loadable() {
        let a = sample_artifact();
        let mut bytes = a.encode();
        let header = StoreHeader::decode(&bytes).unwrap();
        let flat_off = header.flat_offset() as usize;
        bytes[flat_off + 3] ^= 0xff;
        // The eager full decode notices,
        assert_eq!(
            TraceArtifact::decode(&bytes).unwrap_err(),
            StoreError::Checksum
        );
        // but the log section alone still decodes — the lazy-flat path
        // falls back to re-expansion without losing the store hit.
        let b = TraceArtifact::decode_log(&header, &bytes[HEADER_LEN..flat_off]).unwrap();
        assert_eq!(b.log.len(), a.log.len());
        assert!(b.flat.is_none());
        assert_eq!(
            TraceArtifact::decode_flat(&header, &bytes[flat_off..]).unwrap_err(),
            StoreError::Checksum
        );
    }

    #[test]
    fn hostile_section_lengths_are_errors_not_panics() {
        // A `log_len` whose sum with the other lengths overflows, in an
        // otherwise valid file.
        let mut bytes = sample_artifact().encode();
        bytes[40..48].copy_from_slice(&(u64::MAX - 20).to_le_bytes());
        assert_eq!(StoreHeader::decode(&bytes), Err(StoreError::Truncated));
        assert_eq!(
            TraceArtifact::decode(&bytes).unwrap_err(),
            StoreError::Truncated
        );
        // A header can also be built by hand (its fields are public),
        // so the section readers bound the lengths themselves: `len + 8`
        // must not wrap.
        let intact = sample_artifact().encode();
        let header = StoreHeader::decode(&intact).unwrap();
        let section = &intact[HEADER_LEN..];
        for len in [u64::MAX - 3, u64::MAX, section.len() as u64 - 7] {
            let hostile = StoreHeader {
                log_len: len,
                flat_len: len,
                ..header
            };
            assert_eq!(
                TraceArtifact::decode_log(&hostile, section).unwrap_err(),
                StoreError::Truncated,
                "log_len {len}"
            );
            assert_eq!(
                TraceArtifact::decode_flat(&hostile, section).unwrap_err(),
                StoreError::Truncated,
                "flat_len {len}"
            );
        }
    }

    #[test]
    fn header_lengths_locate_sections() {
        let a = sample_artifact();
        let bytes = a.encode();
        let header = StoreHeader::decode(&bytes).unwrap();
        assert_eq!(header.scenario_digest, a.scenario_digest);
        assert_eq!(header.flat_ops, a.flat.as_ref().unwrap().len() as u64);
        assert_eq!(header.total_len() as usize, bytes.len());
        let flat_off = header.flat_offset() as usize;
        let flat = TraceArtifact::decode_flat(&header, &bytes[flat_off..]).unwrap();
        assert_eq!(flat.len(), a.flat.as_ref().unwrap().len());
    }

    #[test]
    fn log_only_artifact_roundtrips() {
        let mut a = sample_artifact();
        a.flat = None;
        let b = TraceArtifact::decode(&a.encode()).unwrap();
        assert!(b.flat.is_none());
        assert_eq!(b.log.len(), a.log.len());
    }
}
