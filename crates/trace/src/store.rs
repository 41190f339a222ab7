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
use crate::program::{KernelCall, MaterialClass, PhaseLog, PrecondClass};
use belenos_sparse::CsrPattern;
use std::collections::HashMap;
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
    /// `trace_fingerprint(log, expand)` at encode time.
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
    /// `trace_fingerprint(log, expand)` at encode time; re-verified on load.
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
// enum tags
// ---------------------------------------------------------------------------

fn op_kind_tag(k: OpKind) -> u8 {
    match k {
        OpKind::IntAlu => 0,
        OpKind::IntMul => 1,
        OpKind::FpAdd => 2,
        OpKind::FpMul => 3,
        OpKind::FpDiv => 4,
        OpKind::Load => 5,
        OpKind::Store => 6,
        OpKind::Branch => 7,
        OpKind::Pause => 8,
        OpKind::Serialize => 9,
    }
}

fn op_kind_from(tag: u8) -> Result<OpKind, StoreError> {
    Ok(match tag {
        0 => OpKind::IntAlu,
        1 => OpKind::IntMul,
        2 => OpKind::FpAdd,
        3 => OpKind::FpMul,
        4 => OpKind::FpDiv,
        5 => OpKind::Load,
        6 => OpKind::Store,
        7 => OpKind::Branch,
        8 => OpKind::Pause,
        9 => OpKind::Serialize,
        _ => return Err(StoreError::Malformed("op kind tag")),
    })
}

fn category_tag(c: FnCategory) -> u8 {
    match c {
        FnCategory::Internal => 0,
        FnCategory::Sparsity => 1,
        FnCategory::MatrixDense => 2,
        FnCategory::FebioSpecific => 3,
        FnCategory::MklBlas => 4,
        FnCategory::MklPardiso => 5,
    }
}

fn category_from(tag: u8) -> Result<FnCategory, StoreError> {
    Ok(match tag {
        0 => FnCategory::Internal,
        1 => FnCategory::Sparsity,
        2 => FnCategory::MatrixDense,
        3 => FnCategory::FebioSpecific,
        4 => FnCategory::MklBlas,
        5 => FnCategory::MklPardiso,
        _ => return Err(StoreError::Malformed("fn category tag")),
    })
}

fn material_tag(m: MaterialClass) -> u8 {
    match m {
        MaterialClass::LinearElastic => 0,
        MaterialClass::Hyperelastic => 1,
        MaterialClass::FiberExponential => 2,
        MaterialClass::Viscoelastic => 3,
        MaterialClass::Biphasic => 4,
        MaterialClass::Multiphasic => 5,
        MaterialClass::Damage => 6,
        MaterialClass::Plasticity => 7,
        MaterialClass::ActiveMuscle => 8,
        MaterialClass::Growth => 9,
        MaterialClass::Fluid => 10,
        MaterialClass::Rigid => 11,
    }
}

fn material_from(tag: u8) -> Result<MaterialClass, StoreError> {
    Ok(match tag {
        0 => MaterialClass::LinearElastic,
        1 => MaterialClass::Hyperelastic,
        2 => MaterialClass::FiberExponential,
        3 => MaterialClass::Viscoelastic,
        4 => MaterialClass::Biphasic,
        5 => MaterialClass::Multiphasic,
        6 => MaterialClass::Damage,
        7 => MaterialClass::Plasticity,
        8 => MaterialClass::ActiveMuscle,
        9 => MaterialClass::Growth,
        10 => MaterialClass::Fluid,
        11 => MaterialClass::Rigid,
        _ => return Err(StoreError::Malformed("material class tag")),
    })
}

fn precond_tag(p: PrecondClass) -> u8 {
    match p {
        PrecondClass::None => 0,
        PrecondClass::Jacobi => 1,
        PrecondClass::Ilu0 => 2,
    }
}

fn precond_from(tag: u8) -> Result<PrecondClass, StoreError> {
    Ok(match tag {
        0 => PrecondClass::None,
        1 => PrecondClass::Jacobi,
        2 => PrecondClass::Ilu0,
        _ => return Err(StoreError::Malformed("precond class tag")),
    })
}

// ---------------------------------------------------------------------------
// Arc deduplication tables
// ---------------------------------------------------------------------------

/// Interns each distinct shared allocation referenced by the log, in
/// first-appearance order, so the payload writes it exactly once.
#[derive(Default)]
struct ArcTables {
    patterns: Vec<Arc<CsrPattern>>,
    usizes: Vec<Arc<Vec<usize>>>,
    u32s: Vec<Arc<Vec<u32>>>,
    bools: Vec<Arc<Vec<bool>>>,
    pattern_ids: HashMap<*const CsrPattern, u32>,
    usize_ids: HashMap<*const Vec<usize>, u32>,
    u32_ids: HashMap<*const Vec<u32>, u32>,
    bool_ids: HashMap<*const Vec<bool>, u32>,
}

impl ArcTables {
    fn pattern(&mut self, p: &Arc<CsrPattern>) -> u32 {
        *self.pattern_ids.entry(Arc::as_ptr(p)).or_insert_with(|| {
            self.patterns.push(Arc::clone(p));
            (self.patterns.len() - 1) as u32
        })
    }

    fn usizes(&mut self, v: &Arc<Vec<usize>>) -> u32 {
        *self.usize_ids.entry(Arc::as_ptr(v)).or_insert_with(|| {
            self.usizes.push(Arc::clone(v));
            (self.usizes.len() - 1) as u32
        })
    }

    fn u32s(&mut self, v: &Arc<Vec<u32>>) -> u32 {
        *self.u32_ids.entry(Arc::as_ptr(v)).or_insert_with(|| {
            self.u32s.push(Arc::clone(v));
            (self.u32s.len() - 1) as u32
        })
    }

    fn bools(&mut self, v: &Arc<Vec<bool>>) -> u32 {
        *self.bool_ids.entry(Arc::as_ptr(v)).or_insert_with(|| {
            self.bools.push(Arc::clone(v));
            (self.bools.len() - 1) as u32
        })
    }

    fn collect(log: &PhaseLog) -> Self {
        let mut t = ArcTables::default();
        for call in log.calls() {
            match call {
                KernelCall::SpMv { pattern } => {
                    t.pattern(pattern);
                }
                KernelCall::AssembleStiffness { conn, pattern, .. } => {
                    t.u32s(conn);
                    t.pattern(pattern);
                }
                KernelCall::AssembleResidual { conn, .. } => {
                    t.u32s(conn);
                }
                KernelCall::LdlFactor { col_ptr, row_idx }
                | KernelCall::LdlSolve { col_ptr, row_idx } => {
                    t.usizes(col_ptr);
                    t.u32s(row_idx);
                }
                KernelCall::SkylineFactor { heights } | KernelCall::SkylineSolve { heights } => {
                    t.usizes(heights);
                }
                KernelCall::CgSolve { pattern, .. } | KernelCall::FgmresSolve { pattern, .. } => {
                    t.pattern(pattern);
                }
                KernelCall::ContactSearch { outcomes } => {
                    t.bools(outcomes);
                }
                KernelCall::Dot { .. }
                | KernelCall::Axpy { .. }
                | KernelCall::Norm { .. }
                | KernelCall::VecOp { .. }
                | KernelCall::ConstitutiveUpdate { .. }
                | KernelCall::OmpBarrier { .. }
                | KernelCall::BcApply { .. }
                | KernelCall::MeshUpdate { .. }
                | KernelCall::RigidUpdate { .. }
                | KernelCall::ConvergenceCheck { .. } => {}
            }
        }
        t
    }
}

fn lookup<T>(table: &[Arc<T>], idx: u32) -> Result<Arc<T>, StoreError> {
    table
        .get(idx as usize)
        .cloned()
        .ok_or(StoreError::Malformed("shared-array index out of range"))
}

// ---------------------------------------------------------------------------
// encode
// ---------------------------------------------------------------------------

impl TraceArtifact {
    /// Serializes to the versioned binary format.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = ByteWriter::new();

        // Log section: solve metadata.
        payload.u64(self.solve.wall_secs);
        payload.u32(self.solve.wall_subsec_nanos);
        payload.usize(self.solve.n_dofs);
        payload.usize(self.solve.iterations);
        payload.f64(self.solve.size_kb);
        payload.bool(self.solve.converged);

        // Shared-array tables, each allocation once.
        let tables = ArcTables::collect(&self.log);
        payload.usize(tables.patterns.len());
        for p in &tables.patterns {
            payload.usize(p.nrows());
            payload.usize(p.ncols());
            payload.usize(p.row_ptr().len());
            for &v in p.row_ptr() {
                payload.usize(v);
            }
            payload.usize(p.col_idx().len());
            for &v in p.col_idx() {
                payload.u32(v);
            }
        }
        payload.usize(tables.usizes.len());
        for v in &tables.usizes {
            payload.usize(v.len());
            for &x in v.iter() {
                payload.usize(x);
            }
        }
        payload.usize(tables.u32s.len());
        for v in &tables.u32s {
            payload.usize(v.len());
            for &x in v.iter() {
                payload.u32(x);
            }
        }
        payload.usize(tables.bools.len());
        for v in &tables.bools {
            payload.usize(v.len());
            for &x in v.iter() {
                payload.bool(x);
            }
        }

        // Kernel calls, tag + fields, shared arrays by table index.
        let mut tables = tables;
        payload.usize(self.log.len());
        for call in self.log.calls() {
            encode_call(&mut payload, &mut tables, call);
        }

        let log_payload = payload.buf;

        // Flat section: fixed-width ops, back to back (count in header).
        let mut flat_payload = ByteWriter::new();
        if let Some(flat) = &self.flat {
            for op in flat.iter() {
                flat_payload.u8(op_kind_tag(op.kind));
                flat_payload.u32(op.pc);
                flat_payload.u64(op.addr);
                flat_payload.u8(op.size);
                flat_payload.bool(op.taken);
                flat_payload.u32(op.target);
                flat_payload.u32(op.dep1);
                flat_payload.u32(op.dep2);
                flat_payload.u8(category_tag(op.cat));
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
        let total = usize::try_from(header.total_len())
            .map_err(|_| StoreError::Malformed("section length overflow"))?;
        if bytes.len() < total {
            return Err(StoreError::Truncated);
        }
        if bytes.len() > total {
            return Err(StoreError::Malformed("trailing bytes after sections"));
        }
        let log_end = usize::try_from(header.flat_offset()).unwrap();
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
        let log_len =
            usize::try_from(header.log_len).map_err(|_| StoreError::Malformed("log length"))?;
        if section.len() < log_len + 8 {
            return Err(StoreError::Truncated);
        }
        let payload = &section[..log_len];
        let stored_sum = u64::from_le_bytes(section[log_len..log_len + 8].try_into().unwrap());
        if Fnv64::new().write_bytes(payload).finish() != stored_sum {
            return Err(StoreError::Checksum);
        }

        let mut p = ByteReader::new(payload);
        let solve = SolveMeta {
            wall_secs: p.u64()?,
            wall_subsec_nanos: p.u32()?,
            n_dofs: p.usize()?,
            iterations: p.usize()?,
            size_kb: p.f64()?,
            converged: p.bool()?,
        };

        let n_patterns = p.len()?;
        let mut patterns = Vec::with_capacity(n_patterns);
        for _ in 0..n_patterns {
            let nrows = p.usize()?;
            let ncols = p.usize()?;
            let n_ptr = p.len()?;
            let mut row_ptr = Vec::with_capacity(n_ptr);
            for _ in 0..n_ptr {
                row_ptr.push(p.usize()?);
            }
            let n_idx = p.len()?;
            let mut col_idx = Vec::with_capacity(n_idx);
            for _ in 0..n_idx {
                col_idx.push(p.u32()?);
            }
            let pat = CsrPattern::new(nrows, ncols, row_ptr, col_idx)
                .map_err(|_| StoreError::Malformed("invalid CSR pattern"))?;
            patterns.push(Arc::new(pat));
        }

        let n_usizes = p.len()?;
        let mut usizes = Vec::with_capacity(n_usizes);
        for _ in 0..n_usizes {
            let n = p.len()?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(p.usize()?);
            }
            usizes.push(Arc::new(v));
        }

        let n_u32s = p.len()?;
        let mut u32s = Vec::with_capacity(n_u32s);
        for _ in 0..n_u32s {
            let n = p.len()?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(p.u32()?);
            }
            u32s.push(Arc::new(v));
        }

        let n_bools = p.len()?;
        let mut bools = Vec::with_capacity(n_bools);
        for _ in 0..n_bools {
            let n = p.len()?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(p.bool()?);
            }
            bools.push(Arc::new(v));
        }

        let n_calls = p.len()?;
        let mut log = PhaseLog::new();
        for _ in 0..n_calls {
            log.record(decode_call(&mut p, &patterns, &usizes, &u32s, &bools)?);
        }

        if p.pos != payload.len() {
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
        let flat_len =
            usize::try_from(header.flat_len).map_err(|_| StoreError::Malformed("flat length"))?;
        if section.len() < flat_len + 8 {
            return Err(StoreError::Truncated);
        }
        let payload = &section[..flat_len];
        let stored_sum = u64::from_le_bytes(section[flat_len..flat_len + 8].try_into().unwrap());
        if Fnv64::new().write_bytes(payload).finish() != stored_sum {
            return Err(StoreError::Checksum);
        }
        let n =
            usize::try_from(header.flat_ops).map_err(|_| StoreError::Malformed("flat op count"))?;
        let mut p = ByteReader::new(payload);
        let mut flat = FlatTrace::with_capacity(n);
        for _ in 0..n {
            flat.push(MicroOp {
                kind: op_kind_from(p.u8()?)?,
                pc: p.u32()?,
                addr: p.u64()?,
                size: p.u8()?,
                taken: p.bool()?,
                target: p.u32()?,
                dep1: p.u32()?,
                dep2: p.u32()?,
                cat: category_from(p.u8()?)?,
            });
        }
        if p.pos != payload.len() {
            return Err(StoreError::Malformed("trailing bytes in flat section"));
        }
        Ok(flat)
    }
}

fn encode_call(w: &mut ByteWriter, t: &mut ArcTables, call: &KernelCall) {
    match call {
        KernelCall::Dot { n } => {
            w.u8(0);
            w.usize(*n);
        }
        KernelCall::Axpy { n } => {
            w.u8(1);
            w.usize(*n);
        }
        KernelCall::Norm { n } => {
            w.u8(2);
            w.usize(*n);
        }
        KernelCall::VecOp { n } => {
            w.u8(3);
            w.usize(*n);
        }
        KernelCall::SpMv { pattern } => {
            w.u8(4);
            w.u32(t.pattern(pattern));
        }
        KernelCall::AssembleStiffness {
            conn,
            nodes_per_elem,
            dofs_per_node,
            gauss_points,
            material,
            pattern,
        } => {
            w.u8(5);
            w.u32(t.u32s(conn));
            w.usize(*nodes_per_elem);
            w.usize(*dofs_per_node);
            w.usize(*gauss_points);
            w.u8(material_tag(*material));
            w.u32(t.pattern(pattern));
        }
        KernelCall::AssembleResidual {
            conn,
            nodes_per_elem,
            dofs_per_node,
            gauss_points,
            material,
        } => {
            w.u8(6);
            w.u32(t.u32s(conn));
            w.usize(*nodes_per_elem);
            w.usize(*dofs_per_node);
            w.usize(*gauss_points);
            w.u8(material_tag(*material));
        }
        KernelCall::LdlFactor { col_ptr, row_idx } => {
            w.u8(7);
            w.u32(t.usizes(col_ptr));
            w.u32(t.u32s(row_idx));
        }
        KernelCall::LdlSolve { col_ptr, row_idx } => {
            w.u8(8);
            w.u32(t.usizes(col_ptr));
            w.u32(t.u32s(row_idx));
        }
        KernelCall::SkylineFactor { heights } => {
            w.u8(9);
            w.u32(t.usizes(heights));
        }
        KernelCall::SkylineSolve { heights } => {
            w.u8(10);
            w.u32(t.usizes(heights));
        }
        KernelCall::CgSolve {
            pattern,
            iterations,
            precond,
        } => {
            w.u8(11);
            w.u32(t.pattern(pattern));
            w.usize(*iterations);
            w.u8(precond_tag(*precond));
        }
        KernelCall::FgmresSolve {
            pattern,
            iterations,
            restart,
            precond,
        } => {
            w.u8(12);
            w.u32(t.pattern(pattern));
            w.usize(*iterations);
            w.usize(*restart);
            w.u8(precond_tag(*precond));
        }
        KernelCall::ConstitutiveUpdate {
            gauss_points,
            material,
        } => {
            w.u8(13);
            w.usize(*gauss_points);
            w.u8(material_tag(*material));
        }
        KernelCall::ContactSearch { outcomes } => {
            w.u8(14);
            w.u32(t.bools(outcomes));
        }
        KernelCall::OmpBarrier { spin_iters } => {
            w.u8(15);
            w.usize(*spin_iters);
        }
        KernelCall::BcApply { n } => {
            w.u8(16);
            w.usize(*n);
        }
        KernelCall::MeshUpdate { n_nodes } => {
            w.u8(17);
            w.usize(*n_nodes);
        }
        KernelCall::RigidUpdate { n_bodies, n_joints } => {
            w.u8(18);
            w.usize(*n_bodies);
            w.usize(*n_joints);
        }
        KernelCall::ConvergenceCheck { n } => {
            w.u8(19);
            w.usize(*n);
        }
    }
}

fn decode_call(
    p: &mut ByteReader<'_>,
    patterns: &[Arc<CsrPattern>],
    usizes: &[Arc<Vec<usize>>],
    u32s: &[Arc<Vec<u32>>],
    bools: &[Arc<Vec<bool>>],
) -> Result<KernelCall, StoreError> {
    Ok(match p.u8()? {
        0 => KernelCall::Dot { n: p.usize()? },
        1 => KernelCall::Axpy { n: p.usize()? },
        2 => KernelCall::Norm { n: p.usize()? },
        3 => KernelCall::VecOp { n: p.usize()? },
        4 => KernelCall::SpMv {
            pattern: lookup(patterns, p.u32()?)?,
        },
        5 => KernelCall::AssembleStiffness {
            conn: lookup(u32s, p.u32()?)?,
            nodes_per_elem: p.usize()?,
            dofs_per_node: p.usize()?,
            gauss_points: p.usize()?,
            material: material_from(p.u8()?)?,
            pattern: lookup(patterns, p.u32()?)?,
        },
        6 => KernelCall::AssembleResidual {
            conn: lookup(u32s, p.u32()?)?,
            nodes_per_elem: p.usize()?,
            dofs_per_node: p.usize()?,
            gauss_points: p.usize()?,
            material: material_from(p.u8()?)?,
        },
        7 => KernelCall::LdlFactor {
            col_ptr: lookup(usizes, p.u32()?)?,
            row_idx: lookup(u32s, p.u32()?)?,
        },
        8 => KernelCall::LdlSolve {
            col_ptr: lookup(usizes, p.u32()?)?,
            row_idx: lookup(u32s, p.u32()?)?,
        },
        9 => KernelCall::SkylineFactor {
            heights: lookup(usizes, p.u32()?)?,
        },
        10 => KernelCall::SkylineSolve {
            heights: lookup(usizes, p.u32()?)?,
        },
        11 => KernelCall::CgSolve {
            pattern: lookup(patterns, p.u32()?)?,
            iterations: p.usize()?,
            precond: precond_from(p.u8()?)?,
        },
        12 => KernelCall::FgmresSolve {
            pattern: lookup(patterns, p.u32()?)?,
            iterations: p.usize()?,
            restart: p.usize()?,
            precond: precond_from(p.u8()?)?,
        },
        13 => KernelCall::ConstitutiveUpdate {
            gauss_points: p.usize()?,
            material: material_from(p.u8()?)?,
        },
        14 => KernelCall::ContactSearch {
            outcomes: lookup(bools, p.u32()?)?,
        },
        15 => KernelCall::OmpBarrier {
            spin_iters: p.usize()?,
        },
        16 => KernelCall::BcApply { n: p.usize()? },
        17 => KernelCall::MeshUpdate {
            n_nodes: p.usize()?,
        },
        18 => KernelCall::RigidUpdate {
            n_bodies: p.usize()?,
            n_joints: p.usize()?,
        },
        19 => KernelCall::ConvergenceCheck { n: p.usize()? },
        _ => return Err(StoreError::Malformed("kernel call tag")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_artifact() -> TraceArtifact {
        let pat = Arc::new(CsrPattern::new(2, 2, vec![0, 1, 2], vec![0, 1]).unwrap());
        let conn = Arc::new(vec![0u32, 1, 2, 3]);
        let heights = Arc::new(vec![1usize, 2]);
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
        log.record(KernelCall::SkylineFactor {
            heights: Arc::clone(&heights),
        });
        log.record(KernelCall::SkylineSolve { heights });
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
