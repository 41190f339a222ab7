//! The four workloads. Each stresses a different set of layers (README.md
//! has the layer → metric table); all make their inputs from `--seed` and
//! hand the program nothing but those inputs.
//!
//! A repetition is `reset` (untimed housekeeping), `setup` (the set-up
//! segment: what a user pays before the first useful job), `pass` (the
//! pass segment: time to the report / to all replies), `teardown`
//! (untimed drop of whatever the pass left alive).

pub mod param_ident;
pub mod serve_mixed;
pub mod store_cycle;
pub mod sweep_o3;

use crate::clock::Rng;
use crate::spans::Tracer;
use belenos_workloads::ScenarioSpec;
use std::path::Path;

/// `(name, why)` of every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [(&str, &str); 4] = [
    ("sweep_o3", sweep_o3::WHY),
    ("param_ident", param_ident::WHY),
    ("store_cycle", store_cycle::WHY),
    ("serve_mixed", serve_mixed::WHY),
];

/// Correctness checks: each is one attempted operation, a violated one a
/// failed operation.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the run record and stderr.
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Folds in the checks another thread made.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }

    /// Byte equality of two renderings, reported by position.
    pub fn same_bytes(&mut self, got: &str, want: &str, what: &str) {
        self.check(got == want, || {
            let at = got
                .bytes()
                .zip(want.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(got.len().min(want.len()));
            format!(
                "{what}: differs at byte {at} (got {} bytes, want {})",
                got.len(),
                want.len()
            )
        });
    }
}

/// What a segment needs from the run loop.
pub struct Ctx<'a> {
    pub tracer: &'a Tracer,
    /// The segment's harness span (parent of the spans the workload opens).
    pub parent: u64,
}

/// One request of the served workload, as the client saw it.
#[derive(Debug, Clone)]
pub struct RequestSample {
    pub kind: RequestKind,
    /// POST sent → report body read.
    pub total_s: f64,
    /// POST sent → 202 read.
    pub ack_s: f64,
    /// GET /report sent → body read.
    pub report_s: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    Miss,
    Hit,
    Join,
}

/// What one repetition of the served workload measured beyond the
/// segments themselves.
#[derive(Debug, Clone, Default)]
pub struct ServeRep {
    pub requests: Vec<RequestSample>,
    pub boot_s: f64,
    pub drain_s: f64,
    pub joined: u64,
    pub rejected: u64,
}

pub trait Workload {
    fn name(&self) -> &'static str;
    fn reset(&mut self, _rep: usize) {}
    fn setup(&mut self, ctx: &Ctx<'_>, checks: &mut Checks);
    fn pass(&mut self, ctx: &Ctx<'_>, checks: &mut Checks);
    fn teardown(&mut self) {}
    /// Scenarios whose FE solves the workload pays for, so the share
    /// model can split a prepare span into assembly and linear solve.
    fn fe_scenarios(&self) -> Vec<ScenarioSpec>;
    /// True when simulation results go through the runner's disk tier.
    fn disk_cache(&self) -> bool {
        false
    }
    /// The served workload's per-repetition samples since the last call.
    fn take_serve_reps(&mut self) -> Vec<ServeRep> {
        Vec::new()
    }
}

/// Builds workload `name` from `seed`. `scratch` is a directory of the
/// workload's own under the benchmark's output directory.
pub fn build(name: &str, seed: u64, scratch: &Path) -> Option<Box<dyn Workload>> {
    let rng = Rng::new(seed ^ 0xB31E_2025);
    Some(match name {
        "sweep_o3" => Box::new(sweep_o3::SweepO3::new(rng)),
        "param_ident" => Box::new(param_ident::ParamIdent::new(rng)),
        "store_cycle" => Box::new(store_cycle::StoreCycle::new(rng, scratch)),
        "serve_mixed" => Box::new(serve_mixed::ServeMixed::new(rng)),
        _ => return None,
    })
}

/// `"a", "b"`: the items as a JSON array's contents.
fn quoted(items: &[&str]) -> String {
    items
        .iter()
        .map(|s| format!("\"{s}\""))
        .collect::<Vec<_>>()
        .join(", ")
}

/// The first repetition's rendering, against which every later one is
/// compared byte for byte (no digest is pinned from today's model, so a
/// later model fix cannot read as a benchmark failure).
#[derive(Debug, Default)]
pub struct Reference(Option<String>);

impl Reference {
    pub fn check(&mut self, got: String, checks: &mut Checks, what: &str) {
        match &self.0 {
            None => {
                checks.check(!got.is_empty(), || format!("{what}: empty rendering"));
                self.0 = Some(got);
            }
            Some(want) => checks.same_bytes(&got, want, what),
        }
    }
}
