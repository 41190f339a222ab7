//! The `belenos` command-line interface.
//!
//! One binary, subcommands for everything the old per-figure binaries
//! did:
//!
//! ```text
//! belenos list                         what exists: workloads, analyses, backends
//! belenos table <1|2>                  Table I / Table II
//! belenos figure <id|all>              one paper figure, or the whole set
//! belenos scenario list|show|validate|run   first-class parametric workloads
//! belenos campaign run <spec.json>     run a declarative campaign spec
//! belenos campaign example             print a template spec
//! belenos campaign validate <spec>     check a spec without running it
//! belenos ablation rcm                 RCM reordering ablation
//! ```
//!
//! Every subcommand shares one option layer: `--max-ops`, `--sampling`
//! and `--model` set the simulation options over the defaults
//! ([`DEFAULT_MAX_OPS`], sampling off, `o3`), or over a spec's own
//! `options` for `campaign run`; `--jobs` sizes the process's one thread
//! budget ahead of `BELENOS_JOBS`. `--workloads` narrows the workload
//! selection; `--format` selects text/JSON/CSV output, and `--json
//! PATH` / `--csv PATH` additionally write those renderings to files.

mod ablation;
mod cache_cmd;
mod campaign_cmd;
mod figures_cmd;
mod list;
mod scenario_cmd;
mod serve_cmd;
mod worker_cmd;

use belenos::campaign::WorkloadSet;
use belenos::{SimOptions, DEFAULT_MAX_OPS};
use belenos_runner::{Budget, Cache, Runner};
use belenos_uarch::{ModelKind, SamplingConfig};
use std::path::PathBuf;

/// Output rendering selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// Historical plain-text tables (byte-identical to the old bins).
    #[default]
    Text,
    /// Structured JSON.
    Json,
    /// CSV (one block per report section).
    Csv,
}

/// A parsed invocation: positional words plus the shared option layer.
#[derive(Debug, Default)]
pub struct Invocation {
    /// Subcommand path and its positional arguments, in order.
    pub positionals: Vec<String>,
    /// `--max-ops N`: micro-op budget per simulation.
    pub max_ops: Option<usize>,
    /// `--sampling off|on|N`: trace sampling.
    pub sampling: Option<SamplingConfig>,
    /// `--model o3|inorder|analytic`: core-model backend.
    pub model: Option<ModelKind>,
    /// `--jobs N`: threads that compute at once, process-wide. `None` =
    /// leave the `BELENOS_JOBS` selection.
    pub jobs: Option<usize>,
    /// `--workloads` selection, if given.
    pub workloads: Option<WorkloadSet>,
    /// `--format` selection.
    pub format: Format,
    /// `--json PATH`: also write the JSON rendering here.
    pub json_out: Option<String>,
    /// `--csv PATH`: also write the CSV rendering here.
    pub csv_out: Option<String>,
    /// `--telemetry V`: structured-event sink (`off`, `stderr`, or a
    /// JSONL path). `None` = disabled.
    pub telemetry: Option<String>,
    /// `--trace-dir PATH`: persistent trace store directory. `None` = no
    /// trace store (`<dist>/traces` for a worker or `--distributed`).
    pub trace_dir: Option<String>,
    /// `--cache-dir PATH`: disk result cache directory. `None` = results
    /// stay in memory (`<dist>/cache` under `--distributed`).
    pub cache_dir: Option<String>,
    /// `--addr HOST:PORT`: `serve` listen address.
    pub addr: Option<String>,
    /// `--serve-workers N`: concurrent jobs in the serve pool.
    pub serve_workers: Option<usize>,
    /// `--queue-depth N`: serve admission queue bound.
    pub queue_depth: Option<usize>,
    /// `--op-ceiling N`: serve per-request `max_ops` ceiling (0 = off).
    pub op_ceiling: Option<usize>,
    /// `--cache-budget BYTES`: serve background GC budget (0 = off).
    pub cache_budget: Option<u64>,
    /// `--max-bytes BYTES`: `cache gc` target size.
    pub max_bytes: Option<u64>,
    /// `--dist-dir PATH`: shared distributed job-board directory.
    pub dist_dir: Option<String>,
    /// `--distributed`: route `campaign run` cache misses through the
    /// job board instead of running them locally.
    pub distributed: bool,
    /// `--lease-ttl SECONDS`: age past which an unheartbeated lease is
    /// stealable.
    pub lease_ttl: Option<std::time::Duration>,
    /// `--heartbeat SECONDS`: lease mtime refresh interval.
    pub heartbeat: Option<std::time::Duration>,
    /// `--local-workers N`: in-process workers a distributed
    /// coordinator hosts alongside external `belenos worker`s.
    pub local_workers: Option<usize>,
    /// `--name ID`: worker name (defaults to a per-process unique id).
    pub worker_name: Option<String>,
    /// `--idle-timeout SECONDS`: a `belenos worker` exits after the
    /// board yields nothing for this long (default: run until killed).
    pub idle_timeout: Option<std::time::Duration>,
}

impl Invocation {
    /// `base` with the simulation-option flags applied.
    pub fn options_over(&self, base: SimOptions) -> SimOptions {
        SimOptions {
            max_ops: self.max_ops.unwrap_or(base.max_ops),
            sampling: self.sampling.clone().unwrap_or(base.sampling),
            model: self.model.unwrap_or(base.model),
        }
    }

    /// The options a one-shot command runs under: [`DEFAULT_MAX_OPS`],
    /// sampling off, `o3`, with the flags applied.
    pub fn options(&self) -> SimOptions {
        self.options_over(SimOptions::new(DEFAULT_MAX_OPS))
    }

    /// Resolves `--workloads` with a fallback.
    pub fn workload_set(&self) -> WorkloadSet {
        self.workloads.clone().unwrap_or_default()
    }

    /// The one runner a simulating subcommand runs on: the process's
    /// thread budget (`--jobs`) in front of a result cache on
    /// `--cache-dir`, else on `shared` (a distributed campaign's
    /// `<dist>/cache`), else in memory; progress streaming on.
    pub fn runner(&self, shared: Option<PathBuf>) -> Runner {
        let disk = self.cache_dir.as_ref().map(PathBuf::from).or(shared);
        let cache = disk.map_or_else(Cache::fresh, Cache::with_disk);
        Runner::with_budget(Budget::global().clone(), cache).progress(true)
    }
}

/// Parses a byte size with an optional `K`/`M`/`G` binary suffix
/// (`512M` = 512 MiB), for `--cache-budget` and `--max-bytes`.
pub(crate) fn parse_byte_size(value: &str) -> Option<u64> {
    let v = value.trim();
    let (digits, multiplier) = match v.chars().last()? {
        'k' | 'K' => (&v[..v.len() - 1], 1u64 << 10),
        'm' | 'M' => (&v[..v.len() - 1], 1u64 << 20),
        'g' | 'G' => (&v[..v.len() - 1], 1u64 << 30),
        _ => (v, 1),
    };
    digits.trim().parse::<u64>().ok()?.checked_mul(multiplier)
}

/// Parses a positive seconds value (fractions allowed: `0.25`).
fn parse_seconds(flag: &str, value: &str) -> Result<std::time::Duration, String> {
    match value.parse::<f64>() {
        Ok(s) if s > 0.0 && s.is_finite() => Ok(std::time::Duration::from_secs_f64(s)),
        _ => Err(format!("{flag}: `{value}` is not a positive seconds value")),
    }
}

fn parse_workloads(value: &str) -> Result<WorkloadSet, String> {
    if let Some(named) = WorkloadSet::parse_named(value) {
        return Ok(named);
    }
    let ids: Vec<String> = value
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if ids.is_empty() {
        return Err("--workloads: expected a set name or comma-separated ids".into());
    }
    for id in &ids {
        if belenos_workloads::by_id(id).is_none() {
            return Err(format!("--workloads: unknown workload id `{id}`"));
        }
    }
    Ok(WorkloadSet::Ids(ids))
}

/// Parses an argument vector (without the program name).
///
/// # Errors
///
/// A usage message for unknown flags, missing flag values, or
/// unparsable values.
pub fn parse(args: &[String]) -> Result<Invocation, String> {
    let mut inv = Invocation::default();
    let mut it = args.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>,
                 flag: &str|
     -> Result<String, String> {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    // An empty path would put a store's files in the working directory.
    let directory = |it: &mut std::iter::Peekable<std::slice::Iter<String>>,
                     flag: &str|
     -> Result<String, String> {
        let v = value(it, flag)?;
        if v.is_empty() {
            return Err(format!("{flag}: expected a directory, got an empty path"));
        }
        Ok(v)
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--max-ops" => {
                let v = value(&mut it, "--max-ops")?;
                inv.max_ops = Some(
                    v.parse()
                        .map_err(|_| format!("--max-ops: `{v}` is not a budget"))?,
                );
            }
            "--sampling" => {
                let v = value(&mut it, "--sampling")?;
                inv.sampling =
                    Some(SamplingConfig::parse(&v).map_err(|e| format!("--sampling: {e}"))?);
            }
            "--model" => {
                let v = value(&mut it, "--model")?;
                inv.model = Some(
                    ModelKind::parse(&v)
                        .ok_or_else(|| format!("--model: unknown backend `{v}`"))?,
                );
            }
            "--jobs" => {
                let v = value(&mut it, "--jobs")?;
                inv.jobs = match v.parse::<usize>() {
                    Ok(n) if n >= 1 => Some(n),
                    _ => return Err(format!("--jobs: `{v}` is not a thread count")),
                };
            }
            "--workloads" => {
                let v = value(&mut it, "--workloads")?;
                inv.workloads = Some(parse_workloads(&v)?);
            }
            "--format" => {
                let v = value(&mut it, "--format")?;
                inv.format = match v.to_ascii_lowercase().as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    "csv" => Format::Csv,
                    _ => return Err(format!("--format: expected text, json or csv, got `{v}`")),
                };
            }
            "--json" => inv.json_out = Some(value(&mut it, "--json")?),
            "--csv" => inv.csv_out = Some(value(&mut it, "--csv")?),
            "--telemetry" => inv.telemetry = Some(value(&mut it, "--telemetry")?),
            "--trace-dir" => inv.trace_dir = Some(directory(&mut it, "--trace-dir")?),
            "--cache-dir" => inv.cache_dir = Some(directory(&mut it, "--cache-dir")?),
            "--addr" => inv.addr = Some(value(&mut it, "--addr")?),
            "--serve-workers" => {
                let v = value(&mut it, "--serve-workers")?;
                inv.serve_workers = match v.parse::<usize>() {
                    Ok(n) if n >= 1 => Some(n),
                    _ => return Err(format!("--serve-workers: `{v}` is not a worker count")),
                };
            }
            "--queue-depth" => {
                let v = value(&mut it, "--queue-depth")?;
                inv.queue_depth = Some(
                    v.parse()
                        .map_err(|_| format!("--queue-depth: `{v}` is not a queue size"))?,
                );
            }
            "--op-ceiling" => {
                let v = value(&mut it, "--op-ceiling")?;
                inv.op_ceiling = Some(
                    v.parse()
                        .map_err(|_| format!("--op-ceiling: `{v}` is not an op budget"))?,
                );
            }
            "--cache-budget" => {
                let v = value(&mut it, "--cache-budget")?;
                inv.cache_budget = Some(parse_byte_size(&v).ok_or_else(|| {
                    format!("--cache-budget: `{v}` is not a byte size (K/M/G suffixes ok)")
                })?);
            }
            "--max-bytes" => {
                let v = value(&mut it, "--max-bytes")?;
                inv.max_bytes = Some(parse_byte_size(&v).ok_or_else(|| {
                    format!("--max-bytes: `{v}` is not a byte size (K/M/G suffixes ok)")
                })?);
            }
            "--dist-dir" => inv.dist_dir = Some(directory(&mut it, "--dist-dir")?),
            "--distributed" => inv.distributed = true,
            "--lease-ttl" => {
                let v = value(&mut it, "--lease-ttl")?;
                inv.lease_ttl = Some(parse_seconds("--lease-ttl", &v)?);
            }
            "--heartbeat" => {
                let v = value(&mut it, "--heartbeat")?;
                inv.heartbeat = Some(parse_seconds("--heartbeat", &v)?);
            }
            "--idle-timeout" => {
                let v = value(&mut it, "--idle-timeout")?;
                inv.idle_timeout = Some(parse_seconds("--idle-timeout", &v)?);
            }
            "--local-workers" => {
                let v = value(&mut it, "--local-workers")?;
                inv.local_workers = Some(
                    v.parse()
                        .map_err(|_| format!("--local-workers: `{v}` is not a worker count"))?,
                );
            }
            "--name" => inv.worker_name = Some(value(&mut it, "--name")?),
            "--help" | "-h" => {
                inv.positionals = vec!["help".into()];
                return Ok(inv);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            word => inv.positionals.push(word.to_string()),
        }
    }
    Ok(inv)
}

const USAGE: &str = "\
belenos — the Belenos reproduction harness

USAGE: belenos <subcommand> [flags]

SUBCOMMANDS
  list                        workloads, analyses, backends, workload sets
  table <1|2>                 print Table I / Table II
  figure <id|all>             one analysis (topdown, stalls, hotspots,
                              scaling, exec_time, pipeline, frequency, cache,
                              width, lsq, branch, memory, rob_iq,
                              mesh_scaling; figNN aliases work), or the
                              full paper set
  scenario list               catalog presets and scenario families
  scenario show <id|file>     print a scenario's explicit JSON normal form
  scenario validate <file>    check a scenario document without running it
  scenario run <id|file>      run scenarios end-to-end (presets or JSON)
  campaign run <spec.json>    execute a declarative campaign spec
  campaign example            print a template campaign spec
  campaign validate <spec>    parse + validate a spec without running it
  ablation rcm                RCM reordering ablation
  serve                       long-running HTTP simulation server: submit
                              campaign/scenario specs, poll jobs, stream
                              NDJSON telemetry (see README \"Serving\")
  worker --dist-dir D         distributed campaign worker: claim jobs off the
                              shared board, simulate, publish results (see
                              README \"Distributed campaigns\")
  cache stats                 disk result cache + trace store usage
                              (+ job-board census when a dist dir is set)
  cache gc --max-bytes B      LRU-evict the stores down to a byte budget

FLAGS (shared)
  --max-ops N        micro-op budget per simulation   [1000000]
  --sampling V       off | on | N intervals           [off]
  --model V          o3 | inorder | analytic          [o3]
  --jobs N           threads that compute at once     [BELENOS_JOBS, all cores]
  --workloads V      paper | vtune | gem5 | catalog | id,id,...
  --format V         text | json | csv                [text]
  --json PATH        also write the JSON report to PATH
  --csv PATH         also write the CSV report to PATH
  --telemetry V      off | stderr | PATH (JSONL events) [off]
  --trace-dir PATH   persistent trace store directory   [off]
  --cache-dir PATH   disk result cache directory        [off]

SERVE / CACHE FLAGS
  --addr HOST:PORT   serve listen address                              [127.0.0.1:7878]
  --serve-workers N  concurrent jobs, sharing the one --jobs budget    [2]
  --queue-depth N    jobs that may wait before 429                     [32]
  --op-ceiling N     per-request max_ops ceiling, 0 = unlimited        [100000000]
  --cache-budget B   background GC byte budget (K/M/G ok), 0 = off     [off]
  --max-bytes B      cache gc target size (K/M/G ok)

DISTRIBUTED FLAGS
  --dist-dir D       shared job-board directory; workers and --distributed
                     keep results and traces in its cache/ and traces/
  --distributed      campaign run: execute via the job board
  --local-workers N  in-process workers beside the coordinator         [1]
  --lease-ttl S      steal leases unheartbeated for S seconds          [30]
  --heartbeat S      lease refresh interval                            [ttl/4]
  --name ID          worker name (lease files, merged summary)  [w<pid>-<rand>]
  --idle-timeout S   worker exits after S idle seconds       [run until killed]
";

/// The variables flags replaced. Set, they stop the CLI rather than
/// being ignored, so an old script cannot silently get numbers from
/// another budget or backend, or results and traces from another store.
const RETIRED: [(&str, &str); 8] = [
    ("BELENOS_MAX_OPS", "--max-ops"),
    ("BELENOS_SAMPLING", "--sampling"),
    ("BELENOS_MODEL", "--model"),
    ("BELENOS_CACHE_DIR", "--cache-dir"),
    ("BELENOS_TRACE_DIR", "--trace-dir"),
    ("BELENOS_TELEMETRY", "--telemetry"),
    ("BELENOS_DIST_DIR", "--dist-dir"),
    ("BELENOS_SERVE_ADDR", "--addr"),
];

/// The refusal for the first retired variable `is_set` says is set.
fn retired_variable(is_set: impl Fn(&str) -> bool) -> Option<String> {
    let (var, flag) = RETIRED.iter().find(|(var, _)| is_set(var))?;
    Some(format!("{var} is no longer read; pass {flag} instead"))
}

/// Runs the CLI; returns the process exit code.
pub fn main(args: Vec<String>) -> i32 {
    if let Some(e) = retired_variable(|var| std::env::var_os(var).is_some()) {
        eprintln!("belenos: {e}");
        return 2;
    }
    let inv = match parse(&args) {
        Ok(inv) => inv,
        Err(e) => {
            eprintln!("belenos: {e}");
            eprintln!("run `belenos help` for usage");
            return 2;
        }
    };
    // Install the telemetry selection before anything else runs.
    if let Some(sel) = &inv.telemetry {
        match belenos_telemetry::Telemetry::parse(sel) {
            Ok(t) => {
                belenos_telemetry::install(t);
            }
            Err(e) => {
                eprintln!("belenos: --telemetry: {e}");
                return 2;
            }
        }
    }
    // Same for the trace store.
    if let Some(dir) = &inv.trace_dir {
        belenos::trace_store::install_dir(dir);
    }
    // And the thread budget every subcommand's simulation batches, prepare
    // batches and FE assembly draw on (else BELENOS_JOBS, read on first use).
    if let Some(jobs) = inv.jobs {
        belenos_runner::Budget::install_global(jobs);
    }
    let command = inv
        .positionals
        .first()
        .map(String::as_str)
        .unwrap_or("help");
    let outcome = match command {
        "help" => {
            print!("{USAGE}");
            Ok(())
        }
        "list" => list::run(&inv),
        "table" => figures_cmd::run_table(&inv),
        "figure" => figures_cmd::run_figure(&inv),
        "scenario" => scenario_cmd::run(&inv),
        "campaign" => campaign_cmd::run(&inv),
        "ablation" => ablation::run(&inv),
        "serve" => serve_cmd::run(&inv),
        "worker" => worker_cmd::run(&inv),
        "cache" => cache_cmd::run(&inv),
        other => Err(format!("unknown subcommand `{other}`")),
    };
    match outcome {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("belenos: {e}");
            if matches!(command, "help" | "list") {
                1
            } else {
                // Usage-shaped errors (bad subcommand arguments) exit 2,
                // operational failures 1 — both carry the message above.
                if e.starts_with("usage:") || e.starts_with("unknown subcommand") {
                    2
                } else {
                    1
                }
            }
        }
    }
}

/// Writes the optional `--json` / `--csv` side outputs of a rendered
/// report; the closures lazily produce the renderings.
pub(crate) fn write_side_outputs(
    inv: &Invocation,
    json: impl FnOnce() -> String,
    csv: impl FnOnce() -> String,
) -> Result<(), String> {
    if let Some(path) = &inv.json_out {
        std::fs::write(path, json()).map_err(|e| format!("could not write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if let Some(path) = &inv.csv_out {
        std::fs::write(path, csv()).map_err(|e| format!("could not write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_and_override() {
        let inv = parse(&args(&[
            "figure",
            "topdown",
            "--max-ops",
            "5000",
            "--model",
            "analytic",
            "--sampling",
            "8",
            "--jobs",
            "2",
            "--format",
            "json",
        ]))
        .unwrap();
        assert_eq!(inv.positionals, ["figure", "topdown"]);
        assert_eq!(inv.max_ops, Some(5000));
        assert_eq!(inv.model, Some(ModelKind::Analytic));
        assert_eq!(inv.jobs, Some(2));
        assert_eq!(inv.format, Format::Json);
        let opts = inv.options();
        assert_eq!(opts.max_ops, 5000);
        assert_eq!(opts.sampling.intervals, 8);
        // Over a spec's options, only the flags given move anything.
        let inv = parse(&args(&["campaign", "run", "s.json", "--model", "inorder"])).unwrap();
        let spec = SimOptions::new(20_000).with_sampling(SamplingConfig::smarts(4));
        assert_eq!(
            inv.options_over(spec.clone()),
            spec.with_model(ModelKind::InOrder)
        );
    }

    #[test]
    fn overrides_apply_on_top_of_base() {
        let inv = parse(&args(&[
            "campaign",
            "run",
            "s.json",
            "--max-ops",
            "5000",
            "--model",
            "analytic",
        ]))
        .unwrap();
        let opts = inv.options_over(SimOptions::new(100).with_sampling(SamplingConfig::smarts(4)));
        assert_eq!(opts.max_ops, 5000);
        assert_eq!(opts.model, ModelKind::Analytic);
        // Untouched field passes through.
        assert_eq!(opts.sampling, SamplingConfig::smarts(4));
    }

    #[test]
    fn default_options_match_the_historical_bench_defaults() {
        let opts = parse(&args(&["figure", "all"])).unwrap().options();
        assert_eq!(opts, SimOptions::new(DEFAULT_MAX_OPS));
        assert_eq!(opts.max_ops, 1_000_000);
    }

    #[test]
    fn retired_variables_name_the_flag_that_replaced_them() {
        assert_eq!(retired_variable(|_| false), None);
        let names: Vec<&str> = RETIRED.iter().map(|(var, _)| *var).collect();
        assert_eq!(
            names,
            [
                "BELENOS_MAX_OPS",
                "BELENOS_SAMPLING",
                "BELENOS_MODEL",
                "BELENOS_CACHE_DIR",
                "BELENOS_TRACE_DIR",
                "BELENOS_TELEMETRY",
                "BELENOS_DIST_DIR",
                "BELENOS_SERVE_ADDR",
            ]
        );
        for (var, flag) in RETIRED {
            let e = retired_variable(|v| v == var).unwrap();
            assert!(
                e.starts_with(var) && e.ends_with(&format!("pass {flag} instead")),
                "{e}"
            );
        }
    }

    #[test]
    fn workload_flag_accepts_sets_and_ids() {
        let inv = parse(&args(&["figure", "all", "--workloads", "gem5"])).unwrap();
        assert_eq!(inv.workloads, Some(WorkloadSet::Gem5));
        let inv = parse(&args(&["figure", "all", "--workloads", "pd,co"])).unwrap();
        assert_eq!(
            inv.workloads,
            Some(WorkloadSet::Ids(vec!["pd".into(), "co".into()]))
        );
        assert!(parse(&args(&["figure", "all", "--workloads", "zz"])).is_err());
    }

    #[test]
    fn bad_flags_are_usage_errors() {
        assert!(parse(&args(&["--max-ops"])).is_err());
        assert!(parse(&args(&["--max-ops", "many"])).is_err());
        assert!(parse(&args(&["--frobnicate"])).is_err());
        assert!(parse(&args(&["--format", "xml"])).is_err());
        assert!(parse(&args(&["--telemetry"])).is_err());
        for flag in ["--cache-dir", "--trace-dir", "--dist-dir"] {
            assert!(parse(&args(&[flag, ""])).is_err(), "{flag}");
        }
    }

    #[test]
    fn serve_and_cache_flags_parse() {
        let inv = parse(&args(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--serve-workers",
            "4",
            "--queue-depth",
            "8",
            "--op-ceiling",
            "200000",
            "--cache-budget",
            "512M",
        ]))
        .unwrap();
        assert_eq!(inv.positionals, ["serve"]);
        assert_eq!(inv.addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(inv.serve_workers, Some(4));
        assert_eq!(inv.queue_depth, Some(8));
        assert_eq!(inv.op_ceiling, Some(200_000));
        assert_eq!(inv.cache_budget, Some(512 * 1024 * 1024));
        let inv = parse(&args(&["cache", "gc", "--max-bytes", "64k"])).unwrap();
        assert_eq!(inv.positionals, ["cache", "gc"]);
        assert_eq!(inv.max_bytes, Some(64 * 1024));
        assert!(parse(&args(&["serve", "--serve-workers", "0"])).is_err());
        assert!(parse(&args(&["cache", "gc", "--max-bytes", "lots"])).is_err());
    }

    #[test]
    fn byte_sizes_parse_with_suffixes() {
        assert_eq!(parse_byte_size("1024"), Some(1024));
        assert_eq!(parse_byte_size("2K"), Some(2048));
        assert_eq!(parse_byte_size("3m"), Some(3 << 20));
        assert_eq!(parse_byte_size("1G"), Some(1 << 30));
        assert_eq!(parse_byte_size(""), None);
        assert_eq!(parse_byte_size("G"), None);
        assert_eq!(parse_byte_size("-1"), None);
    }

    #[test]
    fn dist_flags_parse() {
        let inv = parse(&args(&[
            "campaign",
            "run",
            "spec.json",
            "--distributed",
            "--dist-dir",
            "/tmp/dist",
            "--local-workers",
            "0",
            "--lease-ttl",
            "2.5",
            "--heartbeat",
            "0.5",
        ]))
        .unwrap();
        assert!(inv.distributed);
        assert_eq!(inv.dist_dir.as_deref(), Some("/tmp/dist"));
        assert_eq!(inv.local_workers, Some(0));
        assert_eq!(inv.lease_ttl, Some(std::time::Duration::from_millis(2500)));
        assert_eq!(inv.heartbeat, Some(std::time::Duration::from_millis(500)));
        let inv = parse(&args(&[
            "worker",
            "--dist-dir",
            "/tmp/dist",
            "--name",
            "w1",
            "--idle-timeout",
            "10",
        ]))
        .unwrap();
        assert_eq!(inv.positionals, ["worker"]);
        assert_eq!(inv.worker_name.as_deref(), Some("w1"));
        assert_eq!(inv.idle_timeout, Some(std::time::Duration::from_secs(10)));
        assert!(parse(&args(&["worker", "--lease-ttl", "0"])).is_err());
        assert!(parse(&args(&["worker", "--lease-ttl", "soon"])).is_err());
        assert!(parse(&args(&["worker", "--local-workers", "two"])).is_err());
    }

    #[test]
    fn worker_refuses_a_cache_dir_it_would_not_write_to() {
        // A worker's results must land where the coordinator reads them,
        // so `--cache-dir` is a usage error rather than silently unused.
        let root =
            std::env::temp_dir().join(format!("belenos-worker-cache-{}", std::process::id()));
        let (dist, mine) = (root.join("dist"), root.join("mycache"));
        let words = [
            "worker",
            "--dist-dir",
            dist.to_str().unwrap(),
            "--cache-dir",
            mine.to_str().unwrap(),
            "--idle-timeout",
            "0.05",
        ];
        let e = worker_cmd::run(&parse(&args(&words)).unwrap()).unwrap_err();
        assert!(e.starts_with("usage:") && e.contains("<dist>/cache"), "{e}");
        assert_eq!(main(args(&words)), 2);
        assert!(!mine.exists() && !dist.exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn campaign_example_is_the_golden_bytes() {
        assert_eq!(
            campaign_cmd::example_spec().to_json(),
            include_str!("../../../../tests/golden/specs/campaign_example.json")
        );
    }

    #[test]
    fn bench_is_not_a_subcommand() {
        // Timing Belenos is the job of `benchmark/`, not of the program.
        assert_eq!(main(args(&["bench", "compare"])), 2);
        assert!(!USAGE.contains("bench"));
        assert!(parse(&args(&["sampling", "--note", "x"])).is_err());
    }

    #[test]
    fn sampling_spellings_agree_across_flag_and_json() {
        // `--sampling X` and `"sampling": X` (as a number where X is one,
        // and as a string) give the same config or both fail.
        let from_json = |value: &str| {
            let doc = belenos_json::Json::parse(&format!(r#"{{"sampling": {value}}}"#)).unwrap();
            belenos_json::schema::read(&SimOptions::new(DEFAULT_MAX_OPS), &doc, "")
                .map(|o| o.sampling)
                .ok()
        };
        for x in ["off", "on", "0", "8", "-1"] {
            let flag = parse(&args(&["figure", "all", "--sampling", x]))
                .ok()
                .map(|inv| inv.options().sampling);
            assert_eq!(flag, from_json(&format!("\"{x}\"")), "{x} as a string");
            if x.parse::<f64>().is_ok() {
                assert_eq!(flag, from_json(x), "{x} as a number");
            }
        }
        assert_eq!(from_json("\"on\""), Some(SamplingConfig::smarts(128)));
        assert_eq!(from_json("0"), None);
    }

    /// Every `BELENOS_<NAME>` the program reads (`env::var("BELENOS_…")`)
    /// or `text` names, by its `<NAME>`.
    fn knob_names(text: &str, separator: &str) -> std::collections::BTreeSet<String> {
        text.split(separator)
            .skip(1)
            .map(|rest| {
                rest.chars()
                    .take_while(|c| c.is_ascii_uppercase() || *c == '_')
                    .collect::<String>()
            })
            .filter(|name| !name.is_empty())
            .collect()
    }

    #[test]
    fn readme_env_table_lists_exactly_the_knobs_in_the_source() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut in_source = std::collections::BTreeSet::new();
        let mut dirs: Vec<_> = std::fs::read_dir(root.join("crates"))
            .unwrap()
            .map(|krate| krate.unwrap().path().join("src"))
            .collect();
        while let Some(dir) = dirs.pop() {
            for entry in std::fs::read_dir(&dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    dirs.push(path);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    let text = std::fs::read_to_string(&path).unwrap();
                    in_source.extend(knob_names(&text, "env::var(\"BELENOS_"));
                }
            }
        }
        let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
        let table: String = readme
            .split("## Environment variables")
            .nth(1)
            .and_then(|rest| rest.split("\n## ").next())
            .expect("README has an `Environment variables` section")
            .lines()
            .filter(|line| line.starts_with("| `"))
            .map(|line| line.split('|').nth(1).unwrap_or(""))
            .collect();
        assert_eq!(knob_names(&table, "BELENOS_"), in_source);
        assert_eq!(in_source.len(), 2, "{in_source:?}");
    }

    #[test]
    fn readme_usage_and_dispatch_name_the_same_subcommands() {
        // The first word of each line.
        let words = |lines: Vec<&str>| -> std::collections::BTreeSet<String> {
            lines
                .iter()
                .filter_map(|line| line.split([' ', '`']).next())
                .map(str::to_string)
                .collect()
        };
        // The `match command` arms of `main`, bar `help` (USAGE itself).
        let source = include_str!("mod.rs");
        let arms = source
            .split("let outcome = match command {")
            .nth(1)
            .and_then(|rest| rest.split("other => Err").next())
            .expect("main dispatches on `command`");
        let dispatch = words(
            arms.lines()
                .filter_map(|line| line.trim().strip_prefix('"')?.split('"').next())
                .filter(|&command| command != "help")
                .collect(),
        );
        // USAGE's SUBCOMMANDS block: rows start two spaces in.
        let block = USAGE
            .split("SUBCOMMANDS\n")
            .nth(1)
            .and_then(|rest| rest.split("\n\n").next())
            .expect("USAGE has a SUBCOMMANDS block");
        let usage = words(
            block
                .lines()
                .filter_map(|line| line.strip_prefix("  "))
                .filter(|line| !line.starts_with(' '))
                .collect(),
        );
        // The README's subcommand table: rows are "| `belenos <word> ...".
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
        let table = words(
            readme
                .lines()
                .filter_map(|line| line.strip_prefix("| `belenos "))
                .collect(),
        );
        assert_eq!(usage, dispatch, "USAGE vs main");
        assert_eq!(table, dispatch, "README vs main");
    }

    #[test]
    fn telemetry_flag_parses() {
        let inv = parse(&args(&["campaign", "run", "spec.json"])).unwrap();
        assert_eq!(inv.telemetry, None);
        let inv = parse(&args(&["figure", "all", "--telemetry", "out.jsonl"])).unwrap();
        assert_eq!(inv.telemetry.as_deref(), Some("out.jsonl"));
        let inv = parse(&args(&["figure", "agreement", "--telemetry", "off"])).unwrap();
        assert_eq!(inv.telemetry.as_deref(), Some("off"));
    }
}
