//! The Belenos benchmark: end-to-end and per-layer numbers for the whole
//! stack, measured from outside through public functions only.
//!
//! ```text
//! belenos-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! belenos-benchmark aa [--runs N] [--seconds S] [--workloads a,b]
//! belenos-benchmark describe          # prints BENCHMARK.json
//! ```
//!
//! See README.md for what is measured and why it is measured this way.

mod aa;
mod alloc;
mod clock;
mod ladder;
mod metrics;
mod run;
mod shares;
mod spans;
mod workloads;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

use std::path::PathBuf;
use std::process::ExitCode;

/// What one run measures for, in seconds (`run_seconds` in BENCHMARK.json).
pub const RUN_SECONDS: u32 = 30;

/// `--name value` pairs after the optional subcommand.
pub struct Args(Vec<(String, String)>);

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(name) = it.next() {
            let key = name
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{name}`"))?;
            let value = it.next().ok_or_else(|| format!("`{name}` needs a value"))?;
            pairs.push((key.to_string(), value.clone()));
        }
        Ok(Args(pairs))
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    pub fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: `{v}` is not a valid value")),
        }
    }

    pub fn out_dir(&self) -> PathBuf {
        PathBuf::from(self.get("out-dir").unwrap_or("benchmark/target"))
    }
}

/// The environment decides nothing: every `BELENOS_*` knob is cleared and
/// the one the benchmark relies on is set: one simulation thread and
/// serial prepares. (FE assembly sizes itself from
/// `available_parallelism()`, which reads 1 once the run has pinned itself
/// to one CPU.)
fn pin_environment() {
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("BELENOS_"))
        .collect();
    for k in knobs {
        std::env::remove_var(k);
    }
    std::env::set_var("BELENOS_JOBS", "1");
    belenos_telemetry::install(belenos_telemetry::Telemetry::disabled());
}

fn run_command(args: &Args) -> Result<ExitCode, String> {
    let cfg = run::RunConfig {
        workload: args
            .get("workload")
            .ok_or("--workload is required")?
            .to_string(),
        seed: args.number("seed", 1)?,
        seconds: args.number("seconds", RUN_SECONDS as f64)?,
        trace: match args.get("trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace: `{other}` is not 0 or 1")),
        },
        out_dir: args.out_dir(),
        record: args.get("record").map(PathBuf::from),
    };
    let outcome = run::run(&cfg)?;
    for (name, value) in &outcome.metrics.0 {
        eprintln!("{name:36} {value:>16.6} {}", metrics::unit_of(name));
    }
    println!("{}", outcome.to_json().render());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(c) if !c.starts_with("--") => (c, &argv[1..]),
        _ => ("run", &argv[..]),
    };
    pin_environment();
    let result = Args::parse(rest).and_then(|args| match command {
        "run" => run_command(&args),
        "aa" => aa::command(&args),
        "describe" => {
            println!("{}", aa::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}` (run, aa, describe)")),
    });
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("belenos-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
