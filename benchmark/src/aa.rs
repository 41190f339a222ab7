//! `aa`: does the benchmark agree with itself on this machine?
//!
//! Runs two interleaved sets of the *same binary* (A₁ B₁ A₂ B₂ …, one
//! seed per index, every workload per index) and prints, per end-to-end
//! metric × workload, both medians, the gap between them, the spread of
//! each set (quartile distance ÷ median, as `statistics.quantiles(n=4)`
//! gives it) and the bound. It also prints the gap three other estimators
//! would have given on the very same samples — the un-normalised mean,
//! the mean normalised by the ALU loop alone, and the median of the
//! normalised repetitions — so the choice of estimator stays checkable.
//! Exits non-zero when a gap exceeds its bound.
//!
//! Also home of `describe`, which prints `BENCHMARK.json` from the metric
//! tables.

use crate::clock::{normalise, slowdown, Probe, REF_NOMINAL_S};
use crate::metrics::{mean, END_TO_END, PER_LAYER};
use crate::workloads::WORKLOADS;
use crate::{Args, RUN_SECONDS};
use belenos_json::Json;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

/// `BENCHMARK.json`, generated so the file and the harness cannot drift.
pub fn benchmark_json() -> String {
    let text = |s: &str| Json::Str(s.to_string());
    Json::obj(vec![
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .map(text)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![text("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| Json::obj(vec![("name", text(name)), ("why", text(why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|&(name, unit, better, bound)| {
                        Json::obj(vec![
                            ("name", text(name)),
                            ("unit", text(unit)),
                            ("better", text(better)),
                            ("bound", Json::Num(bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|&(name, unit, better)| {
                        Json::obj(vec![
                            ("name", text(name)),
                            ("unit", text(unit)),
                            ("better", text(better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .pretty()
}

/// One finished run, read back from its record.
struct RunRecord {
    metrics: Vec<(String, f64)>,
    sim_ops: f64,
    failed: f64,
    /// Per repetition: the probes before set-up, between the segments and
    /// after the pass, then raw wall and CPU seconds of both segments.
    probes: [Vec<Probe>; 3],
    setup_raw: Vec<f64>,
    setup_cpu_raw: Vec<f64>,
    pass_raw: Vec<f64>,
    cpu_raw: Vec<f64>,
}

fn floats(doc: &Json, key: &str) -> Vec<f64> {
    doc.get(key)
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

fn read_record(path: &Path) -> Result<RunRecord, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let metrics = doc
        .get("result")
        .and_then(|r| r.get("metrics"))
        .and_then(Json::as_obj)
        .ok_or("record without metrics")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    let samples = doc.get("samples").ok_or("record without samples")?;
    let probes = |at: &str| -> Vec<Probe> {
        floats(samples, &format!("ref_{at}_s"))
            .into_iter()
            .zip(floats(samples, &format!("mem_ref_{at}_s")))
            .map(|(alu_s, mem_s)| Probe { alu_s, mem_s })
            .collect()
    };
    Ok(RunRecord {
        metrics,
        sim_ops: doc
            .get("sim_ops_per_pass")
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
        failed: doc.get("ops_failed").and_then(Json::as_f64).unwrap_or(0.0),
        probes: [probes("before"), probes("between"), probes("after")],
        setup_raw: floats(samples, "setup_raw_s"),
        setup_cpu_raw: floats(samples, "setup_cpu_raw_s"),
        pass_raw: floats(samples, "pass_raw_s"),
        cpu_raw: floats(samples, "cpu_raw_s"),
    })
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Quartile distance ÷ median, with Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) quartiles.
pub fn spread(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(&s)
}

impl RunRecord {
    fn metric(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |&(_, v)| v)
    }

    /// Per repetition `(wall, cpu, probe before, probe after)` behind a
    /// timed metric.
    fn series(&self, name: &str) -> Option<Vec<(f64, f64, Probe, Probe)>> {
        let (wall, cpu, before, after) = match name {
            "setup_s" => (&self.setup_raw, &self.setup_cpu_raw, 0, 1),
            "pass_s" => (&self.pass_raw, &self.cpu_raw, 1, 2),
            // CPU seconds are all on-CPU time.
            "cpu_s" => (&self.cpu_raw, &self.cpu_raw, 1, 2),
            _ => return None,
        };
        Some(
            (0..wall.len())
                .map(|i| {
                    (
                        wall[i],
                        cpu[i],
                        self.probes[before][i],
                        self.probes[after][i],
                    )
                })
                .collect(),
        )
    }

    fn raw_mean(&self, name: &str) -> Option<f64> {
        let s = self.series(name)?;
        Some(mean(s.iter().map(|r| r.0)))
    }

    /// What the ALU loop alone, applied to the whole wall, would report.
    fn alu_only_mean(&self, name: &str) -> Option<f64> {
        let s = self.series(name)?;
        Some(mean(s.iter().map(|&(wall, _, b, a)| {
            wall * REF_NOMINAL_S / (0.5 * (b.alu_s + a.alu_s))
        })))
    }

    fn normalised_median(&self, name: &str) -> Option<f64> {
        let s = self.series(name)?;
        Some(median(
            &s.iter()
                .map(|&(wall, cpu, b, a)| normalise(wall, cpu, slowdown(b, a)))
                .collect::<Vec<_>>(),
        ))
    }
}

fn gap(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        0.0
    } else {
        (b - a).abs() / a
    }
}

pub fn command(args: &Args) -> Result<ExitCode, String> {
    let runs: usize = args.number("runs", 5)?;
    let seconds: f64 = args.number("seconds", RUN_SECONDS as f64)?;
    let seed: u64 = args.number("seed", 1)?;
    let names: Vec<&str> = match args.get("workloads") {
        Some(list) => list.split(',').collect(),
        None => WORKLOADS.iter().map(|w| w.0).collect(),
    };
    let out_dir = args.out_dir();
    let dir = out_dir.join("aa");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;

    // sets[workload][set] -> records, interleaved in time.
    let mut sets: Vec<[Vec<RunRecord>; 2]> =
        names.iter().map(|_| [Vec::new(), Vec::new()]).collect();
    for i in 0..runs {
        for (w, name) in names.iter().enumerate() {
            for (set, label) in ["a", "b"].iter().enumerate() {
                let record = dir.join(format!("{name}-{label}{i}.json"));
                let status = Command::new(&exe)
                    .args(["--workload", name, "--trace", "0"])
                    .args(["--seed", &(seed + i as u64).to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .arg("--out-dir")
                    .arg(&out_dir)
                    .arg("--record")
                    .arg(&record)
                    .stdout(Stdio::null())
                    .stderr(Stdio::null())
                    .status()
                    .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
                if !status.success() {
                    return Err(format!("run {label}{i} of {name} exited with {status}"));
                }
                sets[w][set].push(read_record(&record)?);
                eprintln!("aa: {name} {label}{i} done");
            }
        }
    }

    let mut worst: (f64, String) = (0.0, String::new());
    let mut past_bound = false;
    println!(
        "A/A: {runs} run(s) per set, {seconds} s each, seeds {seed}..{}, interleaved A B A B",
        seed + runs as u64 - 1
    );
    println!(
        "| workload | metric | median A | median B | gap | spread A | spread B | bound | gap, raw mean | gap, ALU-only mean | gap, median of reps |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|---|");
    for (w, name) in names.iter().enumerate() {
        let [a, b] = &sets[w];
        for &(metric, unit, _, bound) in &END_TO_END {
            let of = |set: &[RunRecord],
                      f: &dyn Fn(&RunRecord) -> Option<f64>|
             -> Option<Vec<f64>> { set.iter().map(f).collect() };
            let va: Vec<f64> = a.iter().map(|r| r.metric(metric)).collect();
            let vb: Vec<f64> = b.iter().map(|r| r.metric(metric)).collect();
            let g = gap(median(&va), median(&vb));
            let alt = |f: &dyn Fn(&RunRecord) -> Option<f64>| match (of(a, f), of(b, f)) {
                (Some(xa), Some(xb)) => format!("{:.2} %", 100.0 * gap(median(&xa), median(&xb))),
                _ => "–".to_string(),
            };
            println!(
                "| {name} | {metric} ({unit}) | {:.5} | {:.5} | {:.2} % | {:.2} % | {:.2} % | {:.0} % | {} | {} | {} |",
                median(&va),
                median(&vb),
                100.0 * g,
                100.0 * spread(&va),
                100.0 * spread(&vb),
                100.0 * bound,
                alt(&|r| r.raw_mean(metric)),
                alt(&|r| r.alu_only_mean(metric)),
                alt(&|r| r.normalised_median(metric)),
            );
            if g > worst.0 {
                worst = (g, format!("{metric} on {name}"));
            }
            past_bound |= g > bound;
        }
        let failed: f64 = a.iter().chain(b).map(|r| r.failed).sum();
        println!(
            "| {name} | sim ops per pass (exact) | {} | {} | {} | | | | | | |",
            a[0].sim_ops,
            b[0].sim_ops,
            if a.iter().zip(b).all(|(x, y)| x.sim_ops == y.sim_ops) {
                "identical in every A/B pair"
            } else {
                "DIFFER"
            }
        );
        println!("| {name} | ops failed | {failed} | | | | | | | | |");
        past_bound |= failed > 0.0;
    }
    println!(
        "worst gap: {:.2} % ({}) — {}",
        100.0 * worst.0,
        worst.1,
        if past_bound {
            "PAST A BOUND"
        } else {
            "every gap within its bound"
        }
    );
    Ok(if past_bound {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}
