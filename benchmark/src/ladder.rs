//! The per-layer ladder of the traced run: one row per layer, bottom up,
//! each the reference-normalised mean of >= 30 timed calls of a public
//! function on inputs taken from the workloads, or an exact count.
//!
//! Also returns the unit costs the share model multiplies exact counts
//! by (see `shares.rs`): nothing inside the program is instrumented by
//! this change, so the time a layer spends *inside* another layer's span
//! can only be estimated from outside.

use crate::clock::{self, normalise, probe, slowdown, CpuMask, Probe};
use crate::metrics::Metrics;
use crate::workloads::store_cycle::MAX_KERNEL_OPS;
use belenos::campaign::{Campaign, CampaignSpec};
use belenos::experiment::Experiment;
use belenos::trace_store::TraceStore;
use belenos_dist::{board, Coordinator, DistConfig, JobDoc};
use belenos_json::Json;
use belenos_profiler::{HotspotProfile, MemoryProfile, TopDown};
use belenos_runner::cache::{decode_stats, encode_stats};
use belenos_runner::{gc, Cache, CacheKey, JobSpec, RunPlan, Runner, Simulate};
use belenos_sparse::reorder::rcm;
use belenos_sparse::solver::cg::{solve_preconditioned, CgOptions};
use belenos_sparse::solver::ldl::{LdlFactor, SymbolicLdl};
use belenos_sparse::solver::precond::JacobiPrecond;
use belenos_telemetry::Telemetry;
use belenos_trace::expand::Expander;
use belenos_trace::{FlatTrace, SolveMeta, StoreHeader, TraceArtifact, HEADER_LEN};
use belenos_uarch::cache::Hierarchy;
use belenos_uarch::config::BranchPredictorKind;
use belenos_uarch::tlb::Tlb;
use belenos_uarch::{build_model, CoreConfig, ModelKind, SamplingConfig, SimStats};
use belenos_workloads::ScenarioSpec;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Timed calls per row (a batched row counts each batch as one call).
const CALLS: usize = 30;

/// Unit costs for the share model, in normalised seconds.
#[derive(Debug, Clone, Default)]
pub struct UnitCosts {
    pub expand_s_per_op: f64,
    /// `TraceStore::save` (encode, write, rename) per artifact byte.
    pub store_save_s_per_byte: f64,
    pub store_decode_s_per_byte: f64,
    pub disk_hit_s: f64,
    pub disk_insert_s: f64,
    /// Share of an FE solve spent in element assembly (the rest is the
    /// linear solves), over the workload's own scenarios.
    pub fem_frac_of_solve: f64,
}

/// Times blocks of calls between probes; the probe after one row is the
/// probe before the next.
struct Bench {
    last: Probe,
}

impl Bench {
    fn new() -> Bench {
        Bench { last: probe() }
    }

    /// Normalised seconds per call over `calls` calls of `f`.
    fn time<T>(&mut self, calls: usize, mut f: impl FnMut() -> T) -> f64 {
        let c0 = clock::process_cpu_s();
        let t0 = Instant::now();
        for _ in 0..calls {
            black_box(f());
        }
        let wall = t0.elapsed().as_secs_f64();
        let cpu = clock::process_cpu_s() - c0;
        let after = probe();
        let out = normalise(wall, cpu, slowdown(self.last, after)) / calls as f64;
        self.last = after;
        out
    }
}

/// A workload that costs nothing to simulate: what is left is the runner.
struct Null;

impl Simulate for Null {
    fn workload_id(&self) -> &str {
        "null"
    }

    fn simulate(&self, _: &CoreConfig, max_ops: usize, _: &SamplingConfig) -> SimStats {
        SimStats {
            committed_ops: max_ops as u64,
            ..SimStats::default()
        }
    }
}

fn fresh_dir(path: &Path) {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path).expect("create ladder scratch directory");
}

/// Runs every row; `scratch` is a directory of the ladder's own.
pub fn run(
    m: &mut Metrics,
    scratch: &Path,
    sweep_spec_text: &str,
    fe_scenarios: &[ScenarioSpec],
    all_cpus: Option<&CpuMask>,
) -> UnitCosts {
    // The run is pinned to one CPU; the two rows that compare one thread
    // with two get the other CPUs back while they run.
    let unpinned = |b: &mut Bench, f: &mut dyn FnMut(&mut Bench)| {
        if let Some(all) = all_cpus {
            clock::unpin(all);
        }
        f(b);
        if all_cpus.is_some() {
            clock::pin_to_one_cpu();
        }
    };
    let mut b = Bench::new();
    let mut costs = UnitCosts::default();
    let o3 = CoreConfig::gem5_baseline();

    // ---- inputs, from the workloads ----------------------------------
    // param_ident's contact candidate: the FE and sparse rows.
    let mut contact = belenos_workloads::by_id("co").expect("co preset");
    (contact.mesh.nx, contact.mesh.ny, contact.mesh.nz) = (5, 5, 6);
    let contact_doc = contact.to_json();
    let model = contact.build_model().expect("contact model");
    let u0 = vec![0.0; model.n_dofs()];
    let (mut k, _) = model.assemble_at(&u0).expect("assemble contact");
    // `assemble_at` applies no boundary conditions, so K is singular;
    // a diagonal shift makes it the SPD system the solvers expect.
    let shift = 1e-3 * k.diagonal().iter().fold(0.0f64, |a, &d| a.max(d.abs()));
    for r in 0..k.nrows() {
        let d = k.get(r, r);
        k.set(r, r, d + shift).expect("diagonal is in the pattern");
    }
    // Right-hand side with a known, non-trivial solution.
    let rhs = k
        .spmv(
            &(0..k.nrows())
                .map(|i| 1.0 + (i % 7) as f64)
                .collect::<Vec<_>>(),
        )
        .expect("square system");
    // sweep_o3's `co`: the trace and core-model rows.
    let co = belenos_workloads::by_id("co").expect("co preset");
    let exp = Experiment::prepare_with_store(&co, None).expect("co solves");
    let expand = co.expand_config();
    let n_ops = 60_000usize;
    let mut flat = FlatTrace::with_capacity(n_ops);
    for op in Expander::with_config(exp.log(), expand.clone()).take(n_ops) {
        flat.push(op);
    }

    // ---- sparse -----------------------------------------------------
    let sym = SymbolicLdl::analyze(&k).expect("symbolic LDL");
    m.set("sparse.ldl_fill_ratio", sym.fill_ratio(&k));
    m.set(
        "sparse.ldl_factor_ms",
        1e3 * b.time(CALLS, || LdlFactor::new(&k).expect("LDL factor")),
    );
    let factor = LdlFactor::new(&k).expect("LDL factor");
    m.set(
        "sparse.ldl_solve_us",
        1e6 * b.time(CALLS * 8, || factor.solve(&rhs).expect("LDL solve")),
    );
    let jacobi = JacobiPrecond::new(&k).expect("Jacobi preconditioner");
    let cg = |k| solve_preconditioned(k, &rhs, &jacobi, &CgOptions::default()).expect("CG");
    m.set("sparse.cg_iterations", cg(&k).iterations as f64);
    m.set("sparse.cg_solve_ms", 1e3 * b.time(CALLS, || cg(&k)));
    m.set("sparse.rcm_ms", 1e3 * b.time(CALLS, || rcm(k.pattern())));

    // ---- fem ---------------------------------------------------------
    m.set(
        "fem.assemble_ms",
        1e3 * b.time(CALLS, || model.assemble_at(&u0).expect("assemble")),
    );
    let assemble_with = |threads: usize, b: &mut Bench| {
        let mut model = contact.build_model().expect("contact model");
        model.set_assembly_threads(Some(threads));
        b.time(CALLS, || model.assemble_at(&u0).expect("assemble"))
    };
    unpinned(&mut b, &mut |b| {
        let serial = assemble_with(1, b);
        m.set("fem.assemble_speedup_2t", serial / assemble_with(2, b));
    });
    let mut iterations = 0;
    let mut models: Vec<_> = (0..CALLS)
        .map(|_| contact.build_model().expect("contact model"))
        .collect();
    m.set(
        "fem.solve_ms",
        1e3 * b.time(CALLS, || {
            let report = models
                .pop()
                .expect("one model per call")
                .solve()
                .expect("solve");
            iterations = report.total_iterations;
            report.converged
        }),
    );
    m.set("fem.newton_iterations", iterations as f64);

    // ---- workloads ----------------------------------------------------
    m.set(
        "workloads.spec_parse_us",
        1e6 * b.time(CALLS * 8, || {
            ScenarioSpec::parse(&contact_doc)
                .expect("scenario document")
                .stable_digest()
        }),
    );
    m.set(
        "workloads.build_model_ms",
        1e3 * b.time(CALLS, || contact.build_model().expect("contact model")),
    );

    // ---- trace ---------------------------------------------------------
    let expand_s = b.time(CALLS, || {
        let mut out = FlatTrace::with_capacity(n_ops);
        for op in Expander::with_config(exp.log(), expand.clone()).take(n_ops) {
            out.push(op);
        }
        out.len()
    });
    costs.expand_s_per_op = expand_s / n_ops as f64;
    m.set("trace.expand_mops_per_s", n_ops as f64 / expand_s / 1e6);
    let replay_s = b.time(CALLS, || {
        flat.iter()
            .fold(0u64, |acc, op| acc.wrapping_add(op.addr ^ op.pc as u64))
    });
    m.set(
        "trace.flat_replay_mops_per_s",
        n_ops as f64 / replay_s / 1e6,
    );
    m.set(
        "trace.flat_bytes_per_op",
        flat.footprint_bytes() as f64 / flat.len() as f64,
    );
    let artifact = TraceArtifact {
        scenario_digest: co.stable_digest(),
        // Any value: only `TraceStore` interprets the key fields.
        expand_fingerprint: 0,
        trace_fingerprint: exp.trace_fingerprint(),
        solve: SolveMeta {
            wall_secs: 0,
            wall_subsec_nanos: 0,
            n_dofs: exp.solve.n_dofs,
            iterations: exp.solve.iterations,
            size_kb: exp.solve.size_kb,
            converged: exp.solve.converged,
        },
        log: exp.log().clone(),
        flat: Some(Arc::new(flat.clone())),
    };
    let bytes = artifact.encode();
    let encode_s = b.time(CALLS, || artifact.encode().len());
    m.set(
        "trace.store_encode_mb_per_s",
        bytes.len() as f64 / encode_s / 1e6,
    );
    let header = StoreHeader::decode(&bytes[..HEADER_LEN]).expect("own header");
    let log_section = &bytes[HEADER_LEN..header.flat_offset() as usize];
    let flat_section = &bytes[header.flat_offset() as usize..];
    m.set(
        "trace.store_decode_log_us",
        1e6 * b.time(CALLS, || {
            TraceArtifact::decode_log(&header, log_section).expect("own log section")
        }),
    );
    let decode_s = b.time(CALLS, || {
        TraceArtifact::decode_flat(&header, flat_section)
            .expect("own flat section")
            .len()
    });
    costs.store_decode_s_per_byte = decode_s / flat_section.len() as f64;
    m.set(
        "trace.store_decode_flat_mb_per_s",
        flat_section.len() as f64 / decode_s / 1e6,
    );

    // ---- uarch -----------------------------------------------------------
    let mut co_stats = SimStats::default();
    for (kind, name) in [
        (ModelKind::O3, "uarch.o3_mops_per_s"),
        (ModelKind::InOrder, "uarch.inorder_mops_per_s"),
        (ModelKind::Analytic, "uarch.analytic_mops_per_s"),
    ] {
        let cfg = o3.clone().with_model(kind);
        let s = b.time(CALLS, || {
            let mut core = build_model(&cfg);
            let stats = core.run_warm_flat(&flat, 0, n_ops, n_ops as u64 / 4);
            if kind == ModelKind::O3 {
                co_stats = stats.clone();
            }
            stats.cycles
        });
        m.set(name, n_ops as f64 / s / 1e6);
    }
    m.set("uarch.sim_ipc_co", co_stats.ipc());
    m.set("uarch.sim_cycles_co", co_stats.cycles as f64);
    m.set(
        "uarch.model_build_us",
        1e6 * b.time(CALLS, || build_model(&o3).kind()),
    );
    // Component rows: one call is a batch over the trace's own addresses
    // and branches, so the access pattern is the workload's.
    let mem: Vec<(u64, bool)> = flat
        .iter()
        .filter(|op| op.kind.is_mem())
        .map(|op| (op.addr, matches!(op.kind, belenos_trace::OpKind::Store)))
        .collect();
    let branches: Vec<(u32, bool)> = flat
        .iter()
        .filter(|op| matches!(op.kind, belenos_trace::OpKind::Branch))
        .map(|op| (op.pc, op.taken))
        .collect();
    let mut hierarchy = Hierarchy::new(&o3);
    let batch = b.time(CALLS, || {
        mem.iter().enumerate().fold(0u64, |acc, (i, &(a, w))| {
            acc ^ hierarchy.data_access(a, w, i as u64).done
        })
    });
    m.set(
        "uarch.cache_access_ns",
        1e9 * batch / mem.len().max(1) as f64,
    );
    let mut tlb = Tlb::new(o3.tlb_entries);
    let batch = b.time(CALLS, || {
        mem.iter().filter(|&&(a, _)| tlb.access(a)).count()
    });
    m.set("uarch.tlb_access_ns", 1e9 * batch / mem.len().max(1) as f64);
    let mut predictor = belenos_uarch::branch::build(BranchPredictorKind::Tournament);
    let batch = b.time(CALLS, || {
        branches
            .iter()
            .filter(|&&(pc, taken)| {
                let hit = predictor.predict(pc) == taken;
                predictor.update(pc, taken);
                hit
            })
            .count()
    });
    m.set(
        "uarch.bp_lookup_ns",
        1e9 * batch / branches.len().max(1) as f64,
    );

    // ---- profiler -----------------------------------------------------
    m.set(
        "profiler.analyses_us",
        1e6 * b.time(CALLS * 8, || {
            (
                TopDown::from_stats("co", &co_stats),
                HotspotProfile::from_stats("co", &co_stats),
                MemoryProfile::from_stats("co", &co_stats),
            )
        }),
    );

    // ---- runner ---------------------------------------------------------
    let jobs = 1000;
    let mut plan = RunPlan::new();
    for i in 0..jobs {
        plan.push(JobSpec::new(0, "null", o3.clone(), i + 1));
    }
    let mut warm = Vec::new();
    m.set(
        "runner.job_overhead_us",
        1e6 / jobs as f64
            * b.time(CALLS, || {
                let runner = Runner::isolated(1);
                let n = runner.run(&[Null], &plan).len();
                warm.push(runner);
                n
            }),
    );
    let runner = warm.pop().expect("a warm runner");
    drop(warm);
    m.set(
        "runner.mem_hit_us",
        1e6 / jobs as f64 * b.time(CALLS, || runner.run(&[Null], &plan).len()),
    );
    let cache_dir = scratch.join("cache");
    fresh_dir(&cache_dir);
    let entries = 256;
    let keys: Vec<CacheKey> = (0..entries)
        .map(|i| CacheKey::new("null", 0, &o3, i + 1, &SamplingConfig::off()))
        .collect();
    let disk = Cache::with_disk(&cache_dir);
    let mut next = keys.iter().cycle();
    costs.disk_insert_s = b.time(entries, || {
        disk.insert(next.next().expect("cycle").clone(), &co_stats)
    });
    m.set("runner.disk_insert_us", 1e6 * costs.disk_insert_s);
    let cold = Cache::with_disk(&cache_dir);
    let mut next = keys.iter().cycle();
    costs.disk_hit_s = b.time(entries, || {
        cold.lookup(next.next().expect("cycle")).is_some()
    });
    m.set("runner.disk_hit_us", 1e6 * costs.disk_hit_s);
    m.set(
        "runner.stats_codec_us",
        1e6 * b.time(CALLS * 8, || {
            decode_stats(&encode_stats(&co_stats)).is_some()
        }),
    );
    m.set(
        "runner.gc_scan_ms",
        1e3 * b.time(CALLS, || gc::dir_usage(&cache_dir).map_or(0, |u| u.files)),
    );
    let mut plan = RunPlan::new();
    for i in 0..8 {
        plan.push(JobSpec::new(
            0,
            format!("{i}"),
            o3.clone().with_frequency(1.0 + i as f64 * 0.25),
            n_ops,
        ));
    }
    let exps = [exp];
    unpinned(&mut b, &mut |b| {
        let one = b.time(4, || Runner::isolated(1).run(&exps, &plan).len());
        let two = b.time(4, || Runner::isolated(2).run(&exps, &plan).len());
        m.set("runner.efficiency_2t", one / (2.0 * two));
    });
    let [exp] = exps;

    // ---- core --------------------------------------------------------
    m.set(
        "core.prepare_cold_ms",
        1e3 * b.time(CALLS, || {
            Experiment::prepare_with_store(&co, None)
                .expect("co solves")
                .solve
                .iterations
        }),
    );
    // store_cycle's `co`: the store rows.
    let mut co_sc = co.clone();
    co_sc.id = "co-sc".into();
    co_sc.expand.max_kernel_ops = MAX_KERNEL_OPS;
    let traces = scratch.join("traces");
    fresh_dir(&traces);
    let store = TraceStore::at(&traces);
    let expand_sc = co_sc.expand_config();
    drop(Experiment::prepare_with_store(&co_sc, Some(&store)).expect("co-sc solves"));
    m.set(
        "core.prepare_warm_ms",
        1e3 * b.time(CALLS, || {
            Experiment::prepare_with_store(&co_sc, Some(&store))
                .expect("store hit")
                .solve
                .iterations
        }),
    );
    let digest = co_sc.stable_digest();
    m.set(
        "core.store_load_ms",
        1e3 * b.time(CALLS, || {
            store.load(&co_sc.id, digest, &expand_sc).is_some()
        }),
    );
    if let Some((mut stored, handle)) = store.load(&co_sc.id, digest, &expand_sc) {
        stored.flat = handle.and_then(|h| h.read());
        let copy = TraceStore::at(scratch.join("traces-copy"));
        fresh_dir(copy.dir());
        let save_s = b.time(CALLS, || copy.save(&co_sc.id, &stored, &expand_sc));
        m.set("core.store_save_ms", 1e3 * save_s);
        let saved = std::fs::metadata(copy.entry_path(digest, &expand_sc)).map_or(0, |f| f.len());
        costs.store_save_s_per_byte = save_s / saved.max(1) as f64;
    }
    m.set(
        "core.campaign_parse_us",
        1e6 * b.time(CALLS * 8, || CampaignSpec::parse(sweep_spec_text).is_ok()),
    );
    let sweep = CampaignSpec::parse(sweep_spec_text)
        .map_err(|e| e.to_string())
        .and_then(|s| Campaign::prepare(s).map_err(|e| e.to_string()))
        .expect("sweep_o3 campaign prepares");
    let report = sweep.run(&Runner::isolated(1));
    m.set(
        "core.report_render_us",
        1e6 * b.time(CALLS, || report.to_json().len()),
    );
    let total = exp.total_trace_ops();
    let sampled_s = b.time(CALLS, || {
        exp.simulate_sampled(&o3, n_ops, &SamplingConfig::smarts(32))
            .cycles
    });
    m.set("core.sampled_mops_per_s", total as f64 / sampled_s / 1e6);

    // ---- json ------------------------------------------------------------
    let text = report.to_json();
    let doc = Json::parse(&text).expect("own rendering parses");
    let s = b.time(CALLS, || Json::parse(&text).is_ok());
    m.set("json.parse_mb_per_s", text.len() as f64 / s / 1e6);
    let s = b.time(CALLS, || doc.pretty().len());
    m.set("json.render_mb_per_s", text.len() as f64 / s / 1e6);

    // ---- telemetry -----------------------------------------------------
    let spans = 4096;
    let (tele, _buffer) = Telemetry::to_buffer();
    let s = b.time(CALLS, || {
        for i in 0..spans {
            drop(tele.span("bench", &[("i", (i as u64).into())]));
        }
    });
    m.set("telemetry.span_ns", 1e9 * s / spans as f64);
    let off = Telemetry::disabled();
    let s = b.time(CALLS, || {
        for i in 0..spans {
            drop(black_box(&off).span("bench", &[("i", (i as u64).into())]));
        }
    });
    m.set("telemetry.disabled_span_ns", 1e9 * s / spans as f64);

    // ---- dist ------------------------------------------------------------
    let board_cfg = DistConfig::new(scratch.join("board"), "ladder");
    fresh_dir(&board_cfg.dir);
    board_cfg.ensure_layout().expect("board layout");
    let docs: Vec<JobDoc> = keys
        .iter()
        .take(64)
        .map(|key| JobDoc {
            digest: key.address(),
            workload: key.workload.clone(),
            label: "ladder".into(),
            scenario: co_sc.clone(),
            config: o3.clone(),
            max_ops: key.max_ops,
            sampling: SamplingConfig::off(),
        })
        .collect();
    let mut next = docs.iter();
    m.set(
        "dist.publish_us",
        1e6 * b.time(docs.len(), || {
            board::publish(&board_cfg, next.next().expect("one doc per call")).is_ok()
        }),
    );
    m.set(
        "dist.claim_us",
        1e6 * b.time(docs.len(), || board::claim_open(&board_cfg).is_some()),
    );
    // The same small campaign run locally and through the board; the
    // difference, per job, is what the board costs.
    let mut rj = belenos_workloads::by_id("rj").expect("rj preset");
    rj.id = "rj-ladder".into();
    rj.expand.max_kernel_ops = MAX_KERNEL_OPS;
    let spec_text = format!(
        "{{\"name\": \"board\", \"workloads\": [{}], \"options\": {{\"max_ops\": 60000, \
         \"sampling\": \"off\", \"model\": \"inorder\"}}, \"analyses\": [\"frequency\"]}}",
        rj.to_json()
    );
    let dist_cfg = DistConfig::new(scratch.join("dist"), "ladder")
        .with_heartbeat(std::time::Duration::from_millis(2));
    let mut simulated = 0u64;
    let mut stolen = 0u64;
    let mut run_board = |distributed: bool, b: &mut Bench| {
        b.time(6, || {
            fresh_dir(&dist_cfg.dir);
            dist_cfg.ensure_layout().expect("dist layout");
            let mut runner = Runner::new(1, Cache::with_disk(dist_cfg.cache_dir()));
            let coordinator = Arc::new(Coordinator::new(dist_cfg.clone()).with_local_workers(1));
            if distributed {
                runner = runner.with_distributor(Arc::clone(&coordinator) as _);
            }
            let campaign = CampaignSpec::parse(&spec_text)
                .expect("generated spec")
                .prepare()
                .expect("rj solves");
            let failures = campaign.run(&runner).failures().len();
            simulated = runner.cache().stats().misses;
            stolen += coordinator.merged().stolen();
            failures
        })
    };
    let local = run_board(false, &mut b);
    let boarded = run_board(true, &mut b);
    m.set(
        "dist.board_overhead_ms_per_job",
        1e3 * (boarded - local) / simulated.max(1) as f64,
    );
    m.set("dist.stolen", stolen as f64);

    // ---- share-model input: assembly's part of an FE solve ---------------
    let (mut assembly_s, mut solve_s) = (0.0, 0.0);
    for spec in fe_scenarios {
        let Ok(mut model) = spec.build_model() else {
            continue;
        };
        let u0 = vec![0.0; model.n_dofs()];
        let one = b.time(3, || model.assemble_at(&u0).is_ok());
        let mut iterations = 0;
        solve_s += b.time(1, || {
            iterations = model.solve().map_or(0, |r| r.total_iterations);
        });
        assembly_s += one * iterations as f64;
    }
    costs.fem_frac_of_solve = if solve_s > 0.0 {
        (assembly_s / solve_s).min(1.0)
    } else {
        0.0
    };

    let _ = std::fs::remove_dir_all(scratch);
    costs
}
