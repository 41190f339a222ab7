//! The metric tables: names, units, direction and (end to end) bounds.
//! `BENCHMARK.json` is generated from these (`describe` subcommand), and a
//! run refuses to print a result that does not carry exactly these names.

/// `(name, unit, better, bound)`: every workload reports all of them from
/// the untraced run. All five are **host** metrics; simulated results are
/// held fixed by the correctness checks.
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    // Normalised host seconds of the set-up segment: what a user pays
    // before the first useful job (parse, prepare, boot, first fill).
    ("setup_s", "s", "lower", 0.25),
    // Normalised host seconds of the pass segment: time to the report /
    // to all replies.
    ("pass_s", "s", "lower", 0.25),
    // Simulated micro-ops committed in one pass (exact count) ÷ pass_s:
    // host speed of the simulator.
    ("sim_mops_per_s", "Mops/s", "higher", 0.25),
    // Normalised process CPU seconds per pass: shows busy-waiting and
    // oversubscription that wall time hides.
    ("cpu_s", "s", "lower", 0.25),
    // Peak live heap bytes of a repetition, from the counting allocator.
    // Repeats to < 0.5 % on the single-threaded workloads; on serve_mixed
    // it depends on which requests overlap, which the seed decides (3.7 %
    // between the extremes of 20 seeds), hence 0.10 and not 0.05.
    ("peak_live_mb", "MB", "lower", 0.10),
];

/// `(name, unit, better)`: reported by the traced run only. Each timed one
/// is the reference-normalised mean of >= 30 calls of the named public
/// function on inputs taken from the workloads; the rest are exact counts
/// or ratios. README.md has the layer → end-to-end prediction table.
pub const PER_LAYER: [(&str, &str, &str); 78] = [
    ("sparse.ldl_factor_ms", "ms", "lower"),
    ("sparse.ldl_solve_us", "us", "lower"),
    ("sparse.cg_solve_ms", "ms", "lower"),
    ("sparse.rcm_ms", "ms", "lower"),
    ("sparse.cg_iterations", "count", "lower"),
    ("sparse.ldl_fill_ratio", "ratio", "lower"),
    ("fem.assemble_ms", "ms", "lower"),
    ("fem.solve_ms", "ms", "lower"),
    ("fem.assemble_speedup_2t", "ratio", "higher"),
    ("fem.newton_iterations", "count", "lower"),
    ("workloads.spec_parse_us", "us", "lower"),
    ("workloads.build_model_ms", "ms", "lower"),
    ("trace.expand_mops_per_s", "Mops/s", "higher"),
    ("trace.flat_replay_mops_per_s", "Mops/s", "higher"),
    ("trace.store_encode_mb_per_s", "MB/s", "higher"),
    ("trace.store_decode_log_us", "us", "lower"),
    ("trace.store_decode_flat_mb_per_s", "MB/s", "higher"),
    ("trace.flat_bytes_per_op", "B/op", "lower"),
    ("uarch.o3_mops_per_s", "Mops/s", "higher"),
    ("uarch.inorder_mops_per_s", "Mops/s", "higher"),
    ("uarch.analytic_mops_per_s", "Mops/s", "higher"),
    ("uarch.model_build_us", "us", "lower"),
    ("uarch.cache_access_ns", "ns", "lower"),
    ("uarch.tlb_access_ns", "ns", "lower"),
    ("uarch.bp_lookup_ns", "ns", "lower"),
    ("uarch.sim_ipc_co", "ratio", "higher"),
    ("uarch.sim_cycles_co", "count", "lower"),
    ("profiler.analyses_us", "us", "lower"),
    ("runner.job_overhead_us", "us", "lower"),
    ("runner.mem_hit_us", "us", "lower"),
    ("runner.disk_hit_us", "us", "lower"),
    ("runner.disk_insert_us", "us", "lower"),
    ("runner.stats_codec_us", "us", "lower"),
    ("runner.gc_scan_ms", "ms", "lower"),
    ("runner.efficiency_2t", "ratio", "higher"),
    ("runner.reuse_ratio", "ratio", "higher"),
    ("runner.queue_wait_frac", "ratio", "lower"),
    ("core.prepare_cold_ms", "ms", "lower"),
    ("core.prepare_warm_ms", "ms", "lower"),
    ("core.store_save_ms", "ms", "lower"),
    ("core.store_load_ms", "ms", "lower"),
    ("core.campaign_parse_us", "us", "lower"),
    ("core.report_render_us", "us", "lower"),
    ("core.sampled_mops_per_s", "Mops/s", "higher"),
    ("core.trace_memo_hit_ratio", "ratio", "higher"),
    ("serve.request_p50_s", "s", "lower"),
    ("serve.request_p95_s", "s", "lower"),
    ("serve.miss_ms", "ms", "lower"),
    ("serve.hit_ms", "ms", "lower"),
    ("serve.join_ms", "ms", "lower"),
    ("serve.post_ack_ms", "ms", "lower"),
    ("serve.report_get_ms", "ms", "lower"),
    ("serve.boot_ms", "ms", "lower"),
    ("serve.drain_ms", "ms", "lower"),
    ("serve.overhead_frac", "ratio", "lower"),
    ("serve.joined", "count", "higher"),
    ("serve.rejected", "count", "lower"),
    ("dist.board_overhead_ms_per_job", "ms", "lower"),
    ("dist.publish_us", "us", "lower"),
    ("dist.claim_us", "us", "lower"),
    ("dist.stolen", "count", "lower"),
    ("telemetry.span_ns", "ns", "lower"),
    ("telemetry.disabled_span_ns", "ns", "lower"),
    ("telemetry.overhead_frac", "ratio", "lower"),
    ("json.parse_mb_per_s", "MB/s", "higher"),
    ("json.render_mb_per_s", "MB/s", "higher"),
    ("share.uarch", "ratio", "lower"),
    ("share.trace", "ratio", "lower"),
    ("share.fem", "ratio", "lower"),
    ("share.sparse", "ratio", "lower"),
    ("share.store", "ratio", "lower"),
    ("share.serve", "ratio", "lower"),
    ("share.glue", "ratio", "lower"),
    ("proc.peak_rss_mb", "MB", "lower"),
    ("proc.allocs_per_pass", "count", "lower"),
    ("proc.alloc_mb_per_pass", "MB", "lower"),
    ("proc.ref_ms", "ms", "lower"),
    ("proc.mem_ref_ms", "ms", "lower"),
];

/// Named values of one run, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(
            END_TO_END.iter().any(|m| m.0 == name) || PER_LAYER.iter().any(|m| m.0 == name),
            "unknown metric {name}"
        );
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|m| m.0 == name)
        .map_or("", |m| m.1)
}

/// Arithmetic mean (0 for no values).
pub fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}
