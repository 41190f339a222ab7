//! Property-based tests over the microarchitecture model's invariants.

use belenos_trace::{FnCategory, MicroOp, OpKind};
use belenos_uarch::{CoreConfig, O3Core};
use proptest::prelude::*;

const CAT: FnCategory = FnCategory::Internal;

/// Strategy for arbitrary (but well-formed) micro-op streams.
fn op_stream(max_len: usize) -> impl Strategy<Value = Vec<MicroOp>> {
    prop::collection::vec(
        (0u8..8, 0u32..64, 0u64..1 << 18, 0u32..4, any::<bool>()),
        1..max_len,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, pc, addr, dep, taken)| {
                let pc = 0x1000 + pc * 4;
                match kind {
                    0 => MicroOp::int(pc, dep, 0, CAT),
                    1 => MicroOp::fp(OpKind::FpAdd, pc, dep, 0, CAT),
                    2 => MicroOp::fp(OpKind::FpMul, pc, dep, 0, CAT),
                    3 => MicroOp::load(pc, addr, 8, dep, CAT),
                    4 => MicroOp::store(pc, addr, 8, dep, CAT),
                    5 => MicroOp::branch(pc, 0x1000, taken, dep, CAT),
                    6 => MicroOp::fp(OpKind::FpDiv, pc, dep, 0, CAT),
                    _ => MicroOp::int(pc, 0, 0, CAT),
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_op_commits_exactly_once(ops in op_stream(400)) {
        let n = ops.len() as u64;
        let mut core = O3Core::new(CoreConfig::gem5_baseline());
        let stats = core.run(ops.into_iter());
        prop_assert_eq!(stats.committed_ops, n);
    }

    #[test]
    fn slots_partition_exactly(ops in op_stream(400)) {
        let mut core = O3Core::new(CoreConfig::gem5_baseline());
        let stats = core.run(ops.into_iter());
        let width = CoreConfig::gem5_baseline().commit_width as u64;
        prop_assert_eq!(stats.total_slots(), stats.cycles * width);
        prop_assert_eq!(
            stats.slots_be_core + stats.slots_be_memory,
            stats.slots_backend
        );
        prop_assert_eq!(
            stats.slots_fe_latency + stats.slots_fe_bandwidth,
            stats.slots_frontend
        );
    }

    #[test]
    fn simulation_is_deterministic(ops in op_stream(300)) {
        let mut a = O3Core::new(CoreConfig::gem5_baseline());
        let mut b = O3Core::new(CoreConfig::gem5_baseline());
        let sa = a.run(ops.clone().into_iter());
        let sb = b.run(ops.into_iter());
        prop_assert_eq!(sa.cycles, sb.cycles);
        prop_assert_eq!(sa.l1d_misses, sb.l1d_misses);
        prop_assert_eq!(sa.mispredicts, sb.mispredicts);
    }

    #[test]
    fn commit_mix_counts_match_input(ops in op_stream(300)) {
        let loads = ops.iter().filter(|o| o.kind == OpKind::Load).count() as u64;
        let branches = ops.iter().filter(|o| o.kind == OpKind::Branch).count() as u64;
        let mut core = O3Core::new(CoreConfig::gem5_baseline());
        let stats = core.run(ops.into_iter());
        prop_assert_eq!(stats.commit_mix.loads, loads);
        prop_assert_eq!(stats.commit_mix.branches, branches);
        prop_assert_eq!(stats.branches, branches);
    }

    #[test]
    fn wider_machines_never_lose_cycles_on_branch_free_code(ops in op_stream(300)) {
        // A strictly more-resourced config must not be slower on straight-
        // line code. (With branches this is NOT an invariant: a wider
        // machine squashes more in-flight ops per misprediction.)
        let ops: Vec<MicroOp> =
            ops.into_iter().filter(|o| o.kind != OpKind::Branch).collect();
        prop_assume!(!ops.is_empty());
        let narrow = CoreConfig::gem5_baseline().with_pipeline_width(2);
        let mut a = O3Core::new(narrow);
        let sa = a.run(ops.clone().into_iter());
        let mut b = O3Core::new(CoreConfig::gem5_baseline().with_pipeline_width(6));
        let sb = b.run(ops.into_iter());
        prop_assert!(
            sb.cycles <= sa.cycles + 64,
            "wider config slower: {} vs {}",
            sb.cycles,
            sa.cycles
        );
    }

    #[test]
    fn fast_forward_is_bit_identical_to_cycle_stepping(
        ops in op_stream(400),
        bandwidth in 0usize..3,
    ) {
        // The event-driven fast-forward must replicate, per skipped
        // cycle, exactly the statistics the cycle-by-cycle loop would
        // have accumulated: full `SimStats` equality covers cycles,
        // every per-stage counter, and the TMA slot ladder. A starved
        // DRAM channel puts completions beyond the event wheel's horizon.
        let mut cfg = CoreConfig::gem5_baseline();
        cfg.dram_bandwidth_gbps = [0.25, 2.0, 38.4][bandwidth];
        let mut fast = O3Core::new(cfg.clone());
        let a = fast.run(ops.clone().into_iter());
        let mut slow = O3Core::new(cfg);
        slow.set_fast_forward(false);
        let b = slow.run(ops.into_iter());
        prop_assert_eq!(a, b);
    }

    #[test]
    fn frequency_only_rescales_compute_bound_streams(
        n in 3000usize..8000
    ) {
        // Long pure-int-ALU stream: steady state is frequency-invariant in
        // cycles (only the cold icache fill costs frequency-scaled DRAM
        // cycles), so speedup approaches the clock ratio.
        let ops: Vec<MicroOp> = (0..n).map(|i| MicroOp::int(0x1000 + (i as u32 % 8) * 4, 0, 0, CAT)).collect();
        let mut a = O3Core::new(CoreConfig::gem5_baseline().with_frequency(1.0));
        let sa = a.run(ops.clone().into_iter());
        let mut b = O3Core::new(CoreConfig::gem5_baseline().with_frequency(4.0));
        let sb = b.run(ops.into_iter());
        // Cycles at 4 GHz may exceed 1 GHz only by the cold-fill delta.
        prop_assert!(sb.cycles >= sa.cycles);
        prop_assert!(sb.cycles <= sa.cycles + 2000);
        let speedup = sa.seconds() / sb.seconds();
        prop_assert!(speedup > 3.0 && speedup <= 4.0, "speedup {}", speedup);
    }
}
