//! Differential equivalence of the incremental issue-stage scheduler.
//!
//! The issue stage answers its scheduling gates from incrementally
//! maintained state (`mds_core::sched`) instead of per-cycle window
//! scans. This harness proves the refactor changed nothing observable:
//! [`Simulator::run_paranoid`] (compiled via the `paranoid-sched`
//! feature, enabled for this test build in the root `Cargo.toml`) runs
//! the retired scan-based gates *alongside* the incremental ones and
//! asserts agreement at every single gate evaluation, cycle-locked; on
//! top of that, the tests assert the paranoid run's `SimStats` are
//! bit-identical to the plain run's.
//!
//! The same mode also decides every issue candidate the scheduler left
//! asleep on a cached wake-up state and asserts the decision is the
//! no-op that state promised, so a skip that hides a real decision fails
//! here too.
//!
//! Coverage: all nine policies, continuous and split windows, address
//! scheduler latencies 0–2, nonzero squash latency (the default is 1),
//! and both recovery models.

use mds::core::{CoreConfig, Policy, Recovery, Simulator, WindowModel};
use mds::isa::{Asm, Interpreter, Reg, Trace};
use mds::workloads::{Benchmark, SuiteParams};
use proptest::prelude::*;

const ALL_NINE: [Policy; 9] = [
    Policy::NasNo,
    Policy::NasNaive,
    Policy::NasSelective,
    Policy::NasStoreBarrier,
    Policy::NasSync,
    Policy::NasStoreSets,
    Policy::NasOracle,
    Policy::AsNo,
    Policy::AsNaive,
];

/// Runs the config twice — plain and paranoid — and checks the stats
/// match. The paranoid run aborts on the first gate divergence, so a
/// pass here is a per-evaluation equivalence proof, not a summary check.
fn assert_equivalent(cfg: CoreConfig, trace: &Trace, what: &str) {
    let plain = Simulator::new(cfg.clone()).run(trace);
    let paranoid = Simulator::new(cfg).run_paranoid(trace);
    assert_eq!(
        plain.stats, paranoid.stats,
        "{what}: paranoid run diverged from plain run"
    );
}

/// The same random-loop generator the simulator proptests use: loads,
/// stores, ALU ops, and a loop-carried memory recurrence.
fn random_loop_trace(iters: u64, body: &[(u8, u8)]) -> Trace {
    let mut a = Asm::new();
    let arr = a.alloc_data(4096 + 64, 64);
    let cell = a.alloc_data(8, 8);
    let (cnt, base, cbase) = (Reg::int(1), Reg::int(2), Reg::int(3));
    a.li(cnt, iters as i64);
    a.li(base, arr as i64);
    a.li(cbase, cell as i64);
    let top = a.label();
    a.bind(top);
    for &(kind, operand) in body {
        let r = Reg::int(4 + (operand % 6));
        let off = (operand as i64 % 64) * 4;
        match kind % 5 {
            0 => a.lw(r, base, off),
            1 => a.sw(r, base, off),
            2 => a.addi(r, r, operand as i64),
            3 => {
                a.lw(r, cbase, 0);
                a.addi(r, r, 1);
                a.sw(r, cbase, 0);
            }
            _ => {
                let r2 = Reg::int(4 + ((operand / 7) % 6));
                a.add(r, r, r2);
            }
        }
    }
    a.addi(cnt, cnt, -1);
    a.bgtz(cnt, top);
    a.halt();
    Interpreter::new(a.assemble().unwrap())
        .run(2_000_000)
        .unwrap()
}

/// Like [`random_loop_trace`], plus byte and halfword stores inside the
/// words the loads read (the store buffer's partial-overlap answer blocks
/// those loads under every policy) and multiply chains feeding store
/// data (slow stores, so loads issue early, miss or forward, and are
/// re-executed long before a first miss would have completed).
fn mixed_width_loop_trace(iters: u64, body: &[(u8, u8)]) -> Trace {
    let mut a = Asm::new();
    let arr = a.alloc_data(4096 + 64, 64);
    let (cnt, base) = (Reg::int(1), Reg::int(2));
    a.li(cnt, iters as i64);
    a.li(base, arr as i64);
    let top = a.label();
    a.bind(top);
    for &(kind, operand) in body {
        let r = Reg::int(4 + (operand % 6));
        let off = (operand as i64 % 16) * 4;
        match kind % 6 {
            0 => a.lw(r, base, off),
            1 => a.sw(r, base, off),
            2 => a.sb(r, base, off + 1 + operand as i64 % 3),
            3 => a.sh(r, base, off + 2),
            4 => {
                a.mult(r, r);
                a.mflo(r);
                a.mult(r, r);
                a.mflo(r);
                a.sw(r, base, off);
            }
            _ => {
                let r2 = Reg::int(4 + ((operand / 7) % 6));
                a.add(r, r, r2);
            }
        }
    }
    a.addi(cnt, cnt, -1);
    a.bgtz(cnt, top);
    a.halt();
    Interpreter::new(a.assemble().unwrap())
        .run(2_000_000)
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Mixed-width stores and slow store data, every policy, both
    /// recovery models: loads first blocked by a partial overlap and
    /// later by their policy gate, and consumers of loads that selective
    /// reissue re-executes.
    #[test]
    fn sleeping_candidates_match_on_mixed_width_programs(
        body in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..16),
        iters in 1u64..20,
    ) {
        let trace = mixed_width_loop_trace(iters, &body);
        for policy in ALL_NINE {
            for recovery in [Recovery::Squash, Recovery::SelectiveReissue] {
                assert_equivalent(
                    CoreConfig::paper_128().with_policy(policy).with_recovery(recovery),
                    &trace,
                    &format!("{policy} {recovery:?} mixed-width"),
                );
            }
        }
    }

    /// Random programs, every policy, continuous window.
    #[test]
    fn incremental_gates_match_scans_on_random_programs(
        body in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..16),
        iters in 1u64..20,
    ) {
        let trace = random_loop_trace(iters, &body);
        for policy in ALL_NINE {
            assert_equivalent(
                CoreConfig::paper_128().with_policy(policy),
                &trace,
                &format!("{policy} continuous"),
            );
        }
    }

    /// Random programs, split window (round-robin issue priority) and
    /// nonzero address-scheduler latency.
    #[test]
    fn incremental_gates_match_scans_on_split_window(
        body in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..12),
        iters in 1u64..16,
        units in 2u32..5,
    ) {
        let trace = random_loop_trace(iters, &body);
        for policy in [Policy::NasNaive, Policy::NasSync, Policy::AsNo, Policy::AsNaive] {
            assert_equivalent(
                CoreConfig::paper_128()
                    .with_policy(policy)
                    .with_window_model(WindowModel::Split { units, task_size: 16 })
                    .with_addr_sched_latency(1),
                &trace,
                &format!("{policy} split"),
            );
        }
    }

    /// Selective reissue exercises the store-reset path
    /// (`SchedState::on_store_reset`), where a store can re-enter the
    /// pending lists while its old execution event is still queued.
    #[test]
    fn incremental_gates_match_scans_under_selective_reissue(
        body in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..12),
        iters in 1u64..16,
    ) {
        let trace = random_loop_trace(iters, &body);
        for policy in [Policy::NasNaive, Policy::NasSelective, Policy::AsNaive] {
            assert_equivalent(
                CoreConfig::paper_128()
                    .with_policy(policy)
                    .with_recovery(Recovery::SelectiveReissue),
                &trace,
                &format!("{policy} selective-reissue"),
            );
        }
    }
}

/// Each iteration stores a multiply result (slow) to a fresh, cold
/// cache line and loads it straight back, with a consumer of the load.
/// A speculating load misses; the store then exposes the violation, and
/// selective reissue re-executes the load, which now forwards from the
/// store buffer and completes long before its first miss would have —
/// so its consumer, asleep until the old completion time, must wake.
fn reissued_miss_trace(iters: i64) -> Trace {
    let mut a = Asm::new();
    let arr = a.alloc_data(64 * iters as u64 + 64, 64);
    let (cnt, base, v, x, y) = (
        Reg::int(1),
        Reg::int(2),
        Reg::int(3),
        Reg::int(4),
        Reg::int(5),
    );
    a.li(cnt, iters);
    a.li(base, arr as i64);
    a.li(v, 3);
    let top = a.label();
    a.bind(top);
    a.mult(v, v);
    a.mflo(v);
    a.sw(v, base, 0);
    a.lw(x, base, 0);
    a.add(y, x, x);
    a.addi(base, base, 64);
    a.addi(cnt, cnt, -1);
    a.bgtz(cnt, top);
    a.halt();
    Interpreter::new(a.assemble().unwrap())
        .run(100_000)
        .unwrap()
}

/// Each iteration writes one byte inside a word (fast), then the whole
/// word with data from a divide chain fed by the previous iteration's
/// load (slow), and loads the word. Once the dependence predictors have
/// learned the load (`NAS/SEL`) or the store (`NAS/STORE`), the load's
/// first block comes from the byte store's partial overlap, which is the
/// unsynced answer; the byte store then commits and drains long before
/// the word store executes, so the predicted gate alone holds the load
/// and must still mark it synchronized.
fn partial_then_gated_trace(iters: i64) -> Trace {
    let mut a = Asm::new();
    let arr = a.alloc_data(64, 64);
    let (cnt, base, v, x, b) = (
        Reg::int(1),
        Reg::int(2),
        Reg::int(3),
        Reg::int(4),
        Reg::int(5),
    );
    a.li(cnt, iters);
    a.li(base, arr as i64);
    a.li(x, 3);
    a.li(b, 9);
    let top = a.label();
    a.bind(top);
    a.sb(b, base, 1);
    a.add(v, x, b);
    for _ in 0..3 {
        a.div(v, b);
        a.mflo(v);
    }
    a.sw(v, base, 0);
    a.lw(x, base, 0);
    a.addi(cnt, cnt, -1);
    a.bgtz(cnt, top);
    a.halt();
    Interpreter::new(a.assemble().unwrap())
        .run(100_000)
        .unwrap()
}

/// The two hazards of sleeping issue candidates, on traces built to hit
/// them: a consumer asleep on a producer that selective reissue makes
/// complete earlier, and a load asleep behind its gate before its
/// blocked-state notes are complete.
#[test]
fn sleeping_candidates_match_on_targeted_traces() {
    for (name, trace) in [
        ("reissued-miss", reissued_miss_trace(40)),
        ("partial-then-gated", partial_then_gated_trace(40)),
    ] {
        for policy in ALL_NINE {
            for recovery in [Recovery::Squash, Recovery::SelectiveReissue] {
                assert_equivalent(
                    CoreConfig::paper_128()
                        .with_policy(policy)
                        .with_recovery(recovery),
                    &trace,
                    &format!("{policy} {recovery:?} {name}"),
                );
            }
        }
    }
}

/// Deterministic sweep on a real workload: all nine policies, both
/// window models, address-scheduler latencies 0–2.
#[test]
fn equivalence_sweep_on_workload_trace() {
    let trace = Benchmark::Li.trace(&SuiteParams::tiny()).expect("trace");
    for policy in ALL_NINE {
        for lat in 0..=2 {
            assert_equivalent(
                CoreConfig::paper_128()
                    .with_policy(policy)
                    .with_addr_sched_latency(lat),
                &trace,
                &format!("{policy} continuous lat={lat}"),
            );
        }
        assert_equivalent(
            CoreConfig::paper_128()
                .with_policy(policy)
                .with_window_model(WindowModel::Split {
                    units: 4,
                    task_size: 16,
                })
                .with_addr_sched_latency(2),
            &trace,
            &format!("{policy} split lat=2"),
        );
    }
}
