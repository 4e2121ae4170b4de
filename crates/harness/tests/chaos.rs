//! Chaos tests: seeded fault plans injected into real runners over a
//! real disk cache, asserting two invariants the resilience layer
//! promises:
//!
//! 1. **Determinism through degradation** — a run that survives
//!    injected faults produces results *byte-identical* to a
//!    fault-free run: faults change durability and counters, never
//!    simulation output.
//! 2. **Exact accounting** — every injected fault shows up in exactly
//!    one counter (`disk_read_errors`, `disk_write_errors`,
//!    `job_retries`, ...) matching the plan's trigger arithmetic, so a
//!    chaos run can be audited against the plan that drove it.
//!
//! The plans here use only `nth:`/`every:` triggers: those fire on
//! deterministic per-site occurrence counts, so the assertions are
//! exact. `prob:` triggers are reproducible only statistically under
//! concurrency and are deliberately absent.

use mds_core::{CoreConfig, Policy, SimResult};
use mds_harness::{FaultPlan, FaultSite, Runner, Suite, TraceSink};
use mds_workloads::{Benchmark, SuiteParams};
use std::io::{self, Write};
use std::path::PathBuf;

/// A tiny two-benchmark suite — large enough that a sweep has
/// distinct per-benchmark results, small enough to simulate in
/// milliseconds.
fn suite() -> Suite {
    Suite::generate(
        &[Benchmark::Compress, Benchmark::Swim],
        &SuiteParams::tiny(),
    )
    .unwrap()
}

/// The sweep every test runs: two benchmarks under two policies.
fn pairs() -> Vec<(Benchmark, CoreConfig)> {
    let mut out = Vec::new();
    for policy in [Policy::NasNaive, Policy::NasOracle] {
        for benchmark in [Benchmark::Compress, Benchmark::Swim] {
            out.push((benchmark, CoreConfig::paper_128().with_policy(policy)));
        }
    }
    out
}

/// Canonical text form of a result list, for byte-identity assertions.
fn fingerprint(results: &[SimResult]) -> String {
    results
        .iter()
        .map(|r| format!("{r:?}"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mds-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The reference: what a fault-free run of [`pairs`] produces.
fn baseline() -> String {
    fingerprint(
        &Runner::new(suite())
            .with_jobs(2)
            .run_pairs(&pairs())
            .unwrap(),
    )
}

#[test]
fn disk_write_faults_leave_results_identical_and_nothing_stored() {
    let dir = tempdir("dw");
    // Every disk write fails: a full-disk cold run.
    let runner = Runner::new(suite())
        .with_jobs(2)
        .with_faults(FaultPlan::parse("disk_write=every:1").unwrap())
        .with_cache_dir(&dir);
    let results = runner.run_pairs(&pairs()).unwrap();
    assert_eq!(fingerprint(&results), baseline(), "results must not change");

    let stats = runner.stats();
    assert_eq!(stats.simulations, 4, "all four pairs simulated");
    assert_eq!(stats.disk_writes, 0, "no write-back survived");
    assert_eq!(stats.disk_write_errors, 4, "every write-back failed");
    assert_eq!(stats.faults_injected, 4);
    let obs = runner.obs_snapshot();
    assert_eq!(obs.counter("cache.disk_writes"), 0);
    assert_eq!(obs.counter("cache.disk_write_errors"), 4);
    assert_eq!(obs.counter("faults.injected.disk_write"), 4);
    // Nothing made it to disk: a fresh fault-free runner on the same
    // directory re-simulates everything.
    let fresh = Runner::new(suite()).with_cache_dir(&dir);
    fresh.run_pairs(&pairs()).unwrap();
    assert_eq!(fresh.stats().disk_hits, 0);
    assert_eq!(fresh.stats().simulations, 4);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disk_read_faults_degrade_a_warm_run_to_resimulation() {
    let dir = tempdir("dr");
    // Populate the disk tier fault-free.
    Runner::new(suite())
        .with_cache_dir(&dir)
        .run_pairs(&pairs())
        .unwrap();

    // Warm replay with the first two disk reads erroring (not merely
    // missing): both pairs must re-simulate, the other two load.
    let runner = Runner::new(suite())
        .with_jobs(2)
        .with_faults(FaultPlan::parse("disk_read=nth:1;seed=1").unwrap())
        .with_cache_dir(&dir);
    let results = runner.run_pairs(&pairs()).unwrap();
    assert_eq!(fingerprint(&results), baseline(), "results must not change");

    let stats = runner.stats();
    assert_eq!(
        stats.disk_read_errors, 1,
        "exactly the injected read failed"
    );
    assert_eq!(stats.simulations, 1, "the failed load re-simulated");
    assert_eq!(stats.disk_hits, 3, "the other pairs loaded normally");
    assert_eq!(runner.obs_snapshot().counter("cache.disk_read_errors"), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_write_orphan_is_recovered_on_next_open() {
    let dir = tempdir("torn");
    // First write is torn: half the JSON lands in a `.tmp` sibling and
    // the entry never appears.
    let runner = Runner::new(suite())
        .with_faults(FaultPlan::parse("disk_write_torn=nth:1").unwrap())
        .with_cache_dir(&dir);
    let results = runner.run_pairs(&pairs()).unwrap();
    assert_eq!(fingerprint(&results), baseline(), "results must not change");
    assert_eq!(runner.stats().disk_write_errors, 1);
    assert_eq!(runner.stats().disk_writes, 3);
    drop(runner);

    // The orphan is on disk now; the next open sweeps it away.
    let recovering = Runner::new(suite()).with_cache_dir(&dir);
    assert_eq!(recovering.stats().orphans_removed, 1, "one orphan deleted");
    assert_eq!(
        recovering.obs_snapshot().counter("cache.orphans_removed"),
        1
    );
    // The three intact entries still load; the torn one re-simulates
    // and is stored properly this time.
    let results = recovering.run_pairs(&pairs()).unwrap();
    assert_eq!(fingerprint(&results), baseline());
    assert_eq!(recovering.stats().disk_hits, 3);
    assert_eq!(recovering.stats().simulations, 1);
    assert_eq!(recovering.stats().disk_writes, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn single_worker_panic_retries_to_an_identical_result() {
    // The panicked job is retried in place, once.
    let runner = Runner::new(suite())
        .with_jobs(2)
        .with_faults(FaultPlan::parse("worker_panic=nth:2").unwrap());
    let results = runner.run_pairs(&pairs()).unwrap();
    assert_eq!(fingerprint(&results), baseline(), "results must not change");
    let stats = runner.stats();
    assert_eq!(stats.job_retries, 1);
    assert_eq!(stats.job_failures, 0);
    assert_eq!(stats.simulations, 4);
    assert_eq!(runner.obs_snapshot().counter("runner.job_retries"), 1);
}

#[test]
fn persistent_worker_panic_is_a_structured_error_not_a_crash() {
    let runner = Runner::new(suite())
        .with_jobs(2)
        .with_faults(FaultPlan::parse("worker_panic=every:1").unwrap());
    let err = runner.run_pairs(&pairs()).unwrap_err();
    assert!(err.contains("worker panicked twice"), "{err}");
    assert!(
        err.contains("injected fault: worker_panic"),
        "the panic payload names the injection: {err}"
    );
    let stats = runner.stats();
    assert_eq!(stats.simulations, 0);
    assert_eq!(stats.job_failures, 4, "every pair failed both attempts");
    assert_eq!(stats.job_retries, 4);
    // The runner survives: disarmed-site requests after the failure
    // still work (the plan only arms worker_panic, which keeps firing,
    // so prove survival with the error path again rather than UB).
    let err2 = runner.run_pairs(&pairs()).unwrap_err();
    assert!(err2.contains("worker panicked twice"), "{err2}");
}

#[test]
fn queue_delay_fault_slows_but_does_not_change_results() {
    let runner = Runner::new(suite())
        .with_jobs(2)
        .with_faults(FaultPlan::parse("queue_delay=nth:1:50").unwrap());
    let results = runner.run_pairs(&pairs()).unwrap();
    assert_eq!(fingerprint(&results), baseline(), "results must not change");
    assert_eq!(runner.obs_snapshot().counter("runner.queue_delays"), 1);
}

#[test]
fn fault_counters_match_the_plan_arithmetic() {
    // every:2 over 4 write-backs fires on occurrences 2 and 4.
    let dir = tempdir("arith");
    let runner = Runner::new(suite())
        .with_faults(FaultPlan::parse("disk_write=every:2").unwrap())
        .with_cache_dir(&dir);
    runner.run_pairs(&pairs()).unwrap();
    let stats = runner.stats();
    assert_eq!(stats.disk_write_errors, 2);
    assert_eq!(stats.disk_writes, 2);
    assert_eq!(stats.faults_injected, 2);
    assert_eq!(
        runner.faults().injected(FaultSite::DiskWrite),
        2,
        "the plan's own ledger agrees with the runner counters"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failing_trace_writes_leave_results_identical() {
    // Every trace write fails (a full disk under --trace-out): tracing
    // turns itself off and counts what it dropped; the run itself is
    // unaffected and does not panic.
    struct Broken;
    impl Write for Broken {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::Error::other("no space left on device"))
        }
        fn flush(&mut self) -> io::Result<()> {
            Err(io::Error::other("no space left on device"))
        }
    }
    let runner = Runner::new(suite())
        .with_jobs(2)
        .with_trace(TraceSink::new(Box::new(Broken), 16));
    let results = runner.run_pairs(&pairs()).unwrap();
    assert_eq!(fingerprint(&results), baseline(), "results must not change");
    // A repeat is served from cache, still through the dead sink.
    let again = runner.run_pairs(&pairs()).unwrap();
    assert_eq!(fingerprint(&again), baseline());
    assert_eq!(runner.stats().simulations, 4);

    let sink = runner.trace().expect("sink attached");
    assert_eq!(sink.lines(), 0);
    assert!(sink.dropped() > 0, "dropped lines are counted");
    assert!(
        sink.flush().is_err(),
        "the write error is reported at flush"
    );
}
