//! Stability runs on the run's own runner: its seeds share the run's
//! memo, disk tier, fault plan and counters instead of building private
//! runners that the run's bookkeeping never sees.

use mds_core::{CoreConfig, Policy};
use mds_harness::experiments::{fig6, stability};
use mds_harness::{FaultPlan, Runner, Suite};
use mds_workloads::{Benchmark, SuiteParams};
use std::path::{Path, PathBuf};

const BENCHMARKS: [Benchmark; 1] = [Benchmark::Compress];

fn suite() -> Suite {
    Suite::generate(&BENCHMARKS, &SuiteParams::tiny()).unwrap()
}

/// The seeds `reproduce` reruns the headline result under.
fn seeds(runner: &Runner) -> [u64; 3] {
    [runner.suite().params().seed, 0x1234, 0xDEAD_BEEF]
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mds-shared-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Regular files anywhere under `dir` (0 if it does not exist).
fn files_under(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .map(|e| e.unwrap().path())
        .map(|p| if p.is_dir() { files_under(&p) } else { 1 })
        .sum()
}

#[test]
fn stability_honours_the_runs_fault_plan_and_disk_tier() {
    let dir = tempdir("dw");
    let runner = Runner::new(suite())
        .with_faults(FaultPlan::parse("disk_write=every:1").unwrap())
        .with_cache_dir(&dir);
    fig6::run(&runner);
    stability::run(&runner, &seeds(&runner)).unwrap();

    assert_eq!(files_under(&dir), 0, "every write-back was failed");
    let stats = runner.stats();
    assert!(stats.simulations > 0);
    assert_eq!(stats.disk_writes, 0);
    assert_eq!(stats.disk_write_errors, stats.simulations);
    assert_eq!(stats.faults_injected, stats.simulations);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stability_after_fig6_counts_every_lookup_once() {
    let runner = Runner::new(suite());
    fig6::run(&runner);
    let before = runner.stats();
    stability::run(&runner, &seeds(&runner)).unwrap();
    let after = runner.stats();

    let b = BENCHMARKS.len() as u64;
    // The run's own seed replays fig6's results from memory; the two
    // other seeds simulate all three policies.
    assert_eq!(after.simulations - before.simulations, 2 * b * 3);
    assert_eq!(after.cache_hits - before.cache_hits, b * 3);
}

#[test]
fn a_batch_on_a_borrowed_suite_matches_a_fresh_runner() {
    let runner = Runner::new(suite());
    let params = SuiteParams {
        seed: 0x1234,
        ..SuiteParams::tiny()
    };
    let other = Suite::generate(&BENCHMARKS, &params).unwrap();
    let configs: Vec<CoreConfig> = [Policy::NasNaive, Policy::NasSync]
        .iter()
        .map(|&p| CoreConfig::paper_128().with_policy(p))
        .collect();

    let borrowed = runner.run_batch_on(&other, &configs);
    let fresh = Runner::new(other).run_batch(&configs);
    assert_eq!(format!("{borrowed:?}"), format!("{fresh:?}"));
    assert_eq!(runner.stats().simulations, 2, "counted on the run's runner");
}
