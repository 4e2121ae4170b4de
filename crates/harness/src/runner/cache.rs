//! Cross-experiment memoization of simulation results.

use crate::runner::key::ConfigKey;
use mds_core::SimResult;
use mds_workloads::Benchmark;
use serde::Serialize;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Memoizes [`SimResult`]s by (benchmark, [`ConfigKey`]) so that
/// configurations shared across experiments — e.g. `NAS/NO`,
/// `NAS/NAV`, and `NAS/ORACLE`, which fig1, fig2, fig6, summary, and
/// table4 all revisit — are simulated exactly once per `reproduce`
/// run.
#[derive(Debug, Default)]
pub struct SimCache {
    map: Mutex<HashMap<ConfigKey, HashMap<Benchmark, SimResult>>>,
    hits: AtomicU64,
    simulations: AtomicU64,
    sim_nanos: AtomicU64,
    skipped_cycles: AtomicU64,
}

impl SimCache {
    /// A memoized result, if present. Counts a hit when it is.
    pub fn get(&self, benchmark: Benchmark, key: &ConfigKey) -> Option<SimResult> {
        let map = self.map.lock().expect("cache poisoned");
        let found = map
            .get(key)
            .and_then(|per_bench| per_bench.get(&benchmark))
            .cloned();
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Whether a result is memoized, without counting a hit.
    pub fn contains(&self, benchmark: Benchmark, key: &ConfigKey) -> bool {
        let map = self.map.lock().expect("cache poisoned");
        map.get(key)
            .is_some_and(|per_bench| per_bench.contains_key(&benchmark))
    }

    /// A memoized result without touching the hit counter — used when
    /// assembling a batch's return value from entries the batch itself
    /// already accounted for.
    pub fn peek(&self, benchmark: Benchmark, key: &ConfigKey) -> Option<SimResult> {
        let map = self.map.lock().expect("cache poisoned");
        map.get(key)
            .and_then(|per_bench| per_bench.get(&benchmark))
            .cloned()
    }

    /// Records one freshly simulated result and its wall-clock cost.
    pub fn insert(&self, benchmark: Benchmark, key: ConfigKey, result: SimResult, nanos: u64) {
        self.simulations.fetch_add(1, Ordering::Relaxed);
        self.sim_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.skipped_cycles
            .fetch_add(result.skipped_cycles, Ordering::Relaxed);
        let mut map = self.map.lock().expect("cache poisoned");
        map.entry(key).or_default().insert(benchmark, result);
    }

    /// Memoizes a result loaded from the persistent tier — counted as
    /// neither a simulation nor (here) a hit; the runner counts the
    /// disk hit itself.
    pub fn insert_loaded(&self, benchmark: Benchmark, key: ConfigKey, result: SimResult) {
        let mut map = self.map.lock().expect("cache poisoned");
        map.entry(key).or_default().insert(benchmark, result);
    }

    /// Drops every memoized result (the counters are preserved),
    /// forcing subsequent requests to re-simulate — used by benchmarks
    /// that must time fresh simulations on every iteration.
    pub fn clear(&self) {
        self.map.lock().expect("cache poisoned").clear();
    }

    /// Counts one request served from the cache.
    pub fn count_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// A snapshot of the counters (artifact counters are filled in by
    /// the [`Runner`](crate::Runner), which owns the artifact cache).
    pub fn stats(&self) -> RunnerStats {
        RunnerStats {
            cache_hits: self.hits.load(Ordering::Relaxed),
            simulations: self.simulations.load(Ordering::Relaxed),
            sim_nanos: self.sim_nanos.load(Ordering::Relaxed),
            skipped_cycles: self.skipped_cycles.load(Ordering::Relaxed),
            artifact_builds: 0,
            prep_nanos: 0,
            disk_hits: 0,
            disk_writes: 0,
            disk_read_errors: 0,
            disk_write_errors: 0,
            orphans_removed: 0,
            job_retries: 0,
            job_failures: 0,
            faults_injected: 0,
        }
    }
}

/// Counters describing what a [`Runner`](crate::Runner) actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RunnerStats {
    /// (benchmark, config) requests served from the cache.
    pub cache_hits: u64,
    /// Simulations actually executed.
    pub simulations: u64,
    /// Total wall-clock nanoseconds spent inside simulations, summed
    /// over jobs (exceeds elapsed time when jobs run in parallel).
    pub sim_nanos: u64,
    /// Cycles the event-driven core fast-forwarded over instead of
    /// executing, summed across executed simulations (cache hits
    /// contribute nothing: their simulations already ran).
    pub skipped_cycles: u64,
    /// Trace-artifact bundles built (one per distinct benchmark; every
    /// config after the first shares the memoized bundle).
    pub artifact_builds: u64,
    /// Nanoseconds spent building trace artifacts (oracle and register
    /// dependences), counted apart from simulation time.
    pub prep_nanos: u64,
    /// Requests served from the persistent on-disk tier (also counted
    /// in `cache_hits`, so `hit_rate` reflects every avoided
    /// simulation).
    pub disk_hits: u64,
    /// Results written back to the persistent on-disk tier.
    pub disk_writes: u64,
    /// Disk-tier entry reads that failed with an I/O error and
    /// degraded to re-simulation.
    pub disk_read_errors: u64,
    /// Disk-tier write-backs that failed and were dropped with a
    /// warning (the result stays memoized in memory).
    pub disk_write_errors: u64,
    /// Orphaned `*.tmp` staging files deleted by the startup
    /// crash-recovery sweep.
    pub orphans_removed: u64,
    /// Simulation jobs re-run after a single worker panic.
    pub job_retries: u64,
    /// Simulation jobs that panicked twice and failed with a
    /// structured error.
    pub job_failures: u64,
    /// Faults injected by the armed [`FaultPlan`](crate::FaultPlan),
    /// across every site (0 on production runs, whose plan is unarmed).
    pub faults_injected: u64,
}

impl RunnerStats {
    /// Fraction of requests served from the cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.simulations;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Total simulation time in seconds.
    pub fn sim_seconds(&self) -> f64 {
        self.sim_nanos as f64 / 1e9
    }

    /// Total artifact-preparation time in seconds.
    pub fn prep_seconds(&self) -> f64 {
        self.prep_nanos as f64 / 1e9
    }
}
