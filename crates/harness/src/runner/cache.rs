//! Cross-experiment memoization of simulation results, and the typed
//! view of the runner's counters.

use crate::faults::FaultSite;
use crate::runner::key::ConfigKey;
use mds_core::SimResult;
use mds_obs::Registry;
use mds_workloads::Benchmark;
use serde::{Serialize, Value};
use std::collections::HashMap;
use std::sync::Mutex;

/// Memoizes [`SimResult`]s by (benchmark, [`ConfigKey`]) so that
/// configurations shared across experiments — e.g. `NAS/NO`,
/// `NAS/NAV`, and `NAS/ORACLE`, which fig1, fig2, fig6, summary, and
/// table4 all revisit — are simulated exactly once per `reproduce`
/// run. It counts nothing: the runner's registry holds every counter.
#[derive(Debug, Default)]
pub(super) struct SimCache {
    map: Mutex<HashMap<ConfigKey, HashMap<Benchmark, SimResult>>>,
}

impl SimCache {
    /// Whether a result is memoized.
    pub fn contains(&self, benchmark: Benchmark, key: &ConfigKey) -> bool {
        let map = self.map.lock().expect("cache poisoned");
        map.get(key)
            .is_some_and(|per_bench| per_bench.contains_key(&benchmark))
    }

    /// A memoized result, if present.
    pub fn peek(&self, benchmark: Benchmark, key: &ConfigKey) -> Option<SimResult> {
        let map = self.map.lock().expect("cache poisoned");
        map.get(key)
            .and_then(|per_bench| per_bench.get(&benchmark))
            .cloned()
    }

    /// Memoizes one result, simulated or loaded from disk.
    pub fn insert(&self, benchmark: Benchmark, key: ConfigKey, result: SimResult) {
        let mut map = self.map.lock().expect("cache poisoned");
        map.entry(key).or_default().insert(benchmark, result);
    }

    /// Drops every memoized result, forcing subsequent requests to
    /// re-simulate — used by benchmarks that must time fresh
    /// simulations on every iteration.
    pub fn clear(&self) {
        self.map.lock().expect("cache poisoned").clear();
    }
}

/// Counters describing what a [`Runner`](crate::Runner) actually did:
/// a typed view of its metric registry (see [`RunnerStats::to_record`]
/// for the form BENCH records and trace events carry).
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
    /// Reads the counters out of one runner registry snapshot — the
    /// one place that maps a registry counter name to a field.
    pub(crate) fn from_registry(obs: &Registry) -> RunnerStats {
        let memory_hits = obs.counter("cache.memory_hits");
        let disk_hits = obs.counter("cache.disk_hits");
        RunnerStats {
            cache_hits: memory_hits + disk_hits,
            simulations: obs.counter("runner.simulations"),
            sim_nanos: obs.counter("runner.sim_nanos"),
            skipped_cycles: obs.counter("runner.skipped_cycles"),
            artifact_builds: obs.counter("artifacts.builds"),
            prep_nanos: obs.counter("artifacts.prep_nanos"),
            disk_hits,
            disk_writes: obs.counter("cache.disk_writes"),
            disk_read_errors: obs.counter("cache.disk_read_errors"),
            disk_write_errors: obs.counter("cache.disk_write_errors"),
            orphans_removed: obs.counter("cache.orphans_removed"),
            job_retries: obs.counter("runner.job_retries"),
            job_failures: obs.counter("runner.job_failures"),
            faults_injected: FaultSite::ALL
                .iter()
                .map(|site| obs.counter(&format!("faults.injected.{}", site.name())))
                .sum(),
        }
    }

    /// Every counter (as [`Serialize::to_value`] names them) followed
    /// by the derived `cache_hit_rate`, `simulation_seconds` and
    /// `prep_seconds`: the fields `BENCH_reproduce.json` and the
    /// `run_finish`/`serve_finish` trace events share.
    pub fn to_record(&self) -> Vec<(String, Value)> {
        let mut fields = match self.to_value() {
            Value::Object(fields) => fields,
            other => unreachable!("a derived struct serializes to an object, not {other:?}"),
        };
        fields.extend([
            ("cache_hit_rate".to_string(), Value::Float(self.hit_rate())),
            (
                "simulation_seconds".to_string(),
                Value::Float(self.sim_seconds()),
            ),
            (
                "prep_seconds".to_string(),
                Value::Float(self.prep_seconds()),
            ),
        ]);
        fields
    }

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
