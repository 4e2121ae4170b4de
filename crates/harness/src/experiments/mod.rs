//! One module per table and figure of the paper's evaluation.
//!
//! Every experiment consumes a shared [`Runner`] (so the functional
//! traces are generated once and (benchmark, config) results are
//! memoized across *all* experiments in a run), returns a serializable
//! report struct with the raw numbers, and renders the same rows/series
//! the paper presents.
//!
//! [`Runner`]: crate::Runner
//!
//! [`EXPERIMENTS`] lists them all in run order: `reproduce` runs, lists
//! and validates experiments from that one table, so adding one touches
//! only its module and its row.
//!
//! | Module | Reproduces |
//! |---|---|
//! | [`table1`] | Table 1 — benchmark execution characteristics |
//! | [`table2`] | Table 2 — the machine configuration |
//! | [`fig1`] | Figure 1 — `NAS/NO` vs `NAS/ORACLE`, 64/128-entry windows |
//! | [`table3`] | Table 3 — false-dependence fraction and resolution latency |
//! | [`fig2`] | Figure 2 — naive speculation without an address scheduler |
//! | [`fig3`] | Figure 3 — `AS/NAV` vs `AS/NO` over scheduler latency 0–2 |
//! | [`fig4`] | Figure 4 — oracle vs address scheduling + naive speculation |
//! | [`fig5`] | Figure 5 — selective and store-barrier speculation |
//! | [`fig6`] | Figure 6 — speculation/synchronization |
//! | [`table4`] | Table 4 — mis-speculation rates (`NAV` and `SYNC`) |
//! | [`fig7`] | Section 3.7 — split vs continuous window |
//! | [`summary`] | Section 4 — the headline average speedups |
//! | [`cpistack`] | beyond the paper: CPI-stack stall attribution per policy |
//! | [`ablation`] | beyond the paper: predictor sizing, flush interval, store sets, window sweep |
//! | [`stability`] | beyond the paper: seed sensitivity of the headline result |

pub mod ablation;
pub mod cpistack;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod stability;
pub mod summary;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;

use crate::runner::Runner;
use mds_core::{CoreConfig, Policy, SimResult};
use mds_workloads::Benchmark;
use serde::{Serialize, Value};

/// One rendered output of an experiment: `reproduce` prints `text` and,
/// with `--out`, writes it to `<stem>.txt`, plus `<stem>.json` and
/// `<stem>.csv` when there is a `value`.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// The file stem of the written forms.
    pub stem: &'static str,
    /// The rendered table or figure.
    pub text: String,
    /// The raw numbers behind `text`, if the experiment has any.
    pub value: Option<Value>,
}

impl Artifact {
    /// A report's rendering and raw numbers.
    fn of<R: Serialize>(stem: &'static str, report: &R, render: fn(&R) -> String) -> Artifact {
        Artifact {
            stem,
            text: render(report),
            value: Some(report.to_value()),
        }
    }
}

/// One row of [`EXPERIMENTS`]: the name `--only` selects it by, and the
/// function that runs it on the run's [`Runner`].
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The experiment's name, as `--only` and `--list` spell it.
    pub name: &'static str,
    /// Runs the experiment, returning its artifacts in output order.
    pub run: fn(&Runner) -> Result<Vec<Artifact>, String>,
}

/// A row for a module whose `run(&Runner)` returns a serializable
/// `Report` with a `render` method, emitted under the module's name.
macro_rules! report {
    ($module:ident) => {
        Experiment {
            name: stringify!($module),
            run: |r| {
                let report = $module::run(r);
                Ok(vec![Artifact::of(
                    stringify!($module),
                    &report,
                    $module::Report::render,
                )])
            },
        }
    };
}

/// Every experiment `reproduce` knows, in run order. `ablations` covers
/// the six beyond-the-paper sweeps; `stability` reruns the headline
/// result under the run's seed and two more.
pub const EXPERIMENTS: [Experiment; 15] = [
    report!(table1),
    Experiment {
        name: "table2",
        run: |_| {
            Ok(vec![Artifact {
                stem: "table2",
                text: table2::render(&CoreConfig::paper_128()),
                value: None,
            }])
        },
    },
    report!(fig1),
    report!(table3),
    report!(fig2),
    report!(fig3),
    report!(fig4),
    report!(fig5),
    report!(fig6),
    report!(table4),
    report!(fig7),
    report!(summary),
    report!(cpistack),
    Experiment {
        name: "ablations",
        run: |r| {
            use ablation::*;
            Ok(vec![
                Artifact::of(
                    "ablation_predictor_size",
                    &predictor_size(r, &[256, 1024, 4096, 16384]),
                    PredictorSizeSweep::render,
                ),
                Artifact::of(
                    "ablation_flush_interval",
                    &flush_interval(r, &[Some(100_000), Some(1_000_000), None]),
                    FlushIntervalSweep::render,
                ),
                Artifact::of(
                    "ablation_store_sets",
                    &store_sets(r),
                    StoreSetComparison::render,
                ),
                Artifact::of(
                    "ablation_recovery",
                    &recovery(r),
                    RecoveryComparison::render,
                ),
                Artifact::of(
                    "ablation_branch_predictors",
                    &branch_predictors(r),
                    BranchPredictorSweep::render,
                ),
                Artifact::of(
                    "ablation_window_sweep",
                    &window_sweep(r, &[32, 64, 128, 256]),
                    WindowSweep::render,
                ),
            ])
        },
    },
    Experiment {
        name: "stability",
        run: |r| {
            let seeds = [r.suite().params().seed, 0x1234, 0xDEAD_BEEF];
            let rep = stability::run(r, &seeds)
                .map_err(|e| format!("stability experiment failed: {e}"))?;
            Ok(vec![Artifact::of(
                "stability",
                &rep,
                stability::Report::render,
            )])
        },
    },
];

/// Runs every suite benchmark under `config`, returning the IPCs.
pub(crate) fn ipcs(runner: &Runner, config: &CoreConfig) -> Vec<(Benchmark, f64)> {
    runner
        .run(config)
        .into_iter()
        .map(|(b, r)| (b, r.ipc()))
        .collect()
}

/// Runs every suite benchmark under each config in one parallel wave,
/// returning one IPC set per config.
pub(crate) fn ipcs_batch(runner: &Runner, configs: &[CoreConfig]) -> Vec<Vec<(Benchmark, f64)>> {
    runner
        .run_batch(configs)
        .into_iter()
        .map(|set| set.into_iter().map(|(b, r)| (b, r.ipc())).collect())
        .collect()
}

/// Runs every suite benchmark under `config`, returning full results.
pub(crate) fn results(runner: &Runner, config: &CoreConfig) -> Vec<(Benchmark, SimResult)> {
    runner.run(config)
}

/// Per-benchmark speedup of `new` over `base` (paired by suite order).
pub(crate) fn speedups(
    new: &[(Benchmark, f64)],
    base: &[(Benchmark, f64)],
) -> Vec<(Benchmark, f64)> {
    new.iter()
        .zip(base.iter())
        .map(|(&(b, n), &(b2, d))| {
            debug_assert_eq!(b, b2);
            (b, if d == 0.0 { 0.0 } else { n / d })
        })
        .collect()
}

/// Shorthand for a paper-default 128-entry configuration with `policy`.
pub(crate) fn cfg(policy: Policy) -> CoreConfig {
    CoreConfig::paper_128().with_policy(policy)
}
