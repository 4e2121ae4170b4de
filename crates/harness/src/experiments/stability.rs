//! Seed stability — beyond the paper: how sensitive the headline result
//! (Figure 6's `NAS/SYNC` vs `NAS/ORACLE` speedups over `NAS/NAV`) is to
//! the synthetic workload generator's random seed.
//!
//! The paper ran fixed binaries, so it had no analogous axis; for a
//! synthetic suite this is the honest error bar.

use crate::experiments::{cfg, speedups};
use crate::runner::{int_fp_geomeans, Runner, Suite};
use crate::table::{speedup_pct, TextTable};
use mds_core::Policy;
use mds_workloads::{Benchmark, SuiteParams};
use serde::Serialize;

/// One seed's aggregate speedups.
#[derive(Debug, Clone, Serialize)]
pub struct SeedPoint {
    /// The generator seed.
    pub seed: u64,
    /// `NAS/SYNC` over `NAS/NAV` (int, fp geometric means).
    pub sync: (f64, f64),
    /// `NAS/ORACLE` over `NAS/NAV` (int, fp geometric means).
    pub oracle: (f64, f64),
}

/// The stability report.
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// One point per seed.
    pub points: Vec<SeedPoint>,
    /// Max absolute spread of the sync speedup across seeds (int, fp).
    pub sync_spread: (f64, f64),
}

/// Runs the Figure 6 comparison over the runner's benchmarks at each
/// seed.
///
/// The seed the runner's suite was generated with replays the runner's
/// own memoized results (fig6 has usually simulated them already). Every
/// other seed generates its suite here and runs it through
/// [`Runner::run_batch_on`], so the run's disk tier, fault plan, trace
/// and counters cover it too; the trace fingerprint inside every cache
/// key keeps the seeds' results apart. Each such suite is dropped before
/// the next seed is generated.
///
/// # Errors
///
/// Propagates workload-generation errors.
pub fn run(runner: &Runner, seeds: &[u64]) -> Result<Report, mds_isa::IsaError> {
    let configs = [
        cfg(Policy::NasNaive),
        cfg(Policy::NasSync),
        cfg(Policy::NasOracle),
    ];
    let base = runner.suite().params();
    let mut points = Vec::new();
    for &seed in seeds {
        let sets = if seed == base.seed {
            runner.run_batch(&configs)
        } else {
            let params = SuiteParams { seed, ..*base };
            let suite = Suite::generate(&runner.suite().benchmarks(), &params)?;
            runner.run_batch_on(&suite, &configs)
        };
        let [nav, sync, oracle]: [Vec<(Benchmark, f64)>; 3] = sets
            .into_iter()
            .map(|set| set.into_iter().map(|(b, r)| (b, r.ipc())).collect())
            .collect::<Vec<_>>()
            .try_into()
            .expect("three result sets");
        points.push(SeedPoint {
            seed,
            sync: int_fp_geomeans(&speedups(&sync, &nav)),
            oracle: int_fp_geomeans(&speedups(&oracle, &nav)),
        });
    }
    let spread = |pick: fn(&SeedPoint) -> f64| {
        let vals: Vec<f64> = points.iter().map(pick).collect();
        let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
        let max = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        max - min
    };
    let sync_spread = (spread(|p| p.sync.0), spread(|p| p.sync.1));
    Ok(Report {
        points,
        sync_spread,
    })
}

impl Report {
    /// Renders the per-seed table and the spread.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(&["seed", "SYNC int", "SYNC fp", "ORACLE int", "ORACLE fp"]);
        for p in &self.points {
            t.row_owned(vec![
                format!("{:#x}", p.seed),
                speedup_pct(p.sync.0),
                speedup_pct(p.sync.1),
                speedup_pct(p.oracle.0),
                speedup_pct(p.oracle.1),
            ]);
        }
        format!(
            "Stability: Figure 6 speedups across generator seeds\n{}\
             sync-speedup spread across seeds: int {:.1} points, fp {:.1} points\n",
            t.render(),
            100.0 * self.sync_spread.0,
            100.0 * self.sync_spread.1,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conclusion_is_seed_stable() {
        let suite = Suite::generate(
            &[Benchmark::Compress, Benchmark::Su2cor],
            &SuiteParams::tiny(),
        )
        .unwrap();
        let rep = run(&Runner::new(suite), &[0xB5, 0x1234, 0xDEAD]).unwrap();
        assert_eq!(rep.points.len(), 3);
        // Across seeds, SYNC must track ORACLE each time (the headline),
        // with slack for the tiny sizing.
        for p in &rep.points {
            assert!(
                p.sync.0 >= p.oracle.0 - 0.12 && p.sync.1 >= p.oracle.1 - 0.12,
                "seed {:#x}: sync {:?} vs oracle {:?}",
                p.seed,
                p.sync,
                p.oracle
            );
        }
        assert!(rep.render().contains("Stability"));
    }
}
