//! # mds-core — the out-of-order core and the paper's policy space
//!
//! The primary contribution of the reproduction: a cycle-level,
//! centralized, continuous-window out-of-order superscalar processor
//! (Moshovos & Sohi, HPCA 2000, Table 2) that replays dynamic traces
//! under every load/store scheduling policy the paper studies:
//!
//! | [`Policy`] | Meaning |
//! |---|---|
//! | `NasNo` | no speculation: loads wait for all older stores |
//! | `NasNaive` | naive speculation, store-triggered violation detection |
//! | `NasSelective` | per-load confidence; predicted loads don't speculate |
//! | `NasStoreBarrier` | per-store confidence; loads wait for barrier stores |
//! | `NasSync` | MDPT speculation/synchronization through synonyms |
//! | `NasStoreSets` | store-set synchronization (extension) |
//! | `NasOracle` | perfect a-priori dependence knowledge |
//! | `AsNo` | address-based scheduler, no speculation |
//! | `AsNaive` | address-based scheduler + naive speculation |
//!
//! The [`WindowModel`] selects the centralized continuous window or the
//! distributed split window of Section 3.7 (tasks assigned round-robin
//! to independent units), letting the harness reproduce the paper's
//! closing comparison.
//!
//! Mis-speculation recovery is squash invalidation: the violated load
//! and everything younger are invalidated and re-fetched, so the lost
//! work, the invalidation time, and the opportunity cost are all paid in
//! simulated cycles, as in the paper's Section 2 cost model.
//!
//! # Examples
//!
//! ```
//! use mds_core::{CoreConfig, Policy, Simulator};
//! use mds_isa::{Asm, Interpreter, Reg};
//!
//! // The Figure 7 recurrence: store a[i]; load a[i-1] next iteration.
//! let mut a = Asm::new();
//! let arr = a.alloc_data(8 * 64, 8);
//! let r = Reg::int;
//! a.li(r(1), 1);
//! a.li(r(2), 64);
//! a.li(r(3), arr as i64);
//! let top = a.label();
//! a.bind(top);
//! a.sll(r(5), r(1), 3);
//! a.add(r(5), r(3), r(5));
//! a.lw(r(6), r(5), -8);
//! a.add(r(6), r(6), r(1));
//! a.sw(r(6), r(5), 0);
//! a.addi(r(1), r(1), 1);
//! a.slt(r(7), r(1), r(2));
//! a.bgtz(r(7), top);
//! a.halt();
//! let trace = Interpreter::new(a.assemble()?).run(100_000)?;
//!
//! let naive = Simulator::new(CoreConfig::paper_128().with_policy(Policy::NasNaive));
//! let sync = Simulator::new(CoreConfig::paper_128().with_policy(Policy::NasSync));
//! let r_naive = naive.run(&trace);
//! let r_sync = sync.run(&trace);
//! // Synchronization eliminates the recurrence's mis-speculations.
//! assert!(r_sync.stats.misspeculations < r_naive.stats.misspeculations);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod artifacts;
mod config;
mod csr;
mod fetch_stage;
mod issue;
mod oracle;
mod pipetrace;
mod sched;
mod sim;
mod stats;
mod window;

pub use artifacts::TraceArtifacts;
pub use config::{BranchPredictorConfig, CoreConfig, Policy, Recovery, WindowModel};
pub use mds_obs::{CpiStack, Histogram, StallCause};
pub use oracle::OracleDeps;
pub use pipetrace::{PipeEvent, PipeStage, PipeTrace};
pub use sim::Simulator;
pub use stats::{SimResult, SimStats};
