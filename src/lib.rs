//! # mds — memory dependence speculation in continuous-window superscalar processors
//!
//! A from-scratch Rust reproduction of Moshovos & Sohi, *"Memory Dependence
//! Speculation Tradeoffs in Centralized, Continuous-Window Superscalar
//! Processors"* (HPCA 2000).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`isa`] — MIPS-like ISA, assembler, functional interpreter, traces.
//! * [`mem`] — cycle-level cache hierarchy and memory system.
//! * [`frontend`] — branch predictors and fetch model.
//! * [`predict`] — memory dependence predictors (selective, store-barrier,
//!   MDPT, store-set).
//! * [`core`] — the out-of-order superscalar core with every load/store
//!   scheduling policy the paper studies, plus the split-window model.
//! * [`workloads`] — the synthetic SPEC'95-like benchmark suite.
//! * [`harness`] — experiment runners regenerating every table and figure.
//! * [`obs`] — observability: metrics registry, log2 histograms,
//!   CPI-stack attribution, JSONL event tracing.
//!
//! # Examples
//!
//! Measure the IPC gap between no speculation and oracle dependence
//! information on one benchmark (the essence of the paper's Figure 1):
//!
//! ```
//! use mds::core::{CoreConfig, Policy, Simulator};
//! use mds::workloads::{Benchmark, SuiteParams};
//!
//! let trace = Benchmark::Compress.trace(&SuiteParams::tiny())?;
//! let base = CoreConfig::paper_128();
//!
//! let no_spec = Simulator::new(base.clone().with_policy(Policy::NasNo)).run(&trace);
//! let oracle = Simulator::new(base.with_policy(Policy::NasOracle)).run(&trace);
//! assert!(oracle.ipc() >= no_spec.ipc());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use mds_core as core;
pub use mds_frontend as frontend;
pub use mds_harness as harness;
pub use mds_isa as isa;
pub use mds_mem as mem;
pub use mds_obs as obs;
pub use mds_predict as predict;
pub use mds_workloads as workloads;
