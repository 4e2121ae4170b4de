//! # mds-isa — instruction set, assembler, and functional interpreter
//!
//! The ISA substrate of the `mds` simulator, a reproduction of Moshovos &
//! Sohi, *"Memory Dependence Speculation Tradeoffs in Centralized,
//! Continuous-Window Superscalar Processors"* (HPCA 2000).
//!
//! The paper ran SPEC'95 binaries compiled for MIPS-I; this crate provides
//! the equivalent substrate built from scratch: a MIPS-like RISC ISA
//! ([`Op`], [`Instruction`], [`Reg`]), a program builder ([`Asm`]), a sparse
//! data memory ([`MemImage`]), and a functional [`Interpreter`] that
//! executes programs and emits the correct-path dynamic [`Trace`] the
//! timing core replays.
//!
//! # Examples
//!
//! Assemble and execute the paper's Figure 7 recurrence loop
//! (`a[i] = a[i-1] + k`):
//!
//! ```
//! use mds_isa::{Asm, Interpreter, Reg};
//!
//! let mut a = Asm::new();
//! let arr = a.alloc_data(8 * 64, 8);
//! let (i, n, base, k, t) =
//!     (Reg::int(1), Reg::int(2), Reg::int(3), Reg::int(4), Reg::int(5));
//! a.li(i, 1);
//! a.li(n, 64);
//! a.li(base, arr as i64);
//! a.li(k, 3);
//! let top = a.label();
//! a.bind(top);
//! a.sll(t, i, 3); // i * 8
//! a.add(t, base, t);
//! a.lw(Reg::int(6), t, -8); // load a[i-1]
//! a.add(Reg::int(6), Reg::int(6), k);
//! a.sw(Reg::int(6), t, 0); // store a[i]
//! a.addi(i, i, 1);
//! a.slt(Reg::int(7), i, n);
//! a.bgtz(Reg::int(7), top);
//! a.halt();
//!
//! let trace = Interpreter::new(a.assemble()?).run(10_000)?;
//! assert!(trace.completed());
//! assert_eq!(trace.counts().loads, 63);
//! assert_eq!(trace.counts().stores, 63);
//! # Ok::<(), mds_isa::IsaError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod asm;
mod error;
mod inst;
mod interp;
mod mem;
mod op;
#[cfg(test)]
mod op_semantics_tests;
mod parse;
mod reg;
mod trace;

pub use asm::{Asm, Label, Program, DATA_BASE, DATA_LIMIT, TEXT_BASE};
pub use error::IsaError;
pub use inst::Instruction;
pub use interp::{ArchState, Interpreter};
pub use mem::MemImage;
pub use op::{FuClass, MemWidth, Op};
pub use parse::{parse_program, ParseError};
pub use reg::{Reg, NUM_FP_REGS, NUM_INT_REGS, NUM_REGS};
pub use trace::{Trace, TraceCounts, TraceRecord};
