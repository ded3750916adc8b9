//! # tbaa-sim — execution substrate for the TBAA evaluation
//!
//! The paper's dynamic numbers come from a validated Alpha 21064
//! simulator and the ATOM binary-instrumentation tool. This crate
//! substitutes both with components built on the `tbaa-ir` interpreter:
//!
//! * [`interp`] — executes lowered programs, counting instructions, heap
//!   loads, and other (stack/global) loads — the columns of Table 4 —
//!   while streaming every memory reference to a [`interp::MemHook`];
//! * [`cache`] + [`machine`] — a 32 KB direct-mapped data cache and a
//!   dual-issue-flavoured cycle model (§3.4.2) for the simulated
//!   execution times of Figures 8, 11, and 12;
//! * [`trace`] — the ATOM-equivalent: records every load's address and
//!   value and applies the paper's redundancy definition (§3.5);
//! * [`classify`] — splits the redundancy remaining after RLE into the
//!   paper's five categories (Figure 10) using shadow analysis passes.
//!
//! [`profile`] runs a program once and drives the cache model and the
//! redundancy trace from that single event stream, so every table and
//! figure costs one interpreter pass per program variant.
//!
//! ## Example
//!
//! ```
//! use tbaa_sim::interp::{run, NullHook, RunConfig};
//!
//! let prog = tbaa_ir::compile_to_ir(
//!     "MODULE M;
//!      VAR s: INTEGER;
//!      BEGIN FOR i := 1 TO 5 DO s := s + i END; PRINTI(s) END M.")?;
//! let outcome = run(&prog, &mut NullHook, RunConfig::default())
//!     .map_err(|e| e.to_string())?;
//! assert_eq!(outcome.output, "15");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod cache;
pub mod classify;
pub mod heap;
pub mod interp;
pub mod machine;
pub mod trace;
pub mod value;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use classify::{classify_remaining, Breakdown, LimitResult};
pub use interp::{run, ExecCounts, MemHook, NullHook, RunConfig, RunOutcome, RuntimeError};
pub use machine::{cycles, profile, simulate, CacheHook, Profile};
pub use trace::RedundancyTrace;
