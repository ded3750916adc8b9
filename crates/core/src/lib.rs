//! # tbaa — Type-Based Alias Analysis
//!
//! A faithful implementation of the three alias analyses of
//! *Type-Based Alias Analysis* (Amer Diwan, Kathryn S. McKinley,
//! J. Eliot B. Moss — PLDI 1998):
//!
//! 1. **TypeDecl** (§2.2): access paths `p` and `q` may alias iff
//!    `Subtypes(Type(p)) ∩ Subtypes(Type(q)) ≠ ∅`.
//! 2. **FieldTypeDecl** (§2.3): the seven-case refinement of Table 2 using
//!    field names, the shape of the access (qualify / dereference /
//!    subscript), and the `AddressTaken` predicate.
//! 3. **SMFieldTypeRefs** (§2.4): FieldTypeDecl with *selective type
//!    merging* — a flow-insensitive, Steensgaard-flavoured union of type
//!    groups at every explicit or implicit pointer assignment, filtered by
//!    the subtype relation into the `TypeRefsTable`.
//!
//! The §4 *open-world* variants (for incomplete programs) are selected
//! with [`merge::World::Open`]: `AddressTaken` additionally holds for
//! every VAR formal of identical type, and unbranded subtype-related types
//! are conservatively merged because unavailable type-safe code could
//! reconstruct structural types and assign them.
//!
//! The crate consumes lowered programs from [`tbaa_ir`] and exposes:
//!
//! * [`analysis::Tbaa`] — build once per program, then query
//!   [`analysis::AliasAnalysis::may_alias`];
//! * [`pairs::count_alias_pairs`] — the static metric of the paper's
//!   Table 5;
//! * the [`analysis::NoAlias`] / [`analysis::AlwaysAlias`] oracles used by
//!   the upper-bound study and baselines.
//!
//! ## Example
//!
//! ```
//! use tbaa::analysis::{AliasAnalysis, Level, Tbaa};
//! use tbaa::merge::World;
//!
//! let prog = tbaa_ir::compile_to_ir(
//!     "MODULE M;
//!      TYPE T = OBJECT f, g: INTEGER; END;
//!      VAR t: T; x: INTEGER;
//!      BEGIN t := NEW(T); t.f := 1; x := t.g; END M.")?;
//! let analysis = Tbaa::build(&prog, Level::FieldTypeDecl, World::Closed);
//! let sites = prog.heap_ref_sites();
//! // The store of t.f cannot alias the load of t.g.
//! assert!(!analysis.may_alias(&prog.aps, sites[0].1, sites[1].1));
//! # Ok::<(), mini_m3::Diagnostics>(())
//! ```

pub mod analysis;
pub mod bitset;
pub mod compiled;
pub mod memo;
pub mod merge;
pub mod pairs;
pub mod steensgaard;
pub mod subtypes;
pub mod taken;
pub mod workers;

pub use analysis::{AliasAnalysis, AlwaysAlias, Level, NoAlias, Tbaa};
pub use compiled::{CompiledAliasEngine, CompiledStats, DENSE_LIMIT};
pub use memo::Memo;
pub use merge::World;
pub use pairs::{
    census_alias_pairs, census_alias_pairs_with_threads, count_alias_pairs,
    count_alias_pairs_rows, count_alias_pairs_with_threads, AliasPairCounts, CensusReport,
};
pub use steensgaard::Steensgaard;
pub use taken::FieldTakenSets;
pub use workers::{effective_workers, effective_workers_for, host_cores, ALL_CORES};
