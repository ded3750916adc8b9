//! # tbaa-bench — regenerating every table and figure of the paper
//!
//! Each public function computes the data behind one table or figure of
//! *Type-Based Alias Analysis* over the `tbaa-benchsuite` programs:
//!
//! | Function | Paper artifact |
//! |---|---|
//! | [`table4`] | Table 4 — benchmark description (lines, instructions, load mix) |
//! | [`table5`] | Table 5 — static alias pairs per analysis |
//! | [`table6`] | Table 6 — redundant loads removed statically |
//! | [`fig8`]   | Figure 8 — simulated run time of RLE per analysis |
//! | [`fig9`]   | Figure 9 — dynamic redundancy before/after RLE |
//! | [`fig10`]  | Figure 10 — sources of remaining redundancy |
//! | [`fig11`]  | Figure 11 — cumulative RLE / Minv+Inlining impact |
//! | [`fig12`]  | Figure 12 — open- vs closed-world RLE |
//!
//! The `paper-tables` binary prints them; the Criterion benches in
//! `benches/` time the underlying analyses and regenerate the artifacts.
//!
//! All of the computation lives in the [`Engine`]: it compiles each
//! benchmark once, memoizes analyses and optimized variants, and fans
//! rows out across worker threads. The free functions below are
//! single-table conveniences that spin up a throwaway engine; callers
//! producing several tables (like `paper-tables`) should build one
//! [`Engine`] and reuse it so the compile/analysis/simulation caches are
//! shared across all of them.

pub mod engine;
pub mod host;
pub mod jsonout;
pub mod load;
pub mod rng;

pub use engine::{Engine, EngineStats};

use tbaa::AliasPairCounts;
use tbaa_sim::{Breakdown, LimitResult};

/// The default workload scale for the printed tables.
pub const DEFAULT_SCALE: u32 = 2;

/// One row of Table 4.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Non-comment, non-blank source lines.
    pub lines: usize,
    /// Executed instructions (`None` for the interactive programs).
    pub instructions: Option<u64>,
    /// Percent of instructions that are heap loads.
    pub heap_load_pct: Option<f64>,
    /// Percent of instructions that are other loads.
    pub other_load_pct: Option<f64>,
    /// Description.
    pub about: &'static str,
}

/// Computes Table 4 with a throwaway [`Engine`].
pub fn table4(scale: u32) -> Vec<Table4Row> {
    Engine::new(scale).table4()
}

/// One row of Table 5.
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Heap reference expressions in the program.
    pub references: usize,
    /// Pair counts for TypeDecl, FieldTypeDecl, SMFieldTypeRefs.
    pub by_level: [AliasPairCounts; 3],
}

/// Computes Table 5 (static alias pairs; all ten programs) with a
/// throwaway [`Engine`].
pub fn table5(scale: u32) -> Vec<Table5Row> {
    Engine::new(scale).table5()
}

/// One row of Table 6.
#[derive(Debug, Clone)]
pub struct Table6Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Loads removed statically per analysis level.
    pub removed: [usize; 3],
}

/// Computes Table 6 (redundant loads removed statically; the paper lists
/// the seven non-interactive programs) with a throwaway [`Engine`].
pub fn table6(scale: u32) -> Vec<Table6Row> {
    Engine::new(scale).table6()
}

/// One bar group of Figure 8 (or 12): percent of the original simulated
/// running time.
#[derive(Debug, Clone)]
pub struct RuntimeRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Percent of base cycles per configuration.
    pub pct: Vec<f64>,
    /// Configuration labels, parallel to `pct`.
    pub labels: Vec<&'static str>,
}

/// Computes Figure 8: simulated run time of RLE under each analysis,
/// normalized to the unoptimized program (100). Throwaway [`Engine`].
pub fn fig8(scale: u32) -> Vec<RuntimeRow> {
    Engine::new(scale).fig8()
}

/// One pair of bars in Figure 9.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Benchmark name.
    pub name: &'static str,
    /// The limit-study counters.
    pub limit: LimitResult,
}

/// Computes Figure 9: the fraction of heap references that are
/// dynamically redundant, originally and after TBAA+RLE. Throwaway
/// [`Engine`].
pub fn fig9(scale: u32) -> Vec<Fig9Row> {
    Engine::new(scale).fig9()
}

/// One stacked bar of Figure 10.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Dynamic redundant-load counts by category.
    pub breakdown: Breakdown,
    /// Heap loads of the *original* program (the figure's denominator).
    pub original_heap_loads: u64,
}

/// Computes Figure 10: where the redundancy remaining after RLE comes
/// from. Throwaway [`Engine`].
pub fn fig10(scale: u32) -> Vec<Fig10Row> {
    Engine::new(scale).fig10()
}

/// Computes Figure 11: cumulative impact of RLE, Minv+Inlining, and both.
/// Throwaway [`Engine`].
pub fn fig11(scale: u32) -> Vec<RuntimeRow> {
    Engine::new(scale).fig11()
}

/// Computes Figure 12: RLE under the closed- vs open-world assumption.
/// Throwaway [`Engine`].
pub fn fig12(scale: u32) -> Vec<RuntimeRow> {
    Engine::new(scale).fig12()
}

/// Static alias-pair counts for the open-world variant (the §4 static
/// comparison around Figure 12). Throwaway [`Engine`].
pub fn open_world_pairs(scale: u32) -> Vec<(String, AliasPairCounts, AliasPairCounts)> {
    Engine::new(scale).open_world_pairs()
}

// ---- rendering -------------------------------------------------------------

/// Renders Table 4 as aligned text.
pub fn render_table4(rows: &[Table4Row]) -> String {
    let mut s = String::from(
        "Table 4: Description of Benchmark Programs\n\
         Name          Lines  Instructions  %Heap loads  %Other loads  Description\n",
    );
    for r in rows {
        let (i, h, o) = match (r.instructions, r.heap_load_pct, r.other_load_pct) {
            (Some(i), Some(h), Some(o)) => (i.to_string(), format!("{h:.0}"), format!("{o:.0}")),
            _ => ("-".into(), "-".into(), "-".into()),
        };
        s.push_str(&format!(
            "{:<13} {:>5}  {:>12}  {:>11}  {:>12}  {}\n",
            r.name, r.lines, i, h, o, r.about
        ));
    }
    s
}

/// Renders Table 5.
pub fn render_table5(rows: &[Table5Row]) -> String {
    let mut s = String::from(
        "Table 5: Alias Pairs\n                        \
         TypeDecl          FieldTypeDecl     SMFieldTypeRefs\n\
         Program       Refs   L Alias  G Alias   L Alias  G Alias   L Alias  G Alias\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{:<13} {:>5}  {:>8} {:>8}  {:>8} {:>8}  {:>8} {:>8}\n",
            r.name,
            r.references,
            r.by_level[0].local_pairs,
            r.by_level[0].global_pairs,
            r.by_level[1].local_pairs,
            r.by_level[1].global_pairs,
            r.by_level[2].local_pairs,
            r.by_level[2].global_pairs,
        ));
    }
    s
}

/// Renders Table 6.
pub fn render_table6(rows: &[Table6Row]) -> String {
    let mut s = String::from(
        "Table 6: Number of Redundant Loads Removed Statically\n\
         Program       TypeDecl  FieldTypeDecl  SMFieldTypeRefs\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{:<13} {:>8}  {:>13}  {:>15}\n",
            r.name, r.removed[0], r.removed[1], r.removed[2]
        ));
    }
    s
}

/// Renders a runtime figure (8, 11, or 12).
pub fn render_runtime(title: &str, rows: &[RuntimeRow]) -> String {
    let mut s = format!("{title}\n");
    if let Some(first) = rows.first() {
        s.push_str(&format!("{:<13} {:>6}", "Program", "Base"));
        for l in &first.labels {
            s.push_str(&format!("  {l:>26}"));
        }
        s.push('\n');
    }
    for r in rows {
        s.push_str(&format!("{:<13} {:>6.0}", r.name, 100.0));
        for p in &r.pct {
            s.push_str(&format!("  {p:>26.1}"));
        }
        s.push('\n');
    }
    s
}

/// Everything `paper-tables <which>` prints: a header, then the named
/// table or figure (`"all"` for every one, in paper order), each followed
/// by a blank line. Figure 12 carries the static open-world comparison.
pub fn render_report(engine: &Engine, which: &str) -> String {
    let all = which == "all";
    let want = |name: &str| all || which == name;
    let mut s = format!(
        "Type-Based Alias Analysis (PLDI 1998) — reproduction tables (scale {})\n\n",
        engine.scale()
    );
    let mut section = |text: String| {
        s.push_str(&text);
        s.push('\n');
    };
    if want("table4") {
        section(render_table4(&engine.table4()));
    }
    if want("table5") {
        section(render_table5(&engine.table5()));
    }
    if want("table6") {
        section(render_table6(&engine.table6()));
    }
    if want("fig8") {
        section(render_runtime(
            "Figure 8: Impact of RLE (percent of original running time)",
            &engine.fig8(),
        ));
    }
    if want("fig9") {
        section(render_fig9(&engine.fig9()));
    }
    if want("fig10") {
        section(render_fig10(&engine.fig10()));
    }
    if want("fig11") {
        section(render_runtime(
            "Figure 11: Cumulative Impact of Optimizations (percent of original time)",
            &engine.fig11(),
        ));
    }
    if want("fig12") {
        section(render_runtime(
            "Figure 12: Open and Closed World Assumptions (percent of original time)",
            &engine.fig12(),
        ));
        s.push_str("Static open-world comparison (SMFieldTypeRefs):\n");
        s.push_str(&format!(
            "{:<13} {:>16} {:>16}\n",
            "Program", "Closed G-pairs", "Open G-pairs"
        ));
        for (name, closed, open) in engine.open_world_pairs() {
            s.push_str(&format!(
                "{:<13} {:>16} {:>16}\n",
                name, closed.global_pairs, open.global_pairs
            ));
        }
    }
    s
}

/// Renders Figure 9.
pub fn render_fig9(rows: &[Fig9Row]) -> String {
    let mut s = String::from(
        "Figure 9: Comparing TBAA to an Upper Bound\n\
         Program       Redundant originally  Redundant after opt.  Removed%\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{:<13} {:>20.3}  {:>20.3}  {:>7.0}%\n",
            r.name,
            r.limit.fraction_original(),
            r.limit.fraction_after(),
            r.limit.removed_pct()
        ));
    }
    s
}

/// Renders Figure 10.
pub fn render_fig10(rows: &[Fig10Row]) -> String {
    let mut s = String::from(
        "Figure 10: Source of Redundant Loads after Optimizations\n\
         (fractions of original heap references)\n\
         Program       Encapsulated  Conditional  Breakup  AliasFail  Rest\n",
    );
    for r in rows {
        let d = r.original_heap_loads.max(1) as f64;
        let b = &r.breakdown;
        s.push_str(&format!(
            "{:<13} {:>12.3}  {:>11.3}  {:>7.3}  {:>9.3}  {:>4.3}\n",
            r.name,
            b.encapsulated as f64 / d,
            b.conditional as f64 / d,
            b.breakup as f64 / d,
            b.alias_failure as f64 / d,
            b.rest as f64 / d,
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_is_monotone_per_level() {
        for row in table5(1) {
            assert!(row.by_level[0].global_pairs >= row.by_level[1].global_pairs);
            assert!(row.by_level[1].global_pairs >= row.by_level[2].global_pairs);
        }
    }

    #[test]
    fn table6_is_monotone_per_level() {
        for row in table6(1) {
            assert!(
                row.removed[1] >= row.removed[0],
                "{}: FieldTypeDecl finds at least TypeDecl's loads: {:?}",
                row.name,
                row.removed
            );
            assert!(
                row.removed[2] >= row.removed[1],
                "{}: {:?}",
                row.name,
                row.removed
            );
        }
    }

    #[test]
    fn fig8_improves_or_matches_base() {
        for row in fig8(1) {
            for (p, l) in row.pct.iter().zip(row.labels.iter()) {
                assert!(
                    *p <= 101.0,
                    "{} under {l} should not slow down: {p:.1}%",
                    row.name
                );
            }
        }
    }

    #[test]
    fn fig9_fractions_are_sane() {
        for row in fig9(1) {
            let f0 = row.limit.fraction_original();
            let f1 = row.limit.fraction_after();
            assert!((0.0..=1.0).contains(&f0), "{}: {f0}", row.name);
            assert!(
                f1 <= f0 + 1e-9,
                "{}: optimization reduces redundancy",
                row.name
            );
        }
    }
}
