//! The parallel evaluation engine must be an invisible optimization:
//! whatever the worker count, the rendered tables are byte-identical to
//! the single-threaded reference and to the recorded golden output, and
//! the memo caches guarantee each benchmark is compiled exactly once and
//! each program variant is executed exactly once.

use std::sync::Arc;

use tbaa_bench::{jsonout, render_report, render_table5, render_table6, Engine};
use tbaa_repro::alias::{Level, World};
use tbaa_repro::benchsuite::{suite, Benchmark};

const SCALE: u32 = 1;

/// Rendered Table 5 and Table 6 from a parallel engine match the
/// single-threaded engine byte for byte.
#[test]
fn parallel_tables_match_serial_byte_for_byte() {
    let serial = Engine::with_threads(SCALE, 1);
    let parallel = Engine::with_threads(SCALE, 8);
    assert_eq!(
        render_table5(&serial.table5()),
        render_table5(&parallel.table5()),
        "Table 5 must not depend on the schedule"
    );
    assert_eq!(
        render_table6(&serial.table6()),
        render_table6(&parallel.table6()),
        "Table 6 must not depend on the schedule"
    );
}

/// A multi-table run on many threads still compiles each benchmark
/// exactly once: the per-key slots in the memo cache are exactly-once
/// even under contention.
#[test]
fn engine_compiles_each_program_exactly_once() {
    let engine = Engine::with_threads(SCALE, 8);
    engine.table5();
    engine.table6();
    engine.fig8();
    assert_eq!(
        engine.compile_count(),
        suite().len(),
        "every table re-uses the shared compiles"
    );
}

/// The memo cache hands out the same `Arc` on repeated lookups — the
/// analysis is shared, not rebuilt.
#[test]
fn memo_cache_returns_the_same_arc()
{
    let engine = Engine::with_threads(SCALE, 4);
    let b = Benchmark::by_name("ktree").expect("suite has ktree");
    let first = engine.analysis(b, Level::SmFieldTypeRefs, World::Closed);
    let again = engine.analysis(b, Level::SmFieldTypeRefs, World::Closed);
    assert!(
        Arc::ptr_eq(&first, &again),
        "second lookup must be the cached analysis"
    );
    let prog = engine.program(b);
    assert!(Arc::ptr_eq(&prog, &engine.program(b)));
}

/// `paper-tables all --scale 1` output, text and `--json`. Every number
/// in it comes out of the simulator or the analyses, so regenerate these
/// files only for a change that is meant to move a table.
const GOLDEN_TEXT: &str = include_str!("golden/paper_tables_scale1.txt");
const GOLDEN_JSON: &str = include_str!("golden/paper_tables_scale1.jsonl");

/// Every table and figure renders byte-identical to the golden output at
/// 1 and 8 threads, and costs one profiled run per program variant: the
/// 8 non-interactive programs × (base, RLE at each of the 3 levels,
/// Minv+Inlining, RLE+Minv+Inlining, open-world RLE) = 56.
#[test]
fn every_table_and_figure_matches_the_golden_output() {
    for threads in [1, 8] {
        let engine = Engine::with_threads(SCALE, threads);
        assert_eq!(
            render_report(&engine, "all"),
            GOLDEN_TEXT,
            "rendered tables at {threads} threads"
        );
        assert_eq!(
            jsonout::report(&engine, "all"),
            GOLDEN_JSON,
            "JSON rows at {threads} threads"
        );
        assert_eq!(
            engine.stats().executions,
            56,
            "one execution per (program, variant) at {threads} threads"
        );
    }
}
