//! `bench-compile` — cold-compile pipeline microbenchmark.
//!
//! Measures the source → IR cold-compile path (parse, check, lowering)
//! over the whole benchsuite at several workload scales, and appends a
//! `compile` section to the bench report:
//!
//! ```text
//! bench-compile [--scales 1,4,16] [--reps N] [--out PATH] [--smoke]
//! ```
//!
//! Cold compile is serial: one lowering walk per module, with the
//! incremental cache replaying unchanged units on later loads. What is
//! measured is its single-thread cost — wall time (best of `--reps`)
//! and *allocation count*. Lowering is deterministic, so the allocation
//! count is exact and reproducible — the report gates on it staying at
//! or below the pre-optimization baseline measured in
//! [`BASELINE_ALLOCS`], which makes per-unit `String`/`Vec` churn a hard
//! regression even where wall-clock noise would hide it.
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use tbaa_server::json::Value;

/// `System` with allocation counters. Counts every `alloc`,
/// `alloc_zeroed`, and `realloc` (a grown `Vec` is exactly the churn
/// this benchmark exists to pin down); `dealloc` is pass-through.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation count + bytes of one run of `f` (single-threaded runs
/// only: the counters are process-global).
fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let b0 = ALLOC_BYTES.load(Ordering::Relaxed);
    let out = f();
    (
        out,
        ALLOCS.load(Ordering::Relaxed) - a0,
        ALLOC_BYTES.load(Ordering::Relaxed) - b0,
    )
}

/// Serial cold-compile allocation counts measured at the commit *before*
/// the scratch-reuse/pre-sizing work (per-unit `String`/`Vec` churn in
/// `ModuleLowerer`, unsized interner and `ApTable`), via a throwaway
/// `git worktree` of that commit running this same binary. Exact values:
/// lowering is deterministic, so any drift above the gate is a real
/// regression, not noise. `(bench, scale, allocs)`.
const BASELINE_ALLOCS: &[(&str, u32, u64)] = &[
    ("format", 1, 2355),
    ("dformat", 1, 2913),
    ("write-pickle", 1, 3015),
    ("ktree", 1, 1954),
    ("slisp", 1, 10295),
    ("pp", 1, 3513),
    ("dom", 1, 3632),
    ("postcard", 1, 3686),
    ("m2tom3", 1, 2787),
    ("m3cg", 1, 6281),
];

struct Config {
    scales: Vec<u32>,
    reps: u32,
    out: String,
    smoke: bool,
    print_allocs: bool,
}

fn parse_args() -> Config {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = Config {
        scales: vec![1, 4, 16],
        reps: 5,
        out: "BENCH_alias_query.json".to_string(),
        smoke: false,
        print_allocs: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scales" => {
                i += 1;
                if let Some(list) = args.get(i) {
                    cfg.scales = list
                        .split(',')
                        .filter_map(|s| s.parse().ok())
                        .collect();
                }
            }
            "--reps" => {
                i += 1;
                cfg.reps = args.get(i).and_then(|s| s.parse().ok()).unwrap_or(cfg.reps);
            }
            "--out" => {
                i += 1;
                cfg.out = args.get(i).cloned().unwrap_or(cfg.out);
            }
            "--smoke" => cfg.smoke = true,
            "--print-allocs" => cfg.print_allocs = true,
            other => {
                eprintln!("bench-compile: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if cfg.smoke {
        cfg.scales = vec![1, 4];
        cfg.reps = 1;
    }
    cfg
}

/// Best wall-clock microseconds over `reps` runs of `f`.
fn best_us(reps: u32, mut f: impl FnMut()) -> i64 {
    let mut best = i64::MAX;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_micros() as i64);
    }
    best
}

fn main() {
    let cfg = parse_args();

    let mut rows: Vec<Value<'static>> = Vec::new();
    // Summed best-case µs across every (bench, scale) cell.
    let mut serial_total: i64 = 0;
    let mut alloc_gate_failures: Vec<String> = Vec::new();
    let mut baseline_total: u64 = 0;
    let mut measured_total: u64 = 0;

    for b in tbaa_benchsuite::suite() {
        for &scale in &cfg.scales {
            let src = b.source_at_scale(scale);
            let serial = tbaa_ir::compile_to_ir(&src).expect("benchsuite compiles");

            let serial_us = best_us(cfg.reps, || {
                black_box(tbaa_ir::compile_to_ir(black_box(&src)).expect("compiles"));
            });
            serial_total += serial_us;
            let (_, allocs, alloc_bytes) =
                count_allocs(|| black_box(tbaa_ir::compile_to_ir(black_box(&src))));

            if let Some(&(_, _, baseline)) = BASELINE_ALLOCS
                .iter()
                .find(|&&(name, s, _)| name == b.name && s == scale)
            {
                baseline_total += baseline;
                measured_total += allocs;
                // The scratch-reuse work cut counts by ~20%; gate at
                // "no worse than baseline" so unrelated legitimate
                // growth has headroom while churn regressions (which
                // scale with unit count) still trip it.
                if allocs > baseline {
                    alloc_gate_failures.push(format!(
                        "{}@{scale}: {allocs} allocs vs {baseline} baseline",
                        b.name
                    ));
                }
            }

            if cfg.print_allocs {
                println!("ALLOCS {} {} {}", b.name, scale, allocs);
            }
            rows.push(Value::object(vec![
                ("bench", Value::Str(b.name.into())),
                ("scale", Value::Int(scale as i64)),
                ("funcs", Value::Int(serial.funcs.len() as i64)),
                ("instrs", Value::Int(serial.instr_count() as i64)),
                ("serial_us", Value::Int(serial_us)),
                ("allocs", Value::Int(allocs as i64)),
                ("alloc_bytes", Value::Int(alloc_bytes as i64)),
            ]));
        }
    }

    let compile_section = Value::object(vec![
        ("smoke", Value::Bool(cfg.smoke)),
        ("reps", Value::Int(cfg.reps as i64)),
        (
            "scales",
            Value::Array(cfg.scales.iter().map(|&s| Value::Int(s as i64)).collect()),
        ),
        ("rows", Value::Array(rows)),
        ("serial_total_us", Value::Int(serial_total)),
        (
            "baseline_allocs_total",
            Value::Int(baseline_total as i64),
        ),
        ("measured_allocs_total", Value::Int(measured_total as i64)),
    ]);

    // Merge into the shared report file: keep every other section of an
    // existing `BENCH_alias_query.json` (bench-alias owns those) and
    // replace/append only `host` and `compile`.
    let existing = std::fs::read_to_string(&cfg.out).ok();
    let mut fields: Vec<(String, Value<'static>)> = Vec::new();
    if let Some(text) = &existing {
        if let Ok(Value::Object(entries)) = tbaa_server::json::parse(text) {
            for (k, v) in entries {
                if k != "compile" && k != "host" {
                    fields.push((k.into_owned(), v.into_owned()));
                }
            }
        }
    }
    fields.insert(0, ("host".to_string(), tbaa_bench::host::host_stamp()));
    fields.push(("compile".to_string(), compile_section));
    let report = Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (std::borrow::Cow::Owned(k), v))
            .collect(),
    );
    std::fs::write(&cfg.out, format!("{}\n", report.encode())).expect("write report");

    println!(
        "bench-compile: {} benches x {:?} scales",
        tbaa_benchsuite::suite().len(),
        cfg.scales
    );
    println!("  cold compile  {serial_total}us serial");
    if measured_total > 0 {
        println!(
            "  allocations   {measured_total} vs {baseline_total} baseline ({:.2}x)",
            measured_total as f64 / baseline_total.max(1) as f64
        );
    }
    println!("  report -> {}", cfg.out);

    if !alloc_gate_failures.is_empty() {
        for failure in &alloc_gate_failures {
            eprintln!("bench-compile: WARNING allocation regression: {failure}");
        }
        std::process::exit(1);
    }
}
