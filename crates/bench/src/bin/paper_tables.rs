//! `paper-tables` — prints every table and figure of the TBAA paper,
//! recomputed over the MiniM3 benchmark suite.
//!
//! ```text
//! paper-tables [table4|table5|table6|fig8|fig9|fig10|fig11|fig12|all]
//!              [--scale N] [--threads N] [--stats] [--json]
//! ```
//!
//! One shared [`tbaa_bench::Engine`] backs every table: each benchmark
//! is compiled once, analyses and optimized variants are memoized, and
//! rows are computed on a worker pool. `--threads 1` forces the serial
//! reference order; the printed bytes are identical either way.
//!
//! `--json` replaces the human tables with one JSON object per row
//! (newline-delimited, `"table"`-discriminated — see
//! `tbaa_bench::jsonout`), ready for `jq` or a plotting script.

use tbaa_bench as tb;
use tbaa_bench::jsonout;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which = "all".to_string();
    let mut scale = tb::DEFAULT_SCALE;
    let mut threads = None;
    let mut stats = false;
    let mut json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(tb::DEFAULT_SCALE);
            }
            "--threads" => {
                i += 1;
                threads = args.get(i).and_then(|s| s.parse().ok());
            }
            "--stats" => stats = true,
            "--json" => json = true,
            other => which = other.to_string(),
        }
        i += 1;
    }
    let engine = match threads {
        Some(n) => tb::Engine::with_threads(scale, n),
        None => tb::Engine::new(scale),
    };
    if json {
        print!("{}", jsonout::report(&engine, &which));
    } else {
        print!("{}", tb::render_report(&engine, &which));
    }
    if stats {
        let s = engine.stats();
        eprintln!(
            "engine: {} compiles, {} analyses, {} optimized variants, {} executions ({} threads)",
            s.compiles,
            s.analyses_built,
            s.variants_built,
            s.executions,
            engine.threads()
        );
    }
}
