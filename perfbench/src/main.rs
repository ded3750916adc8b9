//! perfbench — the repository's benchmark.
//!
//! ```text
//! perfbench --workload query_warm|edit_ingest|paper_eval --seed N
//!           --seconds S --trace 0|1 --tbaad PATH --run-dir DIR
//! ```
//!
//! Each workload builds its inputs from the seed, sets up several times
//! (the median is `setup_s`), measures a closed loop or batch for `S`
//! seconds, then checks every output against an independent oracle
//! outside the timed window. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). Lines
//! before it give host provenance, the determinism digests, workload
//! details, the CPU time stolen from the host during the run and, for
//! traced runs, the traced run's end-to-end figures.
//! `perfbench/run.sh` builds this binary and `tbaad` and passes the two
//! path flags.

mod daemon;
mod edit_ingest;
mod measure;
mod paper_eval;
mod query_warm;
mod replay;
mod synth;
mod trace;
mod wire;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of
/// them; `BENCHMARK.json` holds their bounds.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics from the traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("bench.gen.busy_ms", "ms"),
    ("server.request.alias_mean_us", "us"),
    ("server.request.pairs_mean_us", "us"),
    ("server.request.rle_mean_us", "us"),
    ("server.request.load_mean_us", "us"),
    ("server.transport.alias_gap_us", "us"),
    ("server.decode.busy_ms", "ms"),
    ("server.sessions.hits", "count"),
    ("server.sessions.misses", "count"),
    ("server.sessions.evictions", "count"),
    ("server.engines.built", "count"),
    ("mini_m3.parse.busy_ms", "ms"),
    ("mini_m3.parse.kb_per_ms", "KB/ms"),
    ("mini_m3.check.busy_ms", "ms"),
    ("ir.lower.busy_ms", "ms"),
    ("ir.instrs", "count"),
    ("ir.aps", "count"),
    ("incr.compile.busy_ms", "ms"),
    ("incr.func_hits", "count"),
    ("incr.func_misses", "count"),
    ("incr.reuse_ratio", "ratio"),
    ("core.tbaa_build.busy_ms", "ms"),
    ("core.engine_compile.busy_ms", "ms"),
    ("core.engine.dense_ratio", "ratio"),
    ("core.may_alias.ns_per_query", "ns"),
    ("core.census.busy_ms", "ms"),
    ("core.census.fallback_pairs", "count"),
    ("opt.rle.busy_ms", "ms"),
    ("opt.rle.removed", "count"),
    ("opt.optimize.busy_ms", "ms"),
    ("opt.devirt.resolved", "count"),
    ("opt.inline.inlined", "count"),
    ("sim.run.busy_ms", "ms"),
    ("sim.run.minstr_s", "Minstr/s"),
    ("sim.trace.busy_ms", "ms"),
    ("sim.classify.busy_ms", "ms"),
    ("sim.cache.miss_ratio", "ratio"),
];

/// Named metric values; `put` accepts only declared names.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64) {
        let key = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .find(|n| *n == name)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        self.0.insert(key, value);
    }

    /// `{"name": {"value": v, "unit": u}, ...}` over `declared`, which
    /// must all be present and finite.
    fn render(&self, declared: &[(&str, &str)]) -> Result<String, String> {
        let mut parts = Vec::new();
        for (name, unit) in declared {
            let v = self
                .0
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite ({v})"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }

    /// One line `label {"name": value, ...}` over the given names.
    pub fn line(&self, label: &str, declared: &[(&str, &str)]) -> String {
        let body: Vec<String> = declared
            .iter()
            .filter_map(|(n, _)| self.0.get(n).map(|v| format!("\"{n}\": {v}")))
            .collect();
        format!("{label} {{{}}}", body.join(", "))
    }
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations issued: requests, or `paper_eval` rounds, plus the
    /// replayed programs a traced run checks.
    pub attempted: u64,
    /// Failed operations plus oracle mismatches.
    pub failed: u64,
    /// The first few mismatch descriptions.
    pub problems: Vec<String>,
    pub metrics: Metrics,
    /// Informational lines printed before the result.
    pub notes: Vec<String>,
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub env: daemon::Env,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    let mut i = 0;
    while i < argv.len() {
        let key = argv[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {}", argv[i]))?;
        let val = argv
            .get(i + 1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key.to_string(), val.clone());
        i += 2;
    }
    let get = |k: &str| map.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let seconds: f64 = get("seconds")?.parse().map_err(|_| "bad --seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: get("workload")?,
        seed: get("seed")?.parse().map_err(|_| "bad --seed")?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace takes 0 or 1".into()),
        },
        env: daemon::Env {
            tbaad: PathBuf::from(get("tbaad")?),
            run_dir: PathBuf::from(get("run-dir")?),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.env.run_dir) {
        eprintln!(
            "perfbench: cannot create {}: {e}",
            args.env.run_dir.display()
        );
        return ExitCode::FAILURE;
    }
    println!("{}", measure::host_line());
    let (steal0, total0) = measure::cpu_ticks();
    let result = match args.workload.as_str() {
        "query_warm" => query_warm::run(&args),
        "edit_ingest" => edit_ingest::run(&args),
        "paper_eval" => paper_eval::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for n in &out.notes {
        println!("{n}");
    }
    // Stolen CPU time during the run explains runs slower than their
    // neighbours on a shared host.
    let (steal1, total1) = measure::cpu_ticks();
    println!(
        "host_steal {{\"steal_pct\": {:.2}}}",
        100.0 * (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64
    );
    for p in &out.problems {
        eprintln!("perfbench: mismatch: {p}");
    }
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = match out.metrics.render(declared) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.attempted, out.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
