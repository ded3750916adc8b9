//! The timing model.
//!
//! The paper reports *simulated* execution times on a DEC Alpha 3000-500
//! (21064) normalized to the unoptimized program. We reproduce the shape
//! with a simple in-order dual-issue model fed by the interpreter's
//! counters and a direct-mapped cache:
//!
//! ```text
//! cycles = instructions · CPI_BASE
//!        + loads · LOAD_EXTRA          (load-use latency not covered by CPI)
//!        + load misses · MISS_PENALTY
//!        + stores · STORE_COST         (write buffer)
//! ```
//!
//! Removing a (hitting) heap load saves roughly `CPI_BASE + LOAD_EXTRA`
//! cycles, which is what makes RLE's few-percent improvements come out at
//! the paper's scale.

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::interp::{ExecCounts, MemEvent, MemHook};
use crate::trace::RedundancyTrace;

/// Base cycles per instruction (dual issue ⇒ below 1.0).
pub const CPI_BASE: f64 = 0.75;
/// Extra cycles per load beyond the base CPI (21064 load-use latency).
pub const LOAD_EXTRA: f64 = 1.5;
/// Cycles per primary-cache load miss.
pub const MISS_PENALTY: f64 = 20.0;
/// Cycles per store (write-through buffer).
pub const STORE_COST: f64 = 0.5;

/// A [`MemHook`] that drives the cache with every memory reference.
#[derive(Debug, Default)]
pub struct CacheHook {
    /// The simulated data cache.
    pub cache: Cache,
}

impl CacheHook {
    /// Creates a hook over a cache with the given configuration.
    pub fn new(config: CacheConfig) -> Self {
        CacheHook {
            cache: Cache::new(config),
        }
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats
    }
}

impl MemHook for CacheHook {
    fn access(&mut self, ev: &MemEvent<'_>) {
        if ev.is_load {
            self.cache.load(ev.addr);
        } else {
            self.cache.store(ev.addr);
        }
    }
}

/// Converts counters plus cache statistics into simulated cycles.
pub fn cycles(counts: &ExecCounts, cache: &CacheStats) -> f64 {
    let loads = counts.heap_loads + counts.other_loads;
    let stores = counts.heap_stores + counts.other_stores;
    counts.instructions as f64 * CPI_BASE
        + loads as f64 * LOAD_EXTRA
        + cache.misses as f64 * MISS_PENALTY
        + stores as f64 * STORE_COST
}

/// Everything the evaluation reads from one execution of a program
/// variant.
#[derive(Debug)]
pub struct Profile {
    /// Instruction and memory-reference counters.
    pub counts: ExecCounts,
    /// Data-cache statistics under the default geometry.
    pub cache: CacheStats,
    /// Simulated cycles ([`cycles`] of the two above).
    pub cycles: f64,
    /// The §3.5 redundancy trace.
    pub trace: RedundancyTrace,
}

/// Runs a program once, driving the cache model and the redundancy trace
/// from the same event stream. The result equals what [`simulate`] and a
/// separate [`RedundancyTrace`] run report.
///
/// # Errors
///
/// Propagates interpreter runtime errors.
pub fn profile(
    prog: &tbaa_ir::Program,
    config: crate::interp::RunConfig,
) -> Result<Profile, crate::interp::RuntimeError> {
    let mut hooks = (CacheHook::default(), RedundancyTrace::new());
    let outcome = crate::interp::run(prog, &mut hooks, config)?;
    let (cache, trace) = hooks;
    let cache = cache.stats();
    Ok(Profile {
        cycles: cycles(&outcome.counts, &cache),
        counts: outcome.counts,
        cache,
        trace,
    })
}

/// Runs a program under the cache hook and returns `(counts, cache stats,
/// cycles)`.
///
/// # Errors
///
/// Propagates interpreter runtime errors.
pub fn simulate(
    prog: &tbaa_ir::Program,
    config: crate::interp::RunConfig,
) -> Result<(ExecCounts, CacheStats, f64), crate::interp::RuntimeError> {
    let mut hook = CacheHook::default();
    let outcome = crate::interp::run(prog, &mut hook, config)?;
    let stats = hook.stats();
    let c = cycles(&outcome.counts, &stats);
    Ok((outcome.counts, stats, c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::RunConfig;
    use tbaa::analysis::{Level, Tbaa};
    use tbaa::World;
    use tbaa_ir::compile_to_ir;

    #[test]
    fn cycles_scale_with_work() {
        let small = compile_to_ir(
            "MODULE M; VAR s: INTEGER;
             BEGIN FOR i := 1 TO 10 DO s := s + i END; END M.",
        )
        .unwrap();
        let large = compile_to_ir(
            "MODULE M; VAR s: INTEGER;
             BEGIN FOR i := 1 TO 1000 DO s := s + i END; END M.",
        )
        .unwrap();
        let (_, _, c_small) = simulate(&small, RunConfig::default()).unwrap();
        let (_, _, c_large) = simulate(&large, RunConfig::default()).unwrap();
        assert!(c_large > c_small * 10.0);
    }

    #[test]
    fn rle_reduces_cycles_figure_8_shape() {
        let src = "MODULE M;
             TYPE T = OBJECT f: INTEGER; n: T; END;
             VAR h: T; s: INTEGER;
             BEGIN
               h := NEW(T); h.n := NEW(T);
               h.f := 3; h.n.f := 4;
               s := 0;
               FOR i := 1 TO 2000 DO
                 s := s + h.f + h.n.f;
               END;
               PRINTI(s);
             END M.";
        let base = compile_to_ir(src).unwrap();
        let (_, _, c_base) = simulate(&base, RunConfig::default()).unwrap();
        let mut opt = compile_to_ir(src).unwrap();
        let analysis = Tbaa::build(&opt, Level::SmFieldTypeRefs, World::Closed);
        tbaa_opt::rle::run_rle(&mut opt, &analysis);
        let (_, _, c_opt) = simulate(&opt, RunConfig::default()).unwrap();
        let pct = 100.0 * c_opt / c_base;
        assert!(
            pct < 100.0,
            "optimized program should be faster: {pct:.1}% of base"
        );
        assert!(
            pct > 30.0,
            "a loop this load-heavy improves a lot, but not absurdly: {pct:.1}%"
        );
    }

    #[test]
    fn cache_locality_matters() {
        // Sequential traversal of a large array mostly hits after the
        // first touch of each line.
        let prog = compile_to_ir(
            "MODULE M;
             TYPE A = ARRAY OF INTEGER;
             VAR a: A; s: INTEGER;
             BEGIN
               a := NEW(A, 2000);
               FOR i := 0 TO 1999 DO a[i] := i END;
               FOR i := 0 TO 1999 DO s := s + a[i] END;
             END M.",
        )
        .unwrap();
        let (_, stats, _) = simulate(&prog, RunConfig::default()).unwrap();
        assert!(
            stats.miss_ratio() < 0.5,
            "sequential access has locality: {:?}",
            stats
        );
    }
}
