//! The shared-compilation, parallel evaluation engine behind every table
//! and figure.
//!
//! The paper's evaluation runs the same ten benchmark programs through
//! compile → analyze → optimize → simulate for every metric. Re-doing
//! that from scratch per table wastes most of the wall-clock: Table 6,
//! Figures 8, 9, 10, 11 and 12 all want "the suite with RLE at level L",
//! and every figure wants the base program's simulated cycle count.
//!
//! An [`Engine`] therefore:
//!
//! * compiles each benchmark **once** per scale into an `Arc<Program>`;
//! * memoizes [`Tbaa::build`] results keyed by `(program, Level, World)`;
//! * memoizes optimized program variants keyed by their [`OptOptions`];
//! * memoizes one profiled interpreter run per program variant — its
//!   counters, cache statistics, cycles and redundancy trace come from a
//!   single pass (`tbaa_sim::profile`);
//! * fans row computations out across a scoped worker pool
//!   (`std::thread::scope` + an atomic work-stealing cursor), which is
//!   sound because `Program` and `Tbaa` are `Send + Sync` and every
//!   query API takes `&self`.
//!
//! All caches hand out `Arc`s, so repeated lookups are pointer-equal and
//! a table costs at most one compile / analysis / simulation per key no
//! matter how many threads race for it (the shared [`tbaa::memo::Memo`]
//! makes the build exactly-once per key; the `tbaad` server's session
//! cache uses the same implementation). Results are byte-for-byte
//! identical to the
//! single-threaded order because rows are reassembled in suite order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use tbaa::analysis::{Level, Tbaa};
use tbaa::memo::Memo;
use tbaa::{census_alias_pairs, CompiledAliasEngine, World};
use tbaa_benchsuite::{suite, Benchmark};
use tbaa_ir::ir::Program;
use tbaa_opt::rle::run_rle;
use tbaa_opt::{optimize, OptOptions, OptReport};
use tbaa_sim::interp::RunConfig;
use tbaa_sim::{classify_remaining, profile, Profile};

use crate::{
    Fig10Row, Fig9Row, RuntimeRow, Table4Row, Table5Row, Table6Row,
};
use tbaa::AliasPairCounts;
use tbaa_sim::LimitResult;

/// Which variant of a benchmark program a dynamic metric refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Variant {
    /// The program as compiled.
    Base,
    /// The program after `optimize` with these options.
    Optimized(OptOptions),
}

/// Cache-hit / build statistics for one [`Engine`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Programs actually compiled (distinct benchmarks touched).
    pub compiles: usize,
    /// `Tbaa::build` invocations that were cache misses.
    pub analyses_built: usize,
    /// Compiled query engines materialized.
    pub engines_compiled: usize,
    /// Optimized program variants materialized.
    pub variants_built: usize,
    /// Profiled interpreter runs (one per program variant).
    pub executions: usize,
}

/// The shared-compilation evaluation engine. See the module docs.
pub struct Engine {
    scale: u32,
    threads: usize,
    programs: Memo<&'static str, Program>,
    analyses: Memo<(&'static str, Level, World), Tbaa>,
    compiled: Memo<(&'static str, Level, World), CompiledAliasEngine>,
    optimized: Memo<(&'static str, OptOptions), (Program, OptReport)>,
    profiles: Memo<(&'static str, Variant), Profile>,
    compiles: AtomicUsize,
    analyses_built: AtomicUsize,
    engines_compiled: AtomicUsize,
    variants_built: AtomicUsize,
    executions: AtomicUsize,
}

impl Engine {
    /// An engine over the suite at `scale`, fanning out over all
    /// available cores.
    pub fn new(scale: u32) -> Self {
        Self::with_threads(scale, tbaa::host_cores())
    }

    /// An engine with an explicit worker count (`1` forces the serial
    /// reference order; the output is identical either way).
    pub fn with_threads(scale: u32, threads: usize) -> Self {
        Engine {
            scale,
            threads: threads.max(1),
            programs: Memo::new(),
            analyses: Memo::new(),
            compiled: Memo::new(),
            optimized: Memo::new(),
            profiles: Memo::new(),
            compiles: AtomicUsize::new(0),
            analyses_built: AtomicUsize::new(0),
            engines_compiled: AtomicUsize::new(0),
            variants_built: AtomicUsize::new(0),
            executions: AtomicUsize::new(0),
        }
    }

    /// The workload scale the engine compiles at.
    pub fn scale(&self) -> u32 {
        self.scale
    }

    /// The worker count used for fan-out.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// How many programs this engine has compiled so far. With the memo
    /// cache working, this never exceeds the number of distinct
    /// benchmarks touched — regardless of thread count.
    pub fn compile_count(&self) -> usize {
        self.compiles.load(Ordering::Relaxed)
    }

    /// Build/exec statistics so far.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            compiles: self.compiles.load(Ordering::Relaxed),
            analyses_built: self.analyses_built.load(Ordering::Relaxed),
            engines_compiled: self.engines_compiled.load(Ordering::Relaxed),
            variants_built: self.variants_built.load(Ordering::Relaxed),
            executions: self.executions.load(Ordering::Relaxed),
        }
    }

    // ---- memoized artifacts ------------------------------------------------

    /// The benchmark compiled once at the engine's scale.
    pub fn program(&self, b: &Benchmark) -> Arc<Program> {
        self.programs.get_or_build(b.name, || {
            self.compiles.fetch_add(1, Ordering::Relaxed);
            b.compile(self.scale).expect("suite compiles")
        })
    }

    /// The alias analysis for the benchmark's *base* program, built once
    /// per `(program, level, world)`.
    pub fn analysis(&self, b: &Benchmark, level: Level, world: World) -> Arc<Tbaa> {
        let prog = self.program(b);
        self.analyses.get_or_build((b.name, level, world), || {
            self.analyses_built.fetch_add(1, Ordering::Relaxed);
            Tbaa::build(&prog, level, world)
        })
    }

    /// The compiled query engine over the benchmark's *base* program,
    /// built once per `(program, level, world)` on top of the memoized
    /// analysis. Alias-pair enumeration queries this instead of the
    /// naive path walk; answers are identical.
    pub fn compiled(&self, b: &Benchmark, level: Level, world: World) -> Arc<CompiledAliasEngine> {
        let prog = self.program(b);
        let analysis = self.analysis(b, level, world);
        self.compiled.get_or_build((b.name, level, world), || {
            self.engines_compiled.fetch_add(1, Ordering::Relaxed);
            CompiledAliasEngine::compile(&prog, analysis)
        })
    }

    /// The benchmark optimized under `opts`, plus the pass report. The
    /// base compile is shared; the clone-then-optimize result is cached
    /// per options value.
    pub fn optimized(&self, b: &Benchmark, opts: OptOptions) -> Arc<(Program, OptReport)> {
        self.optimized.get_or_build((b.name, opts), || {
            self.variants_built.fetch_add(1, Ordering::Relaxed);
            let mut prog = (*self.program(b)).clone();
            let report = if !opts.devirt_inline && !opts.copy_propagation && !opts.dead_store_elimination {
                // Pure-RLE configurations consult the analysis on the
                // unmodified program — exactly the memoized one.
                let analysis = self.analysis(b, opts.level, opts.world);
                let mut report = OptReport::default();
                if opts.rle {
                    report.rle = run_rle(&mut prog, &*analysis);
                }
                report
            } else {
                // Multi-pass configurations rebuild the analysis between
                // passes on the evolving program; defer to the canonical
                // pipeline for fidelity.
                optimize(&mut prog, &opts)
            };
            (prog, report)
        })
    }

    /// Counters, cache statistics, cycles and redundancy trace of a
    /// program variant, from one interpreter run.
    fn profile(&self, b: &Benchmark, v: Variant) -> Arc<Profile> {
        self.profiles.get_or_build((b.name, v), || {
            self.executions.fetch_add(1, Ordering::Relaxed);
            let run = |p: &Program| profile(p, RunConfig::default()).expect("suite runs");
            match v {
                Variant::Base => run(&self.program(b)),
                Variant::Optimized(opts) => run(&self.optimized(b, opts).0),
            }
        })
    }

    // ---- the parallel driver ----------------------------------------------

    /// Maps `f` over `items` on the engine's worker pool. Workers claim
    /// items through a shared atomic cursor (cheap work stealing: a fast
    /// worker drains whatever a slow one has not claimed); results are
    /// reassembled in input order, so the output is independent of the
    /// schedule.
    fn par_map<'a, T, R, F>(&self, items: &'a [T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        let workers = self.threads.min(items.len());
        if workers <= 1 {
            return items.iter().map(f).collect();
        }
        let cursor = AtomicUsize::new(0);
        let done = Mutex::new(Vec::with_capacity(items.len()));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    let r = f(item);
                    done.lock().expect("worker poisoned").push((i, r));
                });
            }
        });
        let mut out = done.into_inner().expect("worker poisoned");
        out.sort_by_key(|&(i, _)| i);
        out.into_iter().map(|(_, r)| r).collect()
    }

    fn non_interactive() -> Vec<&'static Benchmark> {
        suite().iter().filter(|b| !b.interactive).collect()
    }

    // ---- tables and figures ------------------------------------------------

    /// Table 4 — benchmark description (lines, instructions, load mix).
    pub fn table4(&self) -> Vec<Table4Row> {
        let all: Vec<&Benchmark> = suite().iter().collect();
        self.par_map(&all, |b| {
            let (instructions, heap, other) = if b.interactive {
                (None, None, None)
            } else {
                let counts = self.profile(b, Variant::Base).counts;
                (
                    Some(counts.instructions),
                    Some(counts.heap_load_pct()),
                    Some(counts.other_load_pct()),
                )
            };
            Table4Row {
                name: b.name,
                lines: b.loc(),
                instructions,
                heap_load_pct: heap,
                other_load_pct: other,
                about: b.about,
            }
        })
    }

    /// Table 5 — static alias pairs per analysis (all ten programs).
    pub fn table5(&self) -> Vec<Table5Row> {
        let all: Vec<&Benchmark> = suite().iter().collect();
        self.par_map(&all, |b| {
            let prog = self.program(b);
            let mut by_level = [AliasPairCounts::default(); 3];
            for (i, level) in Level::ALL.iter().enumerate() {
                let engine = self.compiled(b, *level, World::Closed);
                by_level[i] = census_alias_pairs(&prog, &engine).counts;
            }
            Table5Row {
                name: b.name,
                references: by_level[0].references,
                by_level,
            }
        })
    }

    /// Table 6 — redundant loads removed statically (non-interactive
    /// programs).
    pub fn table6(&self) -> Vec<Table6Row> {
        let items = Self::non_interactive();
        self.par_map(&items, |b| {
            let mut removed = [0usize; 3];
            for (i, level) in Level::ALL.iter().enumerate() {
                let opt = self.optimized(b, OptOptions::rle_only(*level));
                removed[i] = opt.1.rle.removed();
            }
            Table6Row {
                name: b.name,
                removed,
            }
        })
    }

    /// Figure 8 — simulated run time of RLE per analysis level,
    /// normalized to the unoptimized program (100).
    pub fn fig8(&self) -> Vec<RuntimeRow> {
        let items = Self::non_interactive();
        self.par_map(&items, |b| {
            let base_cycles = self.profile(b, Variant::Base).cycles;
            let mut pct = Vec::new();
            for level in Level::ALL {
                let c = self
                    .profile(b, Variant::Optimized(OptOptions::rle_only(level)))
                    .cycles;
                pct.push(100.0 * c / base_cycles);
            }
            RuntimeRow {
                name: b.name,
                pct,
                labels: vec![
                    "Types only",
                    "Types and fields",
                    "Types, fields, and merges",
                ],
            }
        })
    }

    /// Figure 9 — dynamic redundancy before/after TBAA + RLE.
    pub fn fig9(&self) -> Vec<Fig9Row> {
        let items = Self::non_interactive();
        let sm = OptOptions::rle_only(Level::SmFieldTypeRefs);
        self.par_map(&items, |b| {
            let t_base = &self.profile(b, Variant::Base).trace;
            let t_opt = &self.profile(b, Variant::Optimized(sm)).trace;
            Fig9Row {
                name: b.name,
                limit: LimitResult {
                    original_heap_loads: t_base.heap_loads,
                    redundant_original: t_base.redundant,
                    optimized_heap_loads: t_opt.heap_loads,
                    redundant_after: t_opt.redundant,
                },
            }
        })
    }

    /// Figure 10 — sources of the redundancy remaining after RLE.
    pub fn fig10(&self) -> Vec<Fig10Row> {
        let items = Self::non_interactive();
        let sm = OptOptions::rle_only(Level::SmFieldTypeRefs);
        self.par_map(&items, |b| {
            let base_heap_loads = self.profile(b, Variant::Base).trace.heap_loads;
            let trace = &self.profile(b, Variant::Optimized(sm)).trace;
            let analysis = self.analysis(b, Level::SmFieldTypeRefs, World::Closed);
            // `classify_remaining` interns shadow access paths, so it
            // needs its own mutable copy of the optimized program.
            let mut opt = self.optimized(b, sm).0.clone();
            let breakdown = classify_remaining(&mut opt, &analysis, trace);
            Fig10Row {
                name: b.name,
                breakdown,
                original_heap_loads: base_heap_loads,
            }
        })
    }

    /// Figure 11 — cumulative impact of RLE, Minv+Inlining, and both.
    pub fn fig11(&self) -> Vec<RuntimeRow> {
        let items = Self::non_interactive();
        let rle = OptOptions::rle_only(Level::SmFieldTypeRefs);
        let minv = {
            let mut o = OptOptions::full(Level::SmFieldTypeRefs);
            o.rle = false;
            o
        };
        let full = OptOptions::full(Level::SmFieldTypeRefs);
        self.par_map(&items, |b| {
            let base_cycles = self.profile(b, Variant::Base).cycles;
            let pct = [rle, minv, full]
                .into_iter()
                .map(|o| 100.0 * self.profile(b, Variant::Optimized(o)).cycles / base_cycles)
                .collect();
            RuntimeRow {
                name: b.name,
                pct,
                labels: vec!["RLE", "Minv+Inlining", "RLE+Minv+Inlining"],
            }
        })
    }

    /// Figure 12 — RLE under the closed- vs open-world assumption.
    pub fn fig12(&self) -> Vec<RuntimeRow> {
        let items = Self::non_interactive();
        self.par_map(&items, |b| {
            let base_cycles = self.profile(b, Variant::Base).cycles;
            let mut pct = Vec::new();
            for world in [World::Closed, World::Open] {
                let mut opts = OptOptions::rle_only(Level::SmFieldTypeRefs);
                opts.world = world;
                let c = self.profile(b, Variant::Optimized(opts)).cycles;
                pct.push(100.0 * c / base_cycles);
            }
            RuntimeRow {
                name: b.name,
                pct,
                labels: vec!["RLE", "RLE Open"],
            }
        })
    }

    /// Static open-world alias-pair comparison (§4, around Figure 12).
    pub fn open_world_pairs(&self) -> Vec<(String, AliasPairCounts, AliasPairCounts)> {
        let all: Vec<&Benchmark> = suite().iter().collect();
        self.par_map(&all, |b| {
            let prog = self.program(b);
            let closed = self.compiled(b, Level::SmFieldTypeRefs, World::Closed);
            let open = self.compiled(b, Level::SmFieldTypeRefs, World::Open);
            (
                b.name.to_string(),
                census_alias_pairs(&prog, &closed).counts,
                census_alias_pairs(&prog, &open).counts,
            )
        })
    }
}

// The engine shares these across worker threads; keep the guarantee
// visible at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Program>();
    assert_send_sync::<Tbaa>();
    assert_send_sync::<CompiledAliasEngine>();
    assert_send_sync::<OptReport>();
    assert_send_sync::<Profile>();
    assert_send_sync::<Engine>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn bench(name: &str) -> &'static Benchmark {
        Benchmark::by_name(name).expect("exists")
    }

    #[test]
    fn program_cache_returns_same_arc() {
        let e = Engine::with_threads(1, 1);
        let b = bench("ktree");
        let p1 = e.program(b);
        let p2 = e.program(b);
        assert!(Arc::ptr_eq(&p1, &p2), "memo must share one compile");
        assert_eq!(e.compile_count(), 1);
    }

    #[test]
    fn analysis_cache_returns_same_arc_per_key() {
        let e = Engine::with_threads(1, 1);
        let b = bench("ktree");
        let a1 = e.analysis(b, Level::SmFieldTypeRefs, World::Closed);
        let a2 = e.analysis(b, Level::SmFieldTypeRefs, World::Closed);
        assert!(Arc::ptr_eq(&a1, &a2));
        let open = e.analysis(b, Level::SmFieldTypeRefs, World::Open);
        assert!(!Arc::ptr_eq(&a1, &open), "distinct keys are distinct entries");
        assert_eq!(e.stats().analyses_built, 2);
        assert_eq!(e.compile_count(), 1, "analyses share one compile");
    }

    #[test]
    fn optimized_cache_shares_across_consumers() {
        let e = Engine::with_threads(1, 1);
        let b = bench("format");
        let o1 = e.optimized(b, OptOptions::rle_only(Level::SmFieldTypeRefs));
        let o2 = e.optimized(b, OptOptions::rle_only(Level::SmFieldTypeRefs));
        assert!(Arc::ptr_eq(&o1, &o2));
        assert_eq!(e.stats().variants_built, 1);
    }

    #[test]
    fn parallel_compiles_each_program_exactly_once() {
        let e = Engine::with_threads(1, 8);
        let nonce: Vec<&Benchmark> = suite().iter().collect();
        // Hammer the same programs from 8 workers.
        let progs = e.par_map(&nonce, |b| e.program(b));
        assert_eq!(progs.len(), suite().len());
        assert_eq!(e.compile_count(), suite().len());
        // And the returned Arcs are the cached ones.
        for (b, p) in nonce.iter().zip(&progs) {
            assert!(Arc::ptr_eq(p, &e.program(b)));
        }
    }

    #[test]
    fn par_map_preserves_input_order() {
        let e = Engine::with_threads(1, 4);
        let items: Vec<usize> = (0..64).collect();
        let out = e.par_map(&items, |&i| i * 2);
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }
}
