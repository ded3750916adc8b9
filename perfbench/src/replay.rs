//! The traced run's in-process replay: a workload's seeded inputs sent
//! through each layer's public entry points, with a span around every
//! call. Nothing here is timed for the end-to-end metrics.

use std::collections::HashMap;
use std::sync::Arc;

use tbaa::analysis::{Level, Tbaa};
use tbaa::{census_alias_pairs, AliasAnalysis, CompiledAliasEngine, World};
use tbaa_incr::IncrCompiler;
use tbaa_ir::ir::Program;
use tbaa_ir::path::ApId;
use tbaa_opt::{optimize, run_rle, OptOptions};
use tbaa_sim::{classify_remaining, run, simulate, NullHook, RedundancyTrace, RunConfig};

use crate::trace::Tracer;
use crate::Metrics;

/// One loaded program and the engines built over it, like a daemon
/// session.
pub struct Session {
    pub program: Arc<Program>,
    paths: HashMap<String, ApId>,
    engines: HashMap<(Level, World), Arc<CompiledAliasEngine>>,
}

impl Session {
    pub fn resolve(&self, path: &str) -> ApId {
        *self
            .paths
            .get(path)
            .unwrap_or_else(|| panic!("replayed an unknown path {path}"))
    }
}

#[derive(Default)]
struct Counts {
    source_bytes: u64,
    instrs: u64,
    aps: u64,
    func_hits: u64,
    func_misses: u64,
    engines: u64,
    dense_engines: u64,
    queries: u64,
    fallback_pairs: u64,
    rle_removed: u64,
    devirt_resolved: u64,
    inlined: u64,
    sim_instrs: u64,
    cache_hits: u64,
    cache_misses: u64,
}

pub struct Replay {
    pub tracer: Tracer,
    incr: IncrCompiler,
    counts: Counts,
    /// Programs whose optimized output was compared with the original.
    pub checked: u64,
    /// Optimized programs whose output differed from the original.
    pub mismatches: Vec<String>,
}

impl Replay {
    pub fn new() -> Self {
        Replay {
            tracer: Tracer::new(),
            incr: IncrCompiler::new(),
            counts: Counts::default(),
            checked: 0,
            mismatches: Vec::new(),
        }
    }

    /// A `load`: the from-scratch front end and lowering, then the
    /// incremental compiler the daemon uses (its cache persists across
    /// loads, as the daemon's store-level cache does), then the default
    /// engine the daemon prewarms. One `replay.load` span holds the layer
    /// spans; its self time is the session's path index.
    pub fn load(&mut self, req: u64, source: &str) -> Session {
        let outer = self.tracer.enter("replay.load", req);
        let c = &mut self.counts;
        c.source_bytes += source.len() as u64;
        let tr = &mut self.tracer;
        let module = tr
            .span("mini_m3.parse", req, || mini_m3::parser::parse(source))
            .expect("replayed source parses");
        let checked = tr
            .span("mini_m3.check", req, || mini_m3::check::check(module))
            .expect("replayed source checks");
        let lowered = tr
            .span("ir.lower", req, || tbaa_ir::lower::lower(checked))
            .expect("replayed source lowers");
        drop(lowered);
        let incr = &self.incr;
        let (program, report) = tr.span("incr.compile", req, || incr.compile(source));
        let program = Arc::new(program.expect("replayed source compiles"));
        c.func_hits += report.func_hits;
        c.func_misses += report.func_misses;
        c.instrs += program.instr_count() as u64;
        c.aps += program.aps.len() as u64;
        let mut paths = HashMap::new();
        for (_f, ap, _store) in program.heap_ref_sites() {
            paths
                .entry(tbaa_ir::pretty::access_path(&program, ap))
                .or_insert(ap);
        }
        let mut s = Session {
            program,
            paths,
            engines: HashMap::new(),
        };
        self.engine(
            req,
            &mut s,
            tbaa_server::proto::DEFAULT_LEVEL,
            tbaa_server::proto::DEFAULT_WORLD,
        );
        self.tracer.exit(outer);
        s
    }

    /// The session's engine at `(level, world)`, built on first use.
    pub fn engine(
        &mut self,
        req: u64,
        s: &mut Session,
        level: Level,
        world: World,
    ) -> Arc<CompiledAliasEngine> {
        if let Some(e) = s.engines.get(&(level, world)) {
            return e.clone();
        }
        let prog = s.program.clone();
        let tr = &mut self.tracer;
        let tbaa = Arc::new(tr.span("core.tbaa_build", req, || Tbaa::build(&prog, level, world)));
        let engine = Arc::new(tr.span("core.engine_compile", req, || {
            CompiledAliasEngine::compile(&prog, tbaa)
        }));
        self.counts.engines += 1;
        if engine.stats().dense_pairs > 0 {
            self.counts.dense_engines += 1;
        }
        s.engines.insert((level, world), engine.clone());
        engine
    }

    pub fn alias(
        &mut self,
        req: u64,
        s: &mut Session,
        level: Level,
        world: World,
        pairs: &[(ApId, ApId)],
    ) -> u64 {
        let engine = self.engine(req, s, level, world);
        let aps = &s.program.aps;
        self.counts.queries += pairs.len() as u64;
        self.tracer.span("core.may_alias", req, || {
            pairs
                .iter()
                .filter(|(a, b)| engine.may_alias(aps, *a, *b))
                .count() as u64
        })
    }

    pub fn census(&mut self, req: u64, s: &mut Session, level: Level, world: World) {
        let engine = self.engine(req, s, level, world);
        let prog = s.program.clone();
        let report = self
            .tracer
            .span("core.census", req, || census_alias_pairs(&prog, &engine));
        self.counts.fallback_pairs += report.fallback_pairs;
    }

    pub fn rle(&mut self, req: u64, s: &mut Session, level: Level, world: World) {
        let engine = self.engine(req, s, level, world);
        let mut prog = (*s.program).clone();
        let stats = self
            .tracer
            .span("opt.rle", req, || run_rle(&mut prog, &*engine));
        self.counts.rle_removed += stats.removed() as u64;
    }

    pub fn decode(&mut self, req: u64, line: &str) {
        self.tracer.span("server.decode", req, || {
            tbaa_server::proto::decode_request(line).expect("replayed request decodes");
        });
    }

    /// The paper pipeline's back half over one program: the full
    /// optimizer, interpreter runs of the base and optimized programs
    /// (their outputs must agree), the cache model, the redundancy trace
    /// and its classification.
    pub fn evaluate(&mut self, req: u64, s: &Session) {
        let base = &*s.program;
        let full = OptOptions::full(Level::SmFieldTypeRefs);
        let mut opt = base.clone();
        let report = self
            .tracer
            .span("opt.optimize", req, || optimize(&mut opt, &full));
        self.counts.devirt_resolved += report.devirt.resolved as u64;
        self.counts.inlined += report.inline.inlined as u64;
        self.counts.rle_removed += report.rle.removed() as u64;
        let cfg = RunConfig::default();
        let tr = &mut self.tracer;
        let out_base = tr
            .span("sim.run", req, || run(base, &mut NullHook, cfg))
            .expect("replayed program runs");
        let out_opt = tr
            .span("sim.run", req, || run(&opt, &mut NullHook, cfg))
            .expect("replayed program runs");
        self.checked += 1;
        if out_base.output != out_opt.output {
            self.mismatches.push(format!(
                "replay {req}: optimized program printed a different output"
            ));
        }
        self.counts.sim_instrs += out_base.counts.instructions + out_opt.counts.instructions;
        let (_, cache, _) = tr
            .span("sim.cache", req, || simulate(base, cfg))
            .expect("replayed program runs");
        self.counts.cache_hits += cache.hits;
        self.counts.cache_misses += cache.misses;
        let rle_sm = OptOptions::rle_only(Level::SmFieldTypeRefs);
        let mut rle_prog = base.clone();
        optimize(&mut rle_prog, &rle_sm);
        let trace = tr.span("sim.trace", req, || {
            let mut t = RedundancyTrace::new();
            run(&rle_prog, &mut t, cfg).expect("replayed program runs");
            t
        });
        let analysis = Tbaa::build(base, Level::SmFieldTypeRefs, World::Closed);
        tr.span("sim.classify", req, || {
            classify_remaining(&mut rle_prog, &analysis, &trace)
        });
    }

    /// Fills every in-process per-layer metric.
    pub fn fill(&self, m: &mut Metrics) {
        let t = self.tracer.totals();
        let ms = |name: &str| t.get(name).map_or(0.0, |x| x.self_ns as f64 / 1e6);
        let c = &self.counts;
        let parse_ms = ms("mini_m3.parse");
        m.put("mini_m3.parse.busy_ms", parse_ms);
        m.put(
            "mini_m3.parse.kb_per_ms",
            c.source_bytes as f64 / 1024.0 / parse_ms.max(1e-9),
        );
        m.put("mini_m3.check.busy_ms", ms("mini_m3.check"));
        m.put("ir.lower.busy_ms", ms("ir.lower"));
        m.put("ir.instrs", c.instrs as f64);
        m.put("ir.aps", c.aps as f64);
        m.put("incr.compile.busy_ms", ms("incr.compile"));
        m.put("incr.func_hits", c.func_hits as f64);
        m.put("incr.func_misses", c.func_misses as f64);
        m.put(
            "incr.reuse_ratio",
            c.func_hits as f64 / (c.func_hits + c.func_misses).max(1) as f64,
        );
        m.put("core.tbaa_build.busy_ms", ms("core.tbaa_build"));
        m.put("core.engine_compile.busy_ms", ms("core.engine_compile"));
        m.put(
            "core.engine.dense_ratio",
            c.dense_engines as f64 / c.engines.max(1) as f64,
        );
        m.put(
            "core.may_alias.ns_per_query",
            ms("core.may_alias") * 1e6 / c.queries.max(1) as f64,
        );
        m.put("core.census.busy_ms", ms("core.census"));
        m.put("core.census.fallback_pairs", c.fallback_pairs as f64);
        m.put("opt.rle.busy_ms", ms("opt.rle"));
        m.put("opt.rle.removed", c.rle_removed as f64);
        m.put("opt.optimize.busy_ms", ms("opt.optimize"));
        m.put("opt.devirt.resolved", c.devirt_resolved as f64);
        m.put("opt.inline.inlined", c.inlined as f64);
        let run_ms = ms("sim.run");
        m.put("sim.run.busy_ms", run_ms);
        m.put(
            "sim.run.minstr_s",
            c.sim_instrs as f64 / 1e6 / (run_ms / 1e3).max(1e-12),
        );
        m.put("sim.trace.busy_ms", ms("sim.trace"));
        m.put("sim.classify.busy_ms", ms("sim.classify"));
        m.put(
            "sim.cache.miss_ratio",
            c.cache_misses as f64 / (c.cache_hits + c.cache_misses).max(1) as f64,
        );
        m.put("server.decode.busy_ms", ms("server.decode"));
    }
}
