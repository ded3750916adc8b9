//! `paper_eval`: the paper's evaluation as an in-process batch, no
//! daemon, at most `available_parallelism()` worker threads.
//!
//! A round is one *suite job* — every table and figure (Tables 4–6,
//! Figures 8–12 and the open-world pair census) over the ten benchsuite
//! programs at scale 4 on a fresh evaluation engine — then fifteen *size
//! jobs*: seeded synthetic programs at ×1, ×4 and ×16 (five each), each
//! compiled, analysed at all 3 levels × 2 worlds with engine and census,
//! then RLE-optimized and simulated, on the worker pool. The window runs
//! whole rounds and every round is one operation: a round of seconds
//! shrugs off host jitter that moves a 15 ms job by a third. Peak memory
//! is the median over rounds of the process's peak resident set during
//! the round.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tbaa::analysis::{Level, Tbaa};
use tbaa::{
    census_alias_pairs_with_threads, count_alias_pairs_rows, AliasPairCounts, CompiledAliasEngine,
    World,
};
use tbaa_bench::load::{Content, DiffChecker, ReqKind};
use tbaa_bench::rng::XorShift64;
use tbaa_bench::{
    render_fig10, render_fig9, render_runtime, render_table4, render_table5, render_table6, Engine,
};
use tbaa_benchsuite::{suite, Benchmark};
use tbaa_ir::ir::Program;
use tbaa_opt::{optimize, run_rle, OptOptions};
use tbaa_sim::{simulate, NullHook, RunConfig};

use crate::daemon::Daemon;
use crate::measure::{
    geomean, median, peak_rss_mb, reset_peak_rss, secs, trim_heap, Digest, Samples,
};
use crate::replay::Replay;
use crate::synth;
use crate::wire::{alias_line, loaded_sid, query_line, server_metrics, StatsPhases, COMBOS};
use crate::{Args, Metrics, Outcome, END_TO_END};

/// Benchsuite input scale (the tables' default is 2).
const SCALE: u32 = 4;
const SIZES: [usize; 3] = [1, 4, 16];
const PER_SIZE: usize = 5;
const SETUPS: usize = 11;

fn corpus(seed: u64) -> Vec<synth::Program> {
    let mut rng = XorShift64::new(seed ^ 0x7061_7065_725f_6576); // "paper_ev"
    SIZES
        .iter()
        .flat_map(|&size| (0..PER_SIZE).map(move |_| size))
        .map(|size| synth::generate(rng.next_u64(), size))
        .collect()
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What one suite job produced.
struct SuiteOut {
    text: String,
    table5: Vec<(&'static str, [AliasPairCounts; 3])>,
    open: Vec<(String, AliasPairCounts, AliasPairCounts)>,
    rle_ratio: f64,
}

fn suite_job() -> SuiteOut {
    let e = Engine::with_threads(SCALE, threads());
    let t5 = e.table5();
    let f8 = e.fig8();
    let open = e.open_world_pairs();
    let mut text = String::new();
    text.push_str(&render_table4(&e.table4()));
    text.push_str(&render_table5(&t5));
    text.push_str(&render_table6(&e.table6()));
    text.push_str(&render_runtime("Figure 8", &f8));
    text.push_str(&render_fig9(&e.fig9()));
    text.push_str(&render_fig10(&e.fig10()));
    text.push_str(&render_runtime("Figure 11", &e.fig11()));
    text.push_str(&render_runtime("Figure 12", &e.fig12()));
    text.push_str(&format!("{open:?}\n"));
    // Figure 8's last column: RLE at SMFieldTypeRefs over the base.
    let rle_ratio = geomean(&f8.iter().map(|r| r.pct[2] / 100.0).collect::<Vec<_>>());
    SuiteOut {
        text,
        table5: t5.iter().map(|r| (r.name, r.by_level)).collect(),
        open,
        rle_ratio,
    }
}

/// What one size job produced.
#[derive(Debug, Clone, PartialEq)]
struct SizeOut {
    census: Vec<AliasPairCounts>,
    removed: usize,
    cycles: (f64, f64),
}

fn size_job(source: &str) -> SizeOut {
    let prog = tbaa_ir::compile_to_ir(source).expect("synthetic program compiles");
    let mut census = Vec::new();
    let mut sm = None;
    for (level, world) in COMBOS {
        let tbaa = Arc::new(Tbaa::build(&prog, level, world));
        let engine = CompiledAliasEngine::compile_with_threads(&prog, tbaa, 1);
        census.push(census_alias_pairs_with_threads(&prog, &engine, 1).counts);
        if (level, world) == (Level::SmFieldTypeRefs, World::Closed) {
            sm = Some(engine);
        }
    }
    let mut rle = prog.clone();
    let removed = run_rle(&mut rle, &sm.expect("SM engine")).removed();
    let cfg = RunConfig::default();
    let (_, _, base) = simulate(&prog, cfg).expect("synthetic program runs");
    let (_, _, opt) = simulate(&rle, cfg).expect("optimized program runs");
    SizeOut {
        census,
        removed,
        cycles: (base, opt),
    }
}

/// One round: the suite job, then the size jobs on the worker pool.
/// Returns when each part started and how long it took, and the outputs.
fn round(sources: &[String]) -> ([(Instant, Duration); 2], SuiteOut, Vec<SizeOut>) {
    let t0 = Instant::now();
    let suite_out = suite_job();
    let t1 = Instant::now();
    let cursor = AtomicUsize::new(0);
    let done = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..threads().min(sources.len()) {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(src) = sources.get(i) else { break };
                let out = size_job(src);
                done.lock().expect("job lock").push((i, out));
            });
        }
    });
    let parts = [(t0, t1 - t0), (t1, t1.elapsed())];
    let mut jobs = done.into_inner().expect("job lock");
    jobs.sort_by_key(|j| j.0);
    (parts, suite_out, jobs.into_iter().map(|j| j.1).collect())
}

fn output_digest(s: &SuiteOut, sizes: &[SizeOut]) -> String {
    let mut d = Digest::default();
    d.add(s.text.as_bytes());
    for j in sizes {
        d.add(format!("{j:?}").as_bytes());
    }
    d.hex()
}

fn input_digest(seed: u64) -> String {
    let mut d = Digest::default();
    for b in suite() {
        d.add(b.source_at_scale(SCALE).as_bytes());
    }
    for p in corpus(seed) {
        d.add(p.source().as_bytes());
    }
    d.hex()
}

/// Naive-oracle census of a program at `(level, world)`.
fn naive_census(prog: &Program, level: Level, world: World) -> AliasPairCounts {
    let naive = Tbaa::build(prog, level, world);
    count_alias_pairs_rows(prog, &prog.heap_ref_rows(), &naive, threads())
}

fn output_of(prog: &Program) -> String {
    tbaa_sim::run(prog, &mut NullHook, RunConfig::default())
        .expect("program runs")
        .output
}

/// Checks one round's outputs: census counts against the naive
/// analysis, and every optimized program's output against the
/// unoptimized one. Returns mismatch descriptions.
fn verify(sources: &[String], s: &SuiteOut, sizes: &[SizeOut]) -> Vec<String> {
    let mut bad = Vec::new();
    for (b, (name, by_level)) in suite().iter().zip(&s.table5) {
        let prog = b.compile(SCALE).expect("suite compiles");
        for (i, level) in Level::ALL.iter().enumerate() {
            if naive_census(&prog, *level, World::Closed) != by_level[i] {
                bad.push(format!(
                    "table 5 {name} {level:?}: census differs from the naive analysis"
                ));
            }
        }
        let (_, closed, open) = &s.open[s.open.iter().position(|o| o.0 == b.name).expect("row")];
        if naive_census(&prog, Level::SmFieldTypeRefs, World::Closed) != *closed
            || naive_census(&prog, Level::SmFieldTypeRefs, World::Open) != *open
        {
            bad.push(format!(
                "open-world census of {name} differs from the naive analysis"
            ));
        }
        if b.interactive {
            continue;
        }
        let want = output_of(&prog);
        let mut variants: Vec<OptOptions> = Level::ALL
            .iter()
            .map(|&l| OptOptions::rle_only(l))
            .collect();
        variants.push(OptOptions::full(Level::SmFieldTypeRefs));
        let mut open = OptOptions::rle_only(Level::SmFieldTypeRefs);
        open.world = World::Open;
        variants.push(open);
        for opts in variants {
            let mut p = prog.clone();
            optimize(&mut p, &opts);
            if output_of(&p) != want {
                bad.push(format!(
                    "{name} optimized under {opts:?} prints a different output"
                ));
            }
        }
    }
    for (src, out) in sources.iter().zip(sizes) {
        let prog = tbaa_ir::compile_to_ir(src).expect("synthetic program compiles");
        for ((level, world), got) in COMBOS.iter().zip(&out.census) {
            if naive_census(&prog, *level, *world) != *got {
                bad.push(format!(
                    "size job census at {level:?}/{world:?} differs from the naive analysis"
                ));
            }
        }
        let mut rle = prog.clone();
        run_rle(
            &mut rle,
            &Tbaa::build(&prog, Level::SmFieldTypeRefs, World::Closed),
        );
        if output_of(&rle) != output_of(&prog) {
            bad.push("a size job's RLE output differs from the unoptimized output".into());
        }
    }
    bad
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Set-up: generate the seeded corpus and compile each program once.
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut sources = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        sources = corpus(args.seed)
            .iter()
            .map(synth::Program::source)
            .collect();
        for s in &sources {
            tbaa_ir::compile_to_ir(s)
                .map_err(|e| format!("corpus program does not compile: {e}"))?;
        }
        for b in suite() {
            b.compile(SCALE)
                .map_err(|e| format!("{} does not compile: {e}", b.name))?;
        }
        setup_times.push(secs(t0));
    }

    let mut rp = args.trace.then(Replay::new);
    let mut lat = Samples::default();
    let mut suite_s = Vec::new();
    let mut sizes_s = Vec::new();
    let mut digests = Vec::new();
    let mut peaks = Vec::new();
    let mut first = None;
    let started = Instant::now();
    while first.is_none() || secs(started) < args.seconds {
        trim_heap();
        reset_peak_rss();
        let ([(t0, suite), (t1, sizes_d)], suite_out, sizes) = round(&sources);
        peaks.push(peak_rss_mb("self"));
        if let Some(rp) = rp.as_mut() {
            let r = digests.len() as u64;
            rp.tracer.record("bench.eval.suite", r, t0, t0 + suite);
            rp.tracer.record("bench.eval.sizes", r, t1, t1 + sizes_d);
        }
        lat.push(suite + sizes_d);
        suite_s.push(suite.as_secs_f64());
        sizes_s.push(sizes_d.as_secs_f64());
        digests.push(output_digest(&suite_out, &sizes));
        if first.is_none() {
            first = Some((suite_out, sizes));
        }
    }
    let wall = secs(started);
    let rounds = digests.len();

    // Verification, outside the window: every round printed the same
    // output, and the first round's outputs agree with the oracles.
    let (suite_out, sizes) = first.expect("at least one round");
    let differing = digests.iter().filter(|d| **d != digests[0]).count();
    if differing > 0 {
        out.problems
            .push(format!("{differing} rounds printed a different output"));
    }
    let bad = verify(&sources, &suite_out, &sizes);
    out.attempted = rounds as u64;
    // Every round that printed the first round's output shares its
    // verdict; rounds that printed something else failed outright.
    out.failed = if bad.is_empty() { differing } else { rounds } as u64;
    out.problems.extend(bad.into_iter().take(8));

    let digest = input_digest(args.seed);
    let again = input_digest(args.seed);
    let other = input_digest(args.seed.wrapping_add(1));
    if again != digest || other == digest {
        out.failed += 1;
        out.problems
            .push("input corpus is not a function of the seed".into());
    }
    out.notes.push(format!(
        "determinism {{\"input_digest\": \"{digest}\", \"regenerated_equal\": {}, \"next_seed_differs\": {}, \"output_digest\": \"{}\"}}",
        again == digest,
        other != digest,
        digests[0]
    ));

    let mut e2e = Metrics::default();
    e2e.put("setup_s", median(&setup_times));
    e2e.put("throughput_ops_s", lat.len() as f64 / wall);
    e2e.put("latency_p50_us", lat.quantile_us(0.50));
    e2e.put("latency_p99_us", lat.quantile_us(0.99));
    e2e.put("peak_rss_mb", median(&peaks));
    out.notes.push(format!(
        "detail {{\"rounds\": {rounds}, \"threads\": {}, \"scale\": {SCALE}, \"eval_suite_s\": {}, \"eval_sizes_s\": {}, \"rle_cycles_ratio\": {}}}",
        threads(),
        median(&suite_s),
        median(&sizes_s),
        suite_out.rle_ratio,
    ));

    let Some(mut rp) = rp else {
        out.metrics = e2e;
        return Ok(out);
    };
    out.notes.push(e2e.line("traced_end_to_end", &END_TO_END));
    let mut m = Metrics::default();
    let t_gen = Instant::now();
    let contents: Vec<Content> = suite()
        .iter()
        .map(|b| Content::Bench {
            name: b.name.to_string(),
            scale: SCALE,
        })
        .chain(
            corpus(args.seed)
                .iter()
                .map(|p| Content::Source { text: p.source() }),
        )
        .collect();
    let checker = DiffChecker::new(&contents);
    let programs: Vec<(Content, Vec<String>)> = contents
        .iter()
        .map(|c| (c.clone(), checker.oracle().paths(&c.key())))
        .collect();
    m.put("bench.gen.busy_ms", secs(t_gen) * 1e3);

    // The server layer, on this workload's programs: load each, then one
    // 16-pair alias batch, one census and one RLE run per program.
    let mut d = Daemon::spawn(&args.env, "pe")?;
    let s0 = d.stats()?;
    let mut reply = String::new();
    let mut sids = Vec::new();
    let mut lines = Vec::new();
    let mut replies = Vec::new();
    for (c, _) in &programs {
        let line = c.load_line();
        d.request(&line, &mut reply)?;
        sids.push(loaded_sid(&reply).ok_or_else(|| format!("load failed: {reply}"))?);
        replies.push((ReqKind::Load { key: c.key() }, reply.clone()));
        lines.push(line);
    }
    let s1 = d.stats()?;
    let mut rng = XorShift64::new(args.seed);
    let mut alias_us = Samples::default();
    let (level, world) = (
        tbaa_server::proto::DEFAULT_LEVEL,
        tbaa_server::proto::DEFAULT_WORLD,
    );
    let mut batches = Vec::new();
    for ((c, paths), sid) in programs.iter().zip(&sids) {
        let pairs: Vec<(String, String)> = (0..16)
            .map(|_| (rng.pick(paths).clone(), rng.pick(paths).clone()))
            .collect();
        let line = alias_line(sid, level, world, &pairs);
        let t = Instant::now();
        d.request(&line, &mut reply)?;
        alias_us.push(t.elapsed());
        replies.push((
            ReqKind::Alias {
                key: c.key(),
                sid: sid.clone(),
                level,
                world,
                pairs: pairs.clone(),
            },
            reply.clone(),
        ));
        lines.push(line);
        let (key, sid) = (c.key(), sid.clone());
        for kind in [
            ReqKind::Pairs {
                key: key.clone(),
                sid: sid.clone(),
                level,
                world,
            },
            ReqKind::Rle {
                key,
                sid: sid.clone(),
                level,
                world,
            },
        ] {
            let line = query_line(kind.verb().name(), &sid, level, world);
            d.request(&line, &mut reply)?;
            replies.push((kind, reply.clone()));
            lines.push(line);
        }
        batches.push(pairs);
    }
    let s2 = d.stats()?;
    d.shutdown()?;
    for (kind, raw) in &replies {
        checker.check(kind, raw);
    }
    out.attempted += replies.len() as u64;
    out.failed += checker.mismatches();
    out.problems.extend(checker.details());
    server_metrics(
        &mut m,
        &StatsPhases {
            window: (s1.clone(), s2),
            others: vec![(s0, s1)],
        },
        alias_us.mean_us(),
    );

    // In-process replay of the same programs through every layer.
    for (k, line) in lines.iter().enumerate() {
        rp.decode(k as u64, line);
    }
    for (k, ((c, _), pairs)) in programs.iter().zip(&batches).enumerate() {
        let req = k as u64;
        let mut s = rp.load(req, &c.source().expect("program source"));
        for (level, world) in COMBOS {
            rp.census(req, &mut s, level, world);
        }
        let aps: Vec<_> = pairs
            .iter()
            .map(|(a, b)| (s.resolve(a), s.resolve(b)))
            .collect();
        rp.alias(req, &mut s, level, world, &aps);
        rp.rle(req, &mut s, level, world);
        let interactive = matches!(c, Content::Bench { name, .. } if Benchmark::by_name(name).is_some_and(|b| b.interactive));
        if !interactive {
            rp.evaluate(req, &s);
        }
    }
    rp.fill(&mut m);
    out.attempted += rp.checked;
    out.failed += rp.mismatches.len() as u64;
    out.problems.extend(rp.mismatches.iter().cloned());
    let spans = args.env.run_dir.join("spans-paper_eval.tsv");
    rp.tracer
        .write(&spans)
        .map_err(|e| format!("write {}: {e}", spans.display()))?;
    out.notes.push(format!("spans {}", spans.display()));
    out.metrics = m;
    Ok(out)
}
