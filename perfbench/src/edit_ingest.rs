//! `edit_ingest`: the write path.
//!
//! One `tbaad` at default settings (capacity 32, so the LRU evicts), one
//! Unix-socket connection, closed loop, client and daemon pinned to one
//! CPU. Each cycle `load`s a new program version, then sends one 16-pair
//! `alias` batch and one `pairs` census against it, both at one (level,
//! world). Versions come in blocks of 30 with a fixed make-up, shuffled
//! by the seed: 6 cold loads of fresh synthetic programs (two each at ×1,
//! ×4, ×16) and 24 one-function edits, two per live slot (four ×1, six
//! ×4, two ×16); each (level, world) serves 5 cycles of a block. A fresh
//! program replaces a live slot of its size. The operation is the cycle:
//! throughput is cycles per second and latency is a cycle's three round
//! trips.

use std::collections::HashMap;
use std::sync::mpsc::sync_channel;
use std::sync::Mutex;
use std::time::Instant;

use tbaa::analysis::Level;
use tbaa::World;
use tbaa_bench::load::{CheckOutcome, Content, DiffChecker, ReqKind, Verb};
use tbaa_bench::rng::XorShift64;

use crate::daemon::Daemon;
use crate::measure::{median, pin_to_one_cpu, secs, Digest, Samples};
use crate::query_warm::shuffle;
use crate::replay::Replay;
use crate::synth;
use crate::wire::{
    alias_line, expired, loaded_sid, query_line, server_metrics, StatsPhases, Window, COMBOS,
};
use crate::{Args, Metrics, Outcome, END_TO_END};

const SETUPS: usize = 15;
/// Live slots by size. With two fresh programs per size, a block of 30
/// cycles is 10 at ×1, 14 at ×4 and 6 at ×16, so the median cycle lies
/// inside the ×4 group rather than on the edge between two sizes.
const SLOT_SIZES: [usize; 12] = [1, 1, 1, 1, 4, 4, 4, 4, 4, 4, 16, 16];
const FRESH_SIZES: [usize; 3] = [1, 4, 16];
const ALIAS_PAIRS: usize = 16;
/// Cycles covered by the printed input digest.
const DIGEST_CYCLES: usize = 60;

#[derive(Clone, Copy)]
enum Step {
    Edit(usize),
    Fresh(usize),
}

/// One cycle's inputs.
struct Cycle {
    source: String,
    cold: bool,
    pairs: Vec<(String, String)>,
    at: (Level, World),
}

/// The seeded version stream.
struct Schedule {
    rng: XorShift64,
    slots: Vec<synth::Program>,
    block: Vec<(Step, usize)>,
}

impl Schedule {
    fn new(seed: u64) -> Self {
        let mut rng = XorShift64::new(seed ^ 0x6564_6974_5f69_6e67); // "edit_ing"
        let slots = SLOT_SIZES
            .iter()
            .map(|&size| synth::generate(rng.next_u64(), size))
            .collect();
        Schedule {
            rng,
            slots,
            block: Vec::new(),
        }
    }

    fn sources(&self) -> Vec<String> {
        self.slots.iter().map(synth::Program::source).collect()
    }

    fn next(&mut self) -> Cycle {
        if self.block.is_empty() {
            let mut steps: Vec<Step> = (0..self.slots.len())
                .map(Step::Edit)
                .chain(FRESH_SIZES.iter().map(|&s| Step::Fresh(s)))
                .collect();
            steps.extend(steps.clone());
            let mut combos: Vec<usize> = (0..steps.len()).map(|i| i % COMBOS.len()).collect();
            shuffle(&mut self.rng, &mut steps);
            shuffle(&mut self.rng, &mut combos);
            self.block = steps.into_iter().zip(combos).collect();
        }
        let rng = &mut self.rng;
        let (step, combo) = self.block.pop().expect("non-empty block");
        let (slot, cold) = match step {
            Step::Edit(slot) => {
                let p = &mut self.slots[slot];
                let f = rng.index(p.procs());
                p.edit(f);
                (slot, false)
            }
            Step::Fresh(size) => {
                let same: Vec<usize> = (0..SLOT_SIZES.len())
                    .filter(|&i| SLOT_SIZES[i] == size)
                    .collect();
                let slot = same[rng.index(same.len())];
                self.slots[slot] = synth::generate(rng.next_u64(), size);
                (slot, true)
            }
        };
        let p = &self.slots[slot];
        let pairs = (0..ALIAS_PAIRS)
            .map(|_| (rng.pick(&p.paths).clone(), rng.pick(&p.paths).clone()))
            .collect();
        Cycle {
            source: p.source(),
            cold,
            pairs,
            at: COMBOS[combo],
        }
    }
}

fn lines(c: &Cycle, sid: &str) -> [String; 3] {
    [
        Content::Source {
            text: c.source.clone(),
        }
        .load_line(),
        alias_line(sid, c.at.0, c.at.1, &c.pairs),
        query_line("pairs", sid, c.at.0, c.at.1),
    ]
}

fn input_digest(seed: u64) -> String {
    let mut s = Schedule::new(seed);
    let mut d = Digest::default();
    for src in s.sources() {
        d.add(src.as_bytes());
    }
    for _ in 0..DIGEST_CYCLES {
        for l in lines(&s.next(), "s?") {
            d.add(l.as_bytes());
        }
    }
    d.hex()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let t_gen = Instant::now();
    let initial = Schedule::new(args.seed).sources();
    let initial_loads: Vec<String> = initial
        .iter()
        .map(|t| Content::Source { text: t.clone() }.load_line())
        .collect();
    let gen_s = secs(t_gen);

    // Client and daemon share one CPU from set-up until the daemon stops.
    let pin = pin_to_one_cpu()?;
    out.notes.push(format!("pinned {{\"cpu\": {}}}", pin.cpu));
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut reply = String::new();
    let mut served = None;
    for k in 0..SETUPS {
        let t0 = Instant::now();
        let mut d = Daemon::spawn(&args.env, &format!("ei{k}"))?;
        let mut replies = Vec::new();
        for line in &initial_loads {
            d.request(line, &mut reply)?;
            replies.push(reply.clone());
        }
        setup_times.push(secs(t0));
        if k + 1 < SETUPS {
            d.shutdown()?;
        } else {
            served = Some((d, replies));
        }
    }
    let (mut d, setup_replies) = served.expect("at least one set-up");
    let window_before = if args.trace { Some(d.stats()?) } else { None };

    // The timed window. Generation happens in the loop (a fresh ×16
    // program is ~145 KB of source) and is counted as client time.
    let mut rp = args.trace.then(Replay::new);
    let mut sched = Schedule::new(args.seed);
    let mut replies: Vec<[String; 3]> = Vec::new();
    let mut cycle_lat = Samples::default();
    let mut load_cold = Samples::default();
    let mut load_edit = Samples::default();
    let mut w = Window::new(1 << 16);
    let mut now = Instant::now();
    w.started = now;
    while !expired(w.started, now, args.seconds) {
        let req = replies.len() as u64;
        let cycle = sched.next();
        let load = Content::Source { text: cycle.source }.load_line();
        let mut got: [String; 3] = Default::default();
        let t_load = Instant::now();
        now = w.timed(
            &mut d,
            Verb::Load,
            &load,
            &mut got[0],
            rp.as_mut().map(|r| &mut r.tracer),
            req,
        )?;
        if cycle.cold {
            &mut load_cold
        } else {
            &mut load_edit
        }
        .push(now - t_load);
        // A failed load is counted when its reply is checked.
        let Some(sid) = loaded_sid(&got[0]) else {
            replies.push(got);
            continue;
        };
        let (level, world) = cycle.at;
        let alias = alias_line(&sid, level, world, &cycle.pairs);
        w.timed(
            &mut d,
            Verb::Alias,
            &alias,
            &mut got[1],
            rp.as_mut().map(|r| &mut r.tracer),
            req,
        )?;
        let pairs = query_line("pairs", &sid, level, world);
        now = w.timed(
            &mut d,
            Verb::Pairs,
            &pairs,
            &mut got[2],
            rp.as_mut().map(|r| &mut r.tracer),
            req,
        )?;
        cycle_lat.push(now - t_load);
        replies.push(got);
    }
    w.finish(now);
    let n = replies.len();
    let window_after = if args.trace { Some(d.stats()?) } else { None };

    // Traced runs also time `rle`, which the mix does not send, once on
    // each live program.
    let mut rle_phase = None;
    if args.trace {
        let before = window_after.clone().expect("traced stats");
        for src in sched.sources() {
            d.request(&Content::Source { text: src }.load_line(), &mut reply)?;
            let sid = loaded_sid(&reply).ok_or_else(|| format!("load failed: {reply}"))?;
            let (level, world) = (
                tbaa_server::proto::DEFAULT_LEVEL,
                tbaa_server::proto::DEFAULT_WORLD,
            );
            d.request(&query_line("rle", &sid, level, world), &mut reply)?;
        }
        rle_phase = Some((before, d.stats()?));
    }
    let rss = d.peak_rss_mb();
    d.shutdown()?;
    drop(pin);

    // Verification against the naive oracle, outside the window, on two
    // threads: a producer regenerates the versions from the seed.
    let failed = Mutex::new(0u64);
    let problems = Mutex::new(Vec::new());
    let sids: Mutex<HashMap<String, String>> = Mutex::new(HashMap::new());
    let fail = |n: u64, msg: String| {
        *failed.lock().expect("verify lock") += n;
        let mut p = problems.lock().expect("verify lock");
        if p.len() < 8 {
            p.push(msg);
        }
    };
    let check_one = |content: Content, reply: &[String]| {
        let key = content.key();
        let checker = DiffChecker::new(&[content]);
        let sid = match checker.check(&ReqKind::Load { key: key.clone() }, &reply[0]) {
            CheckOutcome::Loaded { sid } => sid,
            _ => {
                fail(1, checker.details().join("; "));
                return None;
            }
        };
        let shown = key.display();
        if let Some(prev) = sids
            .lock()
            .expect("verify lock")
            .insert(sid.clone(), shown.clone())
        {
            if prev != shown {
                fail(1, format!("session id {sid} served two different programs"));
            }
        }
        Some((checker, key, sid))
    };
    for (text, raw) in initial.iter().zip(&setup_replies) {
        check_one(
            Content::Source { text: text.clone() },
            std::slice::from_ref(raw),
        );
    }
    let (tx, rx) = sync_channel::<(usize, Cycle)>(4);
    let rx = Mutex::new(rx);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| loop {
                let Ok((c, cycle)) = rx.lock().expect("verify lock").recv() else {
                    break;
                };
                let got = &replies[c];
                let Some((checker, key, sid)) =
                    check_one(Content::Source { text: cycle.source }, got)
                else {
                    continue;
                };
                let (level, world) = cycle.at;
                checker.check(
                    &ReqKind::Alias {
                        key: key.clone(),
                        sid: sid.clone(),
                        level,
                        world,
                        pairs: cycle.pairs,
                    },
                    &got[1],
                );
                checker.check(
                    &ReqKind::Pairs {
                        key,
                        sid,
                        level,
                        world,
                    },
                    &got[2],
                );
                if checker.mismatches() > 0 {
                    fail(checker.mismatches(), checker.details().join("; "));
                }
            });
        }
        let mut regen = Schedule::new(args.seed);
        for c in 0..n {
            tx.send((c, regen.next())).expect("verifier alive");
        }
        drop(tx);
    });
    out.failed = failed.into_inner().expect("verify lock");
    out.problems = problems.into_inner().expect("verify lock");
    out.attempted = (3 * n + initial.len()) as u64;

    let digest = input_digest(args.seed);
    let again = input_digest(args.seed);
    let other = input_digest(args.seed.wrapping_add(1));
    if again != digest || other == digest {
        out.failed += 1;
        out.problems
            .push("version stream is not a function of the seed".into());
    }
    out.notes.push(format!(
        "determinism {{\"input_digest\": \"{digest}\", \"regenerated_equal\": {}, \"next_seed_differs\": {}}}",
        again == digest,
        other != digest
    ));

    let mut e2e = Metrics::default();
    e2e.put("setup_s", median(&setup_times));
    e2e.put("throughput_ops_s", n as f64 / w.wall_s());
    e2e.put("latency_p50_us", cycle_lat.quantile_us(0.50));
    e2e.put("latency_p99_us", cycle_lat.quantile_us(0.99));
    e2e.put("peak_rss_mb", rss);
    out.notes.push(format!(
        "detail {{\"cycles\": {n}, \"connections\": 1, \"request_p50_us\": {}, \"request_p99_us\": {}, \"load_cold_p50_us\": {}, \"load_edit_p50_us\": {}, \"alias_p50_us\": {}, \"pairs_p50_us\": {}}}",
        w.all.quantile_us(0.50),
        w.all.quantile_us(0.99),
        load_cold.quantile_us(0.50),
        load_edit.quantile_us(0.50),
        w.verb(Verb::Alias).quantile_us(0.50),
        w.verb(Verb::Pairs).quantile_us(0.50),
    ));

    let Some(mut rp) = rp else {
        out.metrics = e2e;
        return Ok(out);
    };
    out.notes.push(e2e.line("traced_end_to_end", &END_TO_END));
    let phases = StatsPhases {
        window: (
            window_before.expect("traced stats"),
            window_after.expect("traced stats"),
        ),
        others: vec![rle_phase.expect("traced rle phase")],
    };
    let mut m = Metrics::default();
    server_metrics(&mut m, &phases, w.verb(Verb::Alias).mean_us());
    m.put("bench.gen.busy_ms", gen_s * 1e3 + w.client_ns as f64 / 1e6);

    // In-process replay of the same versions and queries.
    let mut regen = Schedule::new(args.seed);
    for (k, src) in regen.sources().iter().enumerate() {
        rp.load(k as u64, src);
    }
    for (c, got) in replies.iter().enumerate() {
        let cycle = regen.next();
        let Some(sid) = loaded_sid(&got[0]) else {
            continue;
        };
        for l in &lines(&cycle, &sid) {
            rp.decode(c as u64, l);
        }
        let mut s = rp.load(c as u64, &cycle.source);
        let aps: Vec<_> = cycle
            .pairs
            .iter()
            .map(|(a, b)| (s.resolve(a), s.resolve(b)))
            .collect();
        rp.alias(c as u64, &mut s, cycle.at.0, cycle.at.1, &aps);
        rp.census(c as u64, &mut s, cycle.at.0, cycle.at.1);
    }
    // Off the write path: RLE and the paper pipeline's back half, once
    // per live program, so every layer is measured.
    for (k, src) in regen.sources().iter().enumerate() {
        let mut s = rp.load((n + k) as u64, src);
        rp.rle(
            (n + k) as u64,
            &mut s,
            tbaa_server::proto::DEFAULT_LEVEL,
            tbaa_server::proto::DEFAULT_WORLD,
        );
        rp.evaluate((n + k) as u64, &s);
    }
    rp.fill(&mut m);
    out.attempted += rp.checked;
    out.failed += rp.mismatches.len() as u64;
    out.problems.extend(rp.mismatches.iter().cloned());
    let spans = args.env.run_dir.join("spans-edit_ingest.tsv");
    rp.tracer
        .write(&spans)
        .map_err(|e| format!("write {}: {e}", spans.display()))?;
    out.notes.push(format!("spans {}", spans.display()));
    out.metrics = m;
    Ok(out)
}
