//! `query_warm`: the compiler client's read path.
//!
//! One `tbaad` at default settings, one Unix-socket connection, closed
//! loop, client and daemon pinned to one CPU. Set-up loads the ten
//! benchsuite programs at scale 2 and builds all six (level, world)
//! engines of each. The timed mix is 80% `alias` batches of 1–16 random
//! addressable pairs, 15% `pairs` and 5% `rle`, with session, level and
//! world uniform (see [`gen_stream`]). The request stream is a seeded
//! cycle of `STREAM` requests, so every repeat of a request must get a
//! byte-identical reply.

use std::collections::HashMap;
use std::time::Instant;

use tbaa_bench::load::{Content, DiffChecker, ReqKind, Verb};
use tbaa_bench::rng::XorShift64;
use tbaa_benchsuite::suite;

use crate::daemon::Daemon;
use crate::measure::{median, pin_to_one_cpu, secs, Digest};
use crate::replay::Replay;
use crate::wire::{
    alias_line, expired, loaded_sid, query_line, server_metrics, StatsPhases, Window, COMBOS,
};
use crate::{Args, Metrics, Outcome, END_TO_END};

const SCALE: u32 = 2;
/// Distinct requests in the cycled stream: 1620 blocks of 20.
const STREAM: usize = 32_400;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 25;

/// A generated request, compact enough to keep for the whole stream.
struct Req {
    verb: Verb,
    session: usize,
    combo: usize,
    pairs: Vec<(u32, u32)>,
}

/// The stream is stratified so every seed has the same make-up: each
/// block of 20 requests holds 16 `alias`, 3 `pairs` and 1 `rle` in a
/// seeded order, and `pairs` and `rle` each walk every (session, level,
/// world) in a freshly shuffled order before repeating one. `alias`
/// batches draw session, level, world, size and paths at random.
fn gen_stream(seed: u64, sids: &[String], paths: &[Vec<String>]) -> (Vec<String>, Vec<Req>) {
    let mut rng = XorShift64::new(seed ^ 0x7175_6572_795f_7761); // "query_wa"
    let targets = sids.len() * COMBOS.len();
    let mut decks: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    let mut block: Vec<Verb> = Vec::new();
    let mut lines = Vec::with_capacity(STREAM);
    let mut reqs = Vec::with_capacity(STREAM);
    for _ in 0..STREAM {
        if block.is_empty() {
            block = [Verb::Alias; 16]
                .into_iter()
                .chain([Verb::Pairs; 3])
                .chain([Verb::Rle])
                .collect();
            shuffle(&mut rng, &mut block);
        }
        let verb = block.pop().expect("non-empty block");
        let req = if verb == Verb::Alias {
            let session = rng.index(sids.len());
            let combo = rng.index(COMBOS.len());
            let n = paths[session].len() as u64;
            let pairs: Vec<(u32, u32)> = (0..1 + rng.index(16))
                .map(|_| (rng.below(n) as u32, rng.below(n) as u32))
                .collect();
            Req {
                verb,
                session,
                combo,
                pairs,
            }
        } else {
            let deck = &mut decks[usize::from(verb == Verb::Rle)];
            if deck.is_empty() {
                *deck = (0..targets).collect();
                shuffle(&mut rng, deck);
            }
            let t = deck.pop().expect("non-empty deck");
            Req {
                verb,
                session: t / COMBOS.len(),
                combo: t % COMBOS.len(),
                pairs: Vec::new(),
            }
        };
        let (level, world) = COMBOS[req.combo];
        let sid = &sids[req.session];
        lines.push(match verb {
            Verb::Alias => alias_line(sid, level, world, &named(&paths[req.session], &req.pairs)),
            _ => query_line(verb.name(), sid, level, world),
        });
        reqs.push(req);
    }
    (lines, reqs)
}

/// Fisher–Yates with the workload's generator.
pub fn shuffle<T>(rng: &mut XorShift64, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = rng.index(i + 1);
        v.swap(i, j);
    }
}

fn named(paths: &[String], pairs: &[(u32, u32)]) -> Vec<(String, String)> {
    pairs
        .iter()
        .map(|&(a, b)| (paths[a as usize].clone(), paths[b as usize].clone()))
        .collect()
}

fn stream_digest(lines: &[String]) -> String {
    let mut d = Digest::default();
    for l in lines {
        d.add(l.as_bytes());
    }
    d.hex()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let contents: Vec<Content> = suite()
        .iter()
        .map(|b| Content::Bench {
            name: b.name.to_string(),
            scale: SCALE,
        })
        .collect();
    let checker = DiffChecker::new(&contents);
    let t_gen = Instant::now();
    let paths: Vec<Vec<String>> = contents
        .iter()
        .map(|c| checker.oracle().paths(&c.key()))
        .collect();
    let mut gen_s = secs(t_gen);

    // Client and daemon share one CPU from set-up until the daemon stops.
    let pin = pin_to_one_cpu()?;
    out.notes.push(format!("pinned {{\"cpu\": {}}}", pin.cpu));

    // Set-up, several times; the last daemon serves the window.
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut reply = String::new();
    let mut served = None;
    for k in 0..SETUPS {
        let t0 = Instant::now();
        let mut d = Daemon::spawn(&args.env, &format!("qw{k}"))?;
        let before = if args.trace && k + 1 == SETUPS {
            Some(d.stats()?)
        } else {
            None
        };
        let mut sids = Vec::new();
        let mut replies = Vec::new();
        for c in &contents {
            d.request(&c.load_line(), &mut reply)?;
            sids.push(loaded_sid(&reply).ok_or_else(|| format!("load failed: {reply}"))?);
            replies.push((ReqKind::Load { key: c.key() }, reply.clone()));
        }
        for (i, c) in contents.iter().enumerate() {
            for (level, world) in COMBOS {
                let pairs = vec![(paths[i][0].clone(), paths[i][0].clone())];
                d.request(&alias_line(&sids[i], level, world, &pairs), &mut reply)?;
                let kind = ReqKind::Alias {
                    key: c.key(),
                    sid: sids[i].clone(),
                    level,
                    world,
                    pairs,
                };
                replies.push((kind, reply.clone()));
            }
        }
        let after = if args.trace && k + 1 == SETUPS {
            Some(d.stats()?)
        } else {
            None
        };
        setup_times.push(secs(t0));
        if k + 1 < SETUPS {
            d.shutdown()?;
        } else {
            served = Some((d, sids, replies, before.zip(after)));
        }
    }
    let (mut d, sids, setup_replies, setup_stats) = served.expect("at least one set-up");

    let t_gen = Instant::now();
    let (lines, reqs) = gen_stream(args.seed, &sids, &paths);
    gen_s += secs(t_gen);

    // The timed window: closed loop over the cycled stream. Replies are
    // interned (a repeat of a request must repeat its reply exactly)
    // and checked after the window.
    let mut rp = args.trace.then(Replay::new);
    let mut interned: HashMap<String, u32> = HashMap::new();
    let mut arena: Vec<String> = Vec::new();
    let mut reply_ids: Vec<u32> = Vec::with_capacity(1 << 20);
    let mut w = Window::new(1 << 20);
    let mut now = Instant::now();
    w.started = now;
    let mut i = 0usize;
    while !expired(w.started, now, args.seconds) {
        let j = i % STREAM;
        now = w.timed(
            &mut d,
            reqs[j].verb,
            &lines[j],
            &mut reply,
            rp.as_mut().map(|r| &mut r.tracer),
            i as u64,
        )?;
        let id = match interned.get(reply.as_str()) {
            Some(&id) => id,
            None => {
                let id = arena.len() as u32;
                arena.push(reply.clone());
                interned.insert(reply.clone(), id);
                id
            }
        };
        reply_ids.push(id);
        i += 1;
    }
    w.finish(now);
    let n = i;
    let window_after = if args.trace { Some(d.stats()?) } else { None };
    let rss = d.peak_rss_mb();
    d.shutdown()?;
    drop(pin);

    // Verification, outside the window.
    for (kind, raw) in &setup_replies {
        checker.check(kind, raw);
    }
    for (j, req) in reqs.iter().enumerate().take(n.min(STREAM)) {
        let (level, world) = COMBOS[req.combo];
        let key = contents[req.session].key();
        let sid = sids[req.session].clone();
        let kind = match req.verb {
            Verb::Alias => ReqKind::Alias {
                key,
                sid,
                level,
                world,
                pairs: named(&paths[req.session], &req.pairs),
            },
            Verb::Pairs => ReqKind::Pairs {
                key,
                sid,
                level,
                world,
            },
            _ => ReqKind::Rle {
                key,
                sid,
                level,
                world,
            },
        };
        checker.check(&kind, &arena[reply_ids[j] as usize]);
    }
    let repeat_mismatches = (STREAM..n)
        .filter(|&i| reply_ids[i] != reply_ids[i % STREAM])
        .count() as u64;
    if repeat_mismatches > 0 {
        out.problems.push(format!(
            "{repeat_mismatches} repeated requests got a different reply"
        ));
    }
    out.problems.extend(checker.details());
    out.attempted = (n + setup_replies.len()) as u64;
    out.failed = checker.mismatches() + repeat_mismatches;

    // Determinism: the same seed regenerates the same stream, another
    // seed a different one.
    let digest = stream_digest(&lines);
    let again = stream_digest(&gen_stream(args.seed, &sids, &paths).0);
    let other = stream_digest(&gen_stream(args.seed.wrapping_add(1), &sids, &paths).0);
    if again != digest || other == digest {
        out.failed += 1;
        out.problems
            .push("request stream is not a function of the seed".into());
    }
    out.notes.push(format!(
        "determinism {{\"input_digest\": \"{digest}\", \"regenerated_equal\": {}, \"next_seed_differs\": {}}}",
        again == digest,
        other != digest
    ));

    let mut e2e = Metrics::default();
    e2e.put("setup_s", median(&setup_times));
    e2e.put("throughput_ops_s", n as f64 / w.wall_s());
    e2e.put("latency_p50_us", w.all.quantile_us(0.50));
    e2e.put("latency_p99_us", w.all.quantile_us(0.99));
    e2e.put("peak_rss_mb", rss);
    out.notes.push(format!(
        "detail {{\"requests\": {n}, \"distinct_replies\": {}, \"connections\": 1, \"alias_p50_us\": {}, \"alias_p99_us\": {}, \"pairs_p50_us\": {}, \"rle_p50_us\": {}}}",
        arena.len(),
        w.verb(Verb::Alias).quantile_us(0.50),
        w.verb(Verb::Alias).quantile_us(0.99),
        w.verb(Verb::Pairs).quantile_us(0.50),
        w.verb(Verb::Rle).quantile_us(0.50),
    ));

    let Some(mut rp) = rp else {
        out.metrics = e2e;
        return Ok(out);
    };
    out.notes.push(e2e.line("traced_end_to_end", &END_TO_END));
    let (setup_before, setup_after) = setup_stats.expect("traced set-up stats");
    let phases = StatsPhases {
        window: (
            setup_after.clone(),
            window_after.expect("traced window stats"),
        ),
        others: vec![(setup_before, setup_after)],
    };
    let mut m = Metrics::default();
    server_metrics(&mut m, &phases, w.verb(Verb::Alias).mean_us());
    m.put("bench.gen.busy_ms", gen_s * 1e3 + w.client_ns as f64 / 1e6);

    // In-process replay of the same inputs, one span per layer call.
    let mut sessions: Vec<_> = contents
        .iter()
        .enumerate()
        .map(|(k, c)| {
            let src = c.source().expect("benchsuite source");
            rp.load(k as u64, &src)
        })
        .collect();
    for (k, s) in sessions.iter_mut().enumerate() {
        for (level, world) in COMBOS {
            rp.engine(k as u64, s, level, world);
        }
    }
    for (j, req) in reqs.iter().enumerate().take(n.min(STREAM)) {
        rp.decode(j as u64, &lines[j]);
        let (level, world) = COMBOS[req.combo];
        let s = &mut sessions[req.session];
        match req.verb {
            Verb::Alias => {
                let ps = &paths[req.session];
                let aps: Vec<_> = req
                    .pairs
                    .iter()
                    .map(|&(a, b)| (s.resolve(&ps[a as usize]), s.resolve(&ps[b as usize])))
                    .collect();
                rp.alias(j as u64, s, level, world, &aps);
            }
            Verb::Pairs => rp.census(j as u64, s, level, world),
            _ => rp.rle(j as u64, s, level, world),
        }
    }
    // Off the read path: the paper pipeline's back half, once per
    // non-interactive program, so every layer is measured.
    for (k, b) in suite().iter().enumerate() {
        if !b.interactive {
            rp.evaluate(k as u64, &sessions[k]);
        }
    }
    rp.fill(&mut m);
    out.attempted += rp.checked;
    out.failed += rp.mismatches.len() as u64;
    out.problems.extend(rp.mismatches.iter().cloned());
    let spans = args.env.run_dir.join("spans-query_warm.tsv");
    rp.tracer
        .write(&spans)
        .map_err(|e| format!("write {}: {e}", spans.display()))?;
    out.notes.push(format!("spans {}", spans.display()));
    out.metrics = m;
    Ok(out)
}
