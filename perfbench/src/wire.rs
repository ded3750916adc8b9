//! Request lines, the closed-loop window, and the server-layer metrics
//! read from `stats` deltas.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use tbaa::analysis::Level;
use tbaa::World;
use tbaa_bench::load::Verb;
use tbaa_server::json::Value;
use tbaa_server::proto::{level_name, world_name};

use crate::daemon::{counter, histogram, Daemon};
use crate::measure::Samples;
use crate::trace::Tracer;
use crate::Metrics;

/// Every (level, world) engine a session can build.
pub const COMBOS: [(Level, World); 6] = [
    (Level::TypeDecl, World::Closed),
    (Level::TypeDecl, World::Open),
    (Level::FieldTypeDecl, World::Closed),
    (Level::FieldTypeDecl, World::Open),
    (Level::SmFieldTypeRefs, World::Closed),
    (Level::SmFieldTypeRefs, World::Open),
];

/// Verbs the workloads time, in report order.
pub const VERBS: [Verb; 4] = [Verb::Load, Verb::Alias, Verb::Pairs, Verb::Rle];

pub fn verb_index(v: Verb) -> usize {
    VERBS.iter().position(|&x| x == v).expect("timed verb")
}

pub fn alias_line(sid: &str, level: Level, world: World, pairs: &[(String, String)]) -> String {
    Value::object(vec![
        ("op", Value::Str("alias".into())),
        ("session", Value::Str(sid.into())),
        ("level", Value::Str(level_name(level).into())),
        ("world", Value::Str(world_name(world).into())),
        (
            "pairs",
            Value::Array(
                pairs
                    .iter()
                    .map(|(a, b)| {
                        Value::Array(vec![
                            Value::Str(a.as_str().into()),
                            Value::Str(b.as_str().into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .encode()
}

pub fn query_line(op: &str, sid: &str, level: Level, world: World) -> String {
    Value::object(vec![
        ("op", Value::Str(op.into())),
        ("session", Value::Str(sid.into())),
        ("level", Value::Str(level_name(level).into())),
        ("world", Value::Str(world_name(world).into())),
    ])
    .encode()
}

/// The `session` field of a `load` reply.
pub fn loaded_sid(reply: &str) -> Option<String> {
    let v = tbaa_server::json::parse(reply).ok()?;
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        return None;
    }
    v.get("session").and_then(Value::as_str).map(str::to_string)
}

/// Latencies of one closed-loop window, overall and per verb.
pub struct Window {
    pub all: Samples,
    pub by_verb: [Samples; 4],
    pub started: Instant,
    pub ended: Instant,
    /// Client time outside request round trips (generation, bookkeeping).
    pub client_ns: u64,
}

impl Window {
    pub fn new(capacity: usize) -> Self {
        let now = Instant::now();
        Window {
            all: Samples::with_capacity(capacity),
            by_verb: Default::default(),
            started: now,
            ended: now,
            client_ns: 0,
        }
    }

    /// Times one request round trip and records it.
    pub fn timed(
        &mut self,
        d: &mut Daemon,
        verb: Verb,
        line: &str,
        reply: &mut String,
        tracer: Option<&mut Tracer>,
        req: u64,
    ) -> Result<Instant, String> {
        let t0 = Instant::now();
        d.request(line, reply)?;
        let t1 = Instant::now();
        let lat = t1 - t0;
        self.all.push(lat);
        self.by_verb[verb_index(verb)].push(lat);
        if let Some(tr) = tracer {
            tr.record(request_span(verb), req, t0, t1);
        }
        Ok(t1)
    }

    pub fn finish(&mut self, end: Instant) {
        self.ended = end;
        let wall = (end - self.started).as_nanos() as u64;
        self.client_ns = wall.saturating_sub(self.all.sum_ns());
    }

    pub fn wall_s(&self) -> f64 {
        (self.ended - self.started).as_secs_f64()
    }

    pub fn verb(&self, v: Verb) -> &Samples {
        &self.by_verb[verb_index(v)]
    }
}

fn request_span(v: Verb) -> &'static str {
    match v {
        Verb::Load => "bench.request.load",
        Verb::Alias => "bench.request.alias",
        Verb::Pairs => "bench.request.pairs",
        Verb::Rle => "bench.request.rle",
        Verb::Stats => "bench.request.stats",
    }
}

/// Per-verb server-side mean (µs) over `after − before`, when the verb
/// ran in that interval.
fn verb_mean(before: &Value, after: &Value, verb: Verb) -> Option<f64> {
    let name = format!("request_us.{}", verb.name());
    let (c0, s0) = histogram(before, &name);
    let (c1, s1) = histogram(after, &name);
    (c1 > c0).then(|| (s1 - s0) as f64 / (c1 - c0) as f64)
}

/// `stats` snapshots bracketing the phases of a traced daemon run.
pub struct StatsPhases {
    /// `(before, after)` of the timed window.
    pub window: (Value<'static>, Value<'static>),
    /// Further intervals (set-up, off-mix verbs) consulted, in order, for
    /// a verb the window did not issue.
    pub others: Vec<(Value<'static>, Value<'static>)>,
}

/// The `server.*` per-layer metrics: exact per-verb means from `stats`
/// deltas, the client−server alias gap, and session-store counters over
/// the window.
pub fn server_metrics(m: &mut Metrics, phases: &StatsPhases, client_alias_mean_us: f64) {
    let (w0, w1) = (&phases.window.0, &phases.window.1);
    let mut means = HashMap::new();
    for verb in VERBS {
        let mean = std::iter::once((w0, w1))
            .chain(phases.others.iter().map(|(a, b)| (a, b)))
            .find_map(|(a, b)| verb_mean(a, b, verb))
            .unwrap_or(0.0);
        means.insert(verb.name(), mean);
    }
    m.put("server.request.alias_mean_us", means["alias"]);
    m.put("server.request.pairs_mean_us", means["pairs"]);
    m.put("server.request.rle_mean_us", means["rle"]);
    m.put("server.request.load_mean_us", means["load"]);
    m.put(
        "server.transport.alias_gap_us",
        client_alias_mean_us - means["alias"],
    );
    let delta = |name: &str| (counter(w1, name) - counter(w0, name)) as f64;
    m.put("server.sessions.hits", delta("sessions.hits"));
    m.put("server.sessions.misses", delta("sessions.misses"));
    m.put("server.sessions.evictions", delta("sessions.evictions"));
    m.put("server.engines.built", delta("engines.built"));
}

/// Sleep-free deadline check helper: has `now` passed `start + secs`?
pub fn expired(start: Instant, now: Instant, secs: f64) -> bool {
    now - start >= Duration::from_secs_f64(secs)
}
