//! Seeded synthetic MiniM3 programs with a size axis.
//!
//! A program at size `×k` has about `100·k` object types arranged in
//! shallow single-inheritance hierarchies, `24·k` pointer globals and
//! `6·k` procedures. Each procedure loops over loads and stores of
//! global fields, so RLE finds loop-invariant loads and the three TBAA
//! levels disagree on which stores kill them. Every procedure carries
//! one integer literal (its "tuning"); bumping it is a one-function edit
//! that leaves the set of access paths unchanged.
//!
//! The generator also predicts the program's addressable access paths
//! (`g3.v7`, `g3.q2.v5`, ...) from its own statements, so alias batches
//! can be drawn without compiling the program in the client.

use tbaa_bench::rng::XorShift64;

/// Types, globals and procedures per unit of size.
const TYPES_PER_UNIT: usize = 100;
const GLOBALS_PER_UNIT: usize = 24;
const PROCS_PER_UNIT: usize = 6;
/// Statements in each procedure's loop body.
const STMTS_PER_PROC: usize = 6;
/// Deepest subtype chain.
const MAX_DEPTH: usize = 4;

/// One generated program: its text split at procedure boundaries so an
/// edit re-renders one procedure only.
#[derive(Debug, Clone)]
pub struct Program {
    header: String,
    procs: Vec<ProcText>,
    body: String,
    /// Predicted addressable access paths (global-rooted), sorted.
    pub paths: Vec<String>,
}

#[derive(Debug, Clone)]
struct ProcText {
    /// Text before and after the tuning literal.
    before: String,
    after: String,
    tuning: u64,
}

impl Program {
    /// The full MiniM3 source.
    pub fn source(&self) -> String {
        let mut s =
            String::with_capacity(self.header.len() + self.body.len() + 256 * self.procs.len());
        s.push_str(&self.header);
        for p in &self.procs {
            s.push_str(&p.before);
            s.push_str(&p.tuning.to_string());
            s.push_str(&p.after);
        }
        s.push_str(&self.body);
        s
    }

    /// Number of procedures (each an edit target).
    pub fn procs(&self) -> usize {
        self.procs.len()
    }

    /// A one-function edit: bumps procedure `i`'s literal.
    pub fn edit(&mut self, i: usize) {
        self.procs[i].tuning += 1;
    }
}

struct Ty {
    parent: Option<usize>,
    /// Target type of this type's own pointer field `q{i}`.
    target: usize,
    depth: usize,
}

/// `t` and its ancestors (each contributes fields `v{a}` and `q{a}`).
fn ancestry(types: &[Ty], mut t: usize) -> Vec<usize> {
    let mut out = vec![t];
    while let Some(p) = types[t].parent {
        out.push(p);
        t = p;
    }
    out
}

fn is_subtype(types: &[Ty], sub: usize, sup: usize) -> bool {
    ancestry(types, sub).contains(&sup)
}

/// Generates a program of size `×size`, deterministic per `seed`.
pub fn generate(seed: u64, size: usize) -> Program {
    let mut rng = XorShift64::new(seed ^ 0x5359_4e54_4845_5449); // "SYNTHETI"
    let nt = TYPES_PER_UNIT * size;
    let ng = GLOBALS_PER_UNIT * size;
    let np = PROCS_PER_UNIT * size;

    let mut types: Vec<Ty> = Vec::with_capacity(nt);
    for i in 0..nt {
        // Subtype of a recent type about half the time, so hierarchies
        // stay local and shallow.
        let parent = if i > 0 && rng.chance(1, 2) {
            let p = i - 1 - rng.index(i.min(8));
            (types[p].depth < MAX_DEPTH).then_some(p)
        } else {
            None
        };
        let depth = parent.map_or(0, |p| types[p].depth + 1);
        types.push(Ty {
            parent,
            target: rng.index(nt),
            depth,
        });
    }
    let globals: Vec<usize> = (0..ng).map(|_| rng.index(nt)).collect();
    // Globals grouped by a static type they can be assigned to.
    let assignable = |want: usize| -> Vec<usize> {
        (0..ng)
            .filter(|&g| is_subtype(&types, globals[g], want))
            .collect()
    };

    let mut header = String::from("MODULE Synth;\n\nTYPE\n");
    for (i, t) in types.iter().enumerate() {
        let sup = t.parent.map(|p| format!("T{p} ")).unwrap_or_default();
        header.push_str(&format!(
            "  T{i} = {sup}OBJECT v{i}: INTEGER; q{i}: T{}; END;\n",
            t.target
        ));
    }
    header.push_str("\nVAR\n  x: INTEGER;\n");
    for (g, t) in globals.iter().enumerate() {
        header.push_str(&format!("  g{g}: T{t};\n"));
    }
    header.push('\n');

    let mut paths = std::collections::BTreeSet::new();
    let mut procs = Vec::with_capacity(np);
    for p in 0..np {
        let local_g = rng.index(ng);
        let before = format!(
            "PROCEDURE P{p} (n: INTEGER): INTEGER =\nVAR s: INTEGER; l{p}: T{lt};\nBEGIN\n  l{p} := g{local_g};\n  s := ",
            lt = globals[local_g]
        );
        let mut after = String::from(";\n  FOR i := 1 TO n DO\n");
        for _ in 0..STMTS_PER_PROC {
            let g = rng.index(ng);
            let anc = ancestry(&types, globals[g]);
            let f = *rng.pick(&anc);
            match rng.index(7) {
                0 | 1 => {
                    after.push_str(&format!("    s := s + g{g}.v{f};\n"));
                    paths.insert(format!("g{g}.v{f}"));
                }
                2 => {
                    after.push_str(&format!("    g{g}.v{f} := s MOD 97 + i;\n"));
                    paths.insert(format!("g{g}.v{f}"));
                }
                3 => {
                    let inner = ancestry(&types, types[f].target);
                    let u = *rng.pick(&inner);
                    after.push_str(&format!("    s := s + g{g}.q{f}.v{u};\n"));
                    paths.insert(format!("g{g}.q{f}"));
                    paths.insert(format!("g{g}.q{f}.v{u}"));
                }
                4 => {
                    let srcs = assignable(types[f].target);
                    if let Some(&src) = srcs.get(rng.index(srcs.len().max(1))) {
                        after.push_str(&format!("    g{g}.q{f} := g{src};\n"));
                    } else {
                        after.push_str(&format!("    s := s + g{g}.v{f};\n"));
                        paths.insert(format!("g{g}.v{f}"));
                        continue;
                    }
                    paths.insert(format!("g{g}.q{f}"));
                }
                5 => {
                    let lanc = ancestry(&types, globals[local_g]);
                    let lf = *rng.pick(&lanc);
                    after.push_str(&format!("    s := s + l{p}.v{lf};\n"));
                }
                _ => {
                    // A reference copy between globals: the merge that
                    // SMFieldTypeRefs tracks.
                    let srcs = assignable(globals[g]);
                    let src = srcs[rng.index(srcs.len())];
                    after.push_str(&format!("    g{g} := g{src};\n"));
                }
            }
        }
        after.push_str(&format!("  END;\n  RETURN s;\nEND P{p};\n\n"));
        procs.push(ProcText {
            before,
            after,
            tuning: 1 + rng.below(9),
        });
    }

    // Body: allocate every global (possibly at a subtype), point every
    // reachable pointer field at a fresh object so loads never trap,
    // then call every procedure.
    let mut body = String::from("BEGIN\n  x := 0;\n");
    for (g, &t) in globals.iter().enumerate() {
        let subs: Vec<usize> = (t..nt.min(t + 9))
            .filter(|&s| is_subtype(&types, s, t))
            .collect();
        let dynt = subs[rng.index(subs.len())];
        body.push_str(&format!("  g{g} := NEW(T{dynt});\n"));
    }
    for (g, &t) in globals.iter().enumerate() {
        for f in ancestry(&types, t) {
            body.push_str(&format!("  g{g}.q{f} := NEW(T{});\n", types[f].target));
        }
    }
    for p in 0..np {
        body.push_str(&format!("  x := x + P{p}({});\n", 3 + rng.below(6)));
    }
    body.push_str("  PRINTI(x);\nEND Synth.\n");

    Program {
        header,
        procs,
        body,
        paths: paths.into_iter().collect(),
    }
}
