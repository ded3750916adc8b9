//! One profiled run reports exactly what the standalone runs report: the
//! plain interpreter's counters, `simulate`'s cache statistics and
//! cycles, and a separate redundancy trace.

use tbaa::analysis::Level;
use tbaa_benchsuite::suite;
use tbaa_opt::{optimize, OptOptions};
use tbaa_sim::{profile, run, simulate, NullHook, RedundancyTrace, RunConfig};

#[test]
fn profile_matches_the_standalone_runs() {
    let cfg = RunConfig::default();
    for b in suite().iter().filter(|b| !b.interactive) {
        let base = b.compile(1).expect("suite compiles");
        let mut rle = base.clone();
        optimize(&mut rle, &OptOptions::rle_only(Level::SmFieldTypeRefs));
        for (variant, prog) in [("base", &base), ("rle", &rle)] {
            let what = format!("{} ({variant})", b.name);
            let p = profile(prog, cfg).expect("suite runs");
            let plain = run(prog, &mut NullHook, cfg).expect("suite runs");
            assert_eq!(p.counts, plain.counts, "{what}: counters");
            let (counts, cache, cycles) = simulate(prog, cfg).expect("suite runs");
            assert_eq!(p.counts, counts, "{what}: simulated counters");
            assert_eq!(p.cache, cache, "{what}: cache statistics");
            assert_eq!(p.cycles.to_bits(), cycles.to_bits(), "{what}: cycles");
            let mut t = RedundancyTrace::new();
            run(prog, &mut t, cfg).expect("suite runs");
            assert_eq!(p.trace.heap_loads, t.heap_loads, "{what}: heap loads");
            assert_eq!(p.trace.redundant, t.redundant, "{what}: redundant");
            assert_eq!(
                p.trace.redundant_hidden, t.redundant_hidden,
                "{what}: hidden redundant"
            );
            assert_eq!(p.trace.sites, t.sites, "{what}: per-site counters");
        }
    }
}
