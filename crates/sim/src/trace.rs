//! ATOM-style load tracing and the dynamic redundancy metric of §3.5.
//!
//! The paper instruments every load in the executable with ATOM, recording
//! its address and value: *"A redundant load is when two consecutive loads
//! of the same address load the same value in the same procedure
//! activation."* This hook implements exactly that definition over the
//! interpreter's memory events, and additionally attributes redundant
//! heap loads to their static sites so the classifier (Figure 10) can
//! split them into the paper's categories.

use crate::interp::{MemEvent, MemHook, MemKind, Site};
use crate::value::Value;
use std::collections::HashMap;

/// Per-site dynamic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteCounts {
    /// Loads executed from this site.
    pub loads: u64,
    /// Of those, dynamically redundant ones.
    pub redundant: u64,
}

/// The redundancy trace.
#[derive(Debug, Default)]
pub struct RedundancyTrace {
    /// Heap loads executed (visible and hidden).
    pub heap_loads: u64,
    /// Dynamically redundant heap loads.
    pub redundant: u64,
    /// Redundant loads at *hidden* references (dope vectors, dispatch
    /// headers) — the raw material of the Encapsulation category.
    pub redundant_hidden: u64,
    /// Per visible site counters.
    pub sites: HashMap<Site, SiteCounts>,
    /// Last load of each address: `(activation, value)`. Empty after a
    /// run, because `run` calls [`MemHook::finish`], which drops it.
    last: HashMap<u64, (u64, Value)>,
}

impl RedundancyTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fraction of heap loads that were redundant.
    pub fn redundant_fraction(&self) -> f64 {
        if self.heap_loads == 0 {
            0.0
        } else {
            self.redundant as f64 / self.heap_loads as f64
        }
    }
}

impl MemHook for RedundancyTrace {
    fn access(&mut self, ev: &MemEvent<'_>) {
        if ev.kind != MemKind::Heap {
            return;
        }
        if !ev.is_load {
            return;
        }
        self.heap_loads += 1;
        let mut is_redundant = false;
        if let Some(value) = ev.value {
            if let Some((act, prev)) = self.last.get(&ev.addr) {
                if *act == ev.activation && prev == value {
                    is_redundant = true;
                }
            }
            self.last.insert(ev.addr, (ev.activation, value.clone()));
        }
        if is_redundant {
            self.redundant += 1;
            if ev.hidden || ev.site.is_none() {
                self.redundant_hidden += 1;
            }
        }
        if let Some(site) = ev.site {
            if !ev.hidden {
                let c = self.sites.entry(site).or_default();
                c.loads += 1;
                if is_redundant {
                    c.redundant += 1;
                }
            }
        }
    }

    fn finish(&mut self) {
        self.last = HashMap::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{run, RunConfig};
    use tbaa_ir::compile_to_ir;

    fn trace_src(src: &str) -> RedundancyTrace {
        let prog = compile_to_ir(src).unwrap();
        let mut t = RedundancyTrace::new();
        run(&prog, &mut t, RunConfig::default()).unwrap();
        t
    }

    #[test]
    fn repeated_load_same_value_is_redundant() {
        let t = trace_src(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             VAR t: T; x, y: INTEGER;
             BEGIN
               t := NEW(T); t.f := 7;
               x := t.f;
               y := t.f;
             END M.",
        );
        assert_eq!(t.redundant, 1, "the second load is redundant");
    }

    #[test]
    fn store_changing_value_breaks_redundancy() {
        let t = trace_src(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             VAR t: T; x, y: INTEGER;
             BEGIN
               t := NEW(T); t.f := 7;
               x := t.f;
               t.f := 8;
               y := t.f;
             END M.",
        );
        assert_eq!(t.redundant, 0);
    }

    #[test]
    fn store_of_same_value_keeps_redundancy() {
        // The paper's criterion compares consecutive *loads*: a store that
        // writes the same value back does not make the next load fresh.
        let t = trace_src(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             VAR t: T; x, y: INTEGER;
             BEGIN
               t := NEW(T); t.f := 7;
               x := t.f;
               t.f := 7;
               y := t.f;
             END M.",
        );
        assert_eq!(t.redundant, 1);
    }

    #[test]
    fn different_activations_are_not_redundant() {
        let t = trace_src(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             PROCEDURE Read (t: T): INTEGER = BEGIN RETURN t.f END Read;
             VAR t: T; x, y: INTEGER;
             BEGIN
               t := NEW(T); t.f := 7;
               x := Read(t);
               y := Read(t);
             END M.",
        );
        assert_eq!(
            t.redundant, 0,
            "same address and value but different activations"
        );
    }

    #[test]
    fn loop_invariant_loads_are_redundant_dynamically() {
        let t = trace_src(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             VAR t: T; s: INTEGER;
             BEGIN
               t := NEW(T); t.f := 2;
               FOR i := 1 TO 10 DO s := s + t.f END;
             END M.",
        );
        // 10 loads of t.f; 9 are redundant.
        assert_eq!(t.redundant, 9);
        let site_redundant: u64 = t.sites.values().map(|c| c.redundant).sum();
        assert_eq!(site_redundant, 9);
    }

    #[test]
    fn last_load_map_does_not_outlive_the_run() {
        let t = trace_src(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             VAR t: T; x, y: INTEGER;
             BEGIN t := NEW(T); x := t.f; y := t.f; END M.",
        );
        assert_eq!(t.redundant, 1);
        assert!(t.last.is_empty() && t.last.capacity() == 0);
    }

    #[test]
    fn dope_loads_count_as_hidden_redundancy() {
        let t = trace_src(
            "MODULE M;
             TYPE A = ARRAY OF INTEGER;
             VAR a: A; s: INTEGER;
             BEGIN
               a := NEW(A, 8);
               FOR i := 0 TO 7 DO s := s + a[i] END;
             END M.",
        );
        // The 8 bounds-check loads of the dope slot: 7 redundant.
        assert!(t.redundant_hidden >= 7, "trace: {t:?}");
    }
}
