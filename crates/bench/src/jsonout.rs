//! JSON emission for the paper tables: one object per row, one row per
//! line, encoded with the deterministic encoder from `tbaa-server`
//! (order-preserving objects, so output bytes are stable run to run).
//!
//! Every row carries a `"table"` discriminator so a stream mixing
//! several tables stays self-describing:
//!
//! ```text
//! {"table":"table5","name":"ktree","references":16,"levels":{...}}
//! ```

use tbaa_server::json::Value;

use crate::{Engine, Fig10Row, Fig9Row, RuntimeRow, Table4Row, Table5Row, Table6Row};
use tbaa::AliasPairCounts;

/// Level labels in the order `Table5Row::by_level` / `Table6Row::removed`
/// store them (the paper's three analyses, coarse to precise).
pub const LEVEL_LABELS: [&str; 3] = ["TypeDecl", "FieldTypeDecl", "SMFieldTypeRefs"];

fn row<'a>(table: &'a str, name: &'a str, fields: Vec<(&'a str, Value<'a>)>) -> Value<'a> {
    let mut all = vec![
        ("table", Value::Str(table.into())),
        ("name", Value::Str(name.into())),
    ];
    all.extend(fields);
    Value::object(all)
}

fn opt_u64(v: Option<u64>) -> Value<'static> {
    v.map(|n| Value::Int(n as i64)).unwrap_or(Value::Null)
}

fn opt_f64(v: Option<f64>) -> Value<'static> {
    v.map(Value::Float).unwrap_or(Value::Null)
}

/// Table 4 (benchmark overview) rows.
pub fn table4_json(rows: &[Table4Row]) -> Vec<Value<'static>> {
    rows.iter()
        .map(|r| {
            row(
                "table4",
                r.name,
                vec![
                    ("lines", Value::Int(r.lines as i64)),
                    ("instructions", opt_u64(r.instructions)),
                    ("heap_load_pct", opt_f64(r.heap_load_pct)),
                    ("other_load_pct", opt_f64(r.other_load_pct)),
                    ("about", Value::Str(r.about.into())),
                ],
            )
        })
        .collect()
}

fn pair_counts(c: &AliasPairCounts) -> Value<'static> {
    Value::object(vec![
        ("local_pairs", Value::Int(c.local_pairs as i64)),
        ("global_pairs", Value::Int(c.global_pairs as i64)),
    ])
}

/// Table 5 (static may-alias pairs per analysis level) rows.
pub fn table5_json(rows: &[Table5Row]) -> Vec<Value<'static>> {
    rows.iter()
        .map(|r| {
            let levels = LEVEL_LABELS
                .iter()
                .zip(r.by_level.iter())
                .map(|(label, counts)| ((*label).into(), pair_counts(counts)))
                .collect();
            row(
                "table5",
                r.name,
                vec![
                    ("references", Value::Int(r.references as i64)),
                    ("levels", Value::Object(levels)),
                ],
            )
        })
        .collect()
}

/// Table 6 (redundant loads removed statically) rows.
pub fn table6_json(rows: &[Table6Row]) -> Vec<Value<'static>> {
    rows.iter()
        .map(|r| {
            let removed = LEVEL_LABELS
                .iter()
                .zip(r.removed.iter())
                .map(|(label, n)| ((*label).into(), Value::Int(*n as i64)))
                .collect();
            row("table6", r.name, vec![("removed", Value::Object(removed))])
        })
        .collect()
}

/// Runtime-figure rows (Figures 8, 11, 12): percent of base cycles per
/// configuration, keyed by the figure's bar labels.
pub fn runtime_json<'a>(table: &'a str, rows: &'a [RuntimeRow]) -> Vec<Value<'a>> {
    rows.iter()
        .map(|r| {
            let pct = r
                .labels
                .iter()
                .zip(r.pct.iter())
                .map(|(label, p)| ((*label).into(), Value::Float(*p)))
                .collect();
            row(table, r.name, vec![("pct", Value::Object(pct))])
        })
        .collect()
}

/// Figure 9 (dynamically redundant heap loads, before/after) rows.
pub fn fig9_json(rows: &[Fig9Row]) -> Vec<Value<'static>> {
    rows.iter()
        .map(|r| {
            row(
                "fig9",
                r.name,
                vec![
                    (
                        "original_heap_loads",
                        Value::Int(r.limit.original_heap_loads as i64),
                    ),
                    (
                        "redundant_original",
                        Value::Int(r.limit.redundant_original as i64),
                    ),
                    (
                        "optimized_heap_loads",
                        Value::Int(r.limit.optimized_heap_loads as i64),
                    ),
                    (
                        "redundant_after",
                        Value::Int(r.limit.redundant_after as i64),
                    ),
                ],
            )
        })
        .collect()
}

/// Figure 10 (where the remaining redundancy comes from) rows.
pub fn fig10_json(rows: &[Fig10Row]) -> Vec<Value<'static>> {
    rows.iter()
        .map(|r| {
            row(
                "fig10",
                r.name,
                vec![
                    (
                        "original_heap_loads",
                        Value::Int(r.original_heap_loads as i64),
                    ),
                    ("encapsulated", Value::Int(r.breakdown.encapsulated as i64)),
                    ("conditional", Value::Int(r.breakdown.conditional as i64)),
                    ("breakup", Value::Int(r.breakdown.breakup as i64)),
                    ("alias_failure", Value::Int(r.breakdown.alias_failure as i64)),
                    ("rest", Value::Int(r.breakdown.rest as i64)),
                ],
            )
        })
        .collect()
}

/// The open-vs-closed static comparison printed alongside Figure 12.
pub fn open_world_pairs_json(
    rows: &[(String, AliasPairCounts, AliasPairCounts)],
) -> Vec<Value<'_>> {
    rows.iter()
        .map(|(name, closed, open)| {
            row(
                "fig12_pairs",
                name,
                vec![
                    ("closed_global_pairs", Value::Int(closed.global_pairs as i64)),
                    ("open_global_pairs", Value::Int(open.global_pairs as i64)),
                ],
            )
        })
        .collect()
}

/// Everything `paper-tables <which> --json` prints: the named table or
/// figure (`"all"` for every one), one encoded row per line. Each section
/// is encoded while its source rows are still alive — the JSON values
/// borrow the row data rather than cloning it.
pub fn report(engine: &Engine, which: &str) -> String {
    fn emit(out: &mut String, rows: Vec<Value<'_>>) {
        for row in rows {
            out.push_str(&row.encode());
            out.push('\n');
        }
    }
    let all = which == "all";
    let want = |name: &str| all || which == name;
    let mut out = String::new();
    if want("table4") {
        emit(&mut out, table4_json(&engine.table4()));
    }
    if want("table5") {
        emit(&mut out, table5_json(&engine.table5()));
    }
    if want("table6") {
        emit(&mut out, table6_json(&engine.table6()));
    }
    if want("fig8") {
        emit(&mut out, runtime_json("fig8", &engine.fig8()));
    }
    if want("fig9") {
        emit(&mut out, fig9_json(&engine.fig9()));
    }
    if want("fig10") {
        emit(&mut out, fig10_json(&engine.fig10()));
    }
    if want("fig11") {
        emit(&mut out, runtime_json("fig11", &engine.fig11()));
    }
    if want("fig12") {
        emit(&mut out, runtime_json("fig12", &engine.fig12()));
        emit(&mut out, open_world_pairs_json(&engine.open_world_pairs()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_single_line_and_discriminated() {
        let rows = table6_json(&[Table6Row {
            name: "ktree",
            removed: [1, 2, 3],
        }]);
        assert_eq!(rows.len(), 1);
        let line = rows[0].encode();
        assert!(!line.contains('\n'));
        assert_eq!(
            line,
            r#"{"table":"table6","name":"ktree","removed":{"TypeDecl":1,"FieldTypeDecl":2,"SMFieldTypeRefs":3}}"#
        );
    }

    #[test]
    fn missing_measurements_encode_as_null() {
        let rows = table4_json(&[Table4Row {
            name: "slisp",
            lines: 10,
            instructions: None,
            heap_load_pct: None,
            other_load_pct: None,
            about: "interactive",
        }]);
        let line = rows[0].encode();
        assert!(line.contains(r#""instructions":null"#));
    }

    #[test]
    fn runtime_rows_key_pct_by_label() {
        let input = [RuntimeRow {
            name: "pp",
            pct: vec![97.5, 96.0],
            labels: vec!["RLE", "RLE Open"],
        }];
        let rows = runtime_json("fig8", &input);
        let line = rows[0].encode();
        assert!(line.starts_with(r#"{"table":"fig8","name":"pp","#));
        assert!(line.contains(r#""RLE":97.5"#));
    }
}
