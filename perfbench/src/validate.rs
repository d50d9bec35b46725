//! Checks `BENCHMARK.json` and `layers.json` against the metric names this
//! program prints.

use std::collections::BTreeSet;

use serde::Value;

use crate::report::{END_TO_END, PER_LAYER};
use crate::WORKLOADS;

fn load(file: &str) -> Value {
    let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Map(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key}")),
        _ => panic!("not an object where {key} was expected"),
    }
}

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Map(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("not an object"),
    }
}

fn seq(v: &Value) -> &[Value] {
    match v {
        Value::Seq(items) => items,
        _ => panic!("not an array"),
    }
}

fn str_of(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        _ => panic!("not a string"),
    }
}

fn num(v: &Value) -> f64 {
    match v {
        Value::F64(f) => *f,
        Value::U64(u) => *u as f64,
        Value::I64(i) => *i as f64,
        _ => panic!("not a number"),
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn benchmark_json_matches_the_program() {
    let b = load("../BENCHMARK.json");
    assert_eq!(
        keys(&b),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let command = seq(get(&b, "command"));
    assert!(!command.is_empty() && command.len() <= 32);
    for arg in command.iter().map(str_of) {
        assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
    }
    let paths: Vec<&str> = seq(get(&b, "paths")).iter().map(str_of).collect();
    assert_eq!(paths, ["perfbench"]);
    let run_seconds = num(get(&b, "run_seconds"));
    assert!(run_seconds.fract() == 0.0 && (1.0..=60.0).contains(&run_seconds));

    let mut names = BTreeSet::new();
    let workloads = seq(get(&b, "workloads"));
    assert!((2..=8).contains(&workloads.len()));
    let listed: Vec<&str> = workloads
        .iter()
        .map(|w| {
            assert_eq!(keys(w), ["name", "why"]);
            let why = str_of(get(w, "why"));
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
            str_of(get(w, "name"))
        })
        .collect();
    assert_eq!(listed, WORKLOADS);

    let e2e = seq(get(&b, "end_to_end"));
    assert!((1..=16).contains(&e2e.len()));
    let mut setup_bound = None;
    let mut max_other_bound: f64 = 0.0;
    for (m, &(name, unit)) in e2e.iter().zip(END_TO_END) {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        assert_eq!(str_of(get(m, "name")), name);
        assert_eq!(str_of(get(m, "unit")), unit);
        assert!(matches!(str_of(get(m, "better")), "lower" | "higher"));
        let bound = num(get(m, "bound"));
        assert!(bound > 0.0 && bound <= 0.25, "{name} bound {bound}");
        if name == "setup_s" {
            assert_eq!((unit, str_of(get(m, "better"))), ("s", "lower"));
            setup_bound = Some(bound);
        } else {
            max_other_bound = max_other_bound.max(bound);
        }
    }
    assert_eq!(e2e.len(), END_TO_END.len());
    assert!(setup_bound.expect("setup_s is an end-to-end metric") >= max_other_bound);

    let per_layer = seq(get(&b, "per_layer"));
    assert!((1..=128).contains(&per_layer.len()));
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (m, &(name, unit)) in per_layer.iter().zip(PER_LAYER) {
        assert_eq!(keys(m), ["name", "unit", "better"]);
        assert_eq!(str_of(get(m, "name")), name);
        assert_eq!(str_of(get(m, "unit")), unit);
        assert!(matches!(str_of(get(m, "better")), "lower" | "higher"));
    }
    for name in listed
        .iter()
        .copied()
        .chain(END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n))
    {
        assert!(valid_name(name), "bad name {name}");
        assert!(names.insert(name), "name {name} used twice");
    }
    for (_, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_unit(unit), "bad unit {unit}");
    }
}

#[test]
fn layers_json_maps_every_metric() {
    let l = load("layers.json");
    let workloads = get(&l, "workloads");
    assert_eq!(keys(workloads), WORKLOADS);
    let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    for w in WORKLOADS {
        let defs = get(get(workloads, w), "end_to_end");
        assert_eq!(keys(defs), e2e, "{w} must define every end-to-end metric");
        assert!(!str_of(get(get(workloads, w), "inputs")).is_empty());
    }
    let per_layer = get(&l, "per_layer");
    let names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    assert_eq!(keys(per_layer), names);
    for name in names {
        let m = get(per_layer, name);
        assert!(!str_of(get(m, "how")).is_empty());
        for moved in seq(get(m, "moves")).iter().map(str_of) {
            assert!(e2e.contains(&moved), "{name} moves unknown {moved}");
        }
        for key in ["on", "idle_on"] {
            for w in seq(get(m, key)).iter().map(str_of) {
                assert!(WORKLOADS.contains(&w), "{name} names unknown workload {w}");
            }
        }
    }
}

#[test]
fn name_rules() {
    assert!(valid_name("lda.step_ms_p50"));
    assert!(valid_name("train-k3-inmem"));
    assert!(!valid_name("_x"));
    assert!(!valid_name("a b"));
    assert!(valid_unit("1/s"));
    assert!(!valid_unit("µs"));
}
