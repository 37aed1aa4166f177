//! `BENCHMARK.json` at the repository root declares exactly the
//! metrics, with the units, that the benchmark prints.

use perfbench::{Workload, END_TO_END, PER_LAYER};

#[test]
fn benchmark_json_matches_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json: String = text.chars().filter(|c| !c.is_whitespace()).collect();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(json.contains(&format!("\"name\":\"{}\",\"why\"", w.name())));
    }
    let declared = json.matches("\"name\":").count();
    assert_eq!(
        declared,
        END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
    );
}

#[test]
fn the_result_line_has_the_contract_keys() {
    let mut out = perfbench::Outcome::default();
    out.op(true, String::new);
    out.set("setup_s", 0.5);
    let line = out.to_json();
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {"));
    assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
}
