//! Experiment report rendering: plain-text tables for humans and the
//! versioned JSON envelope every machine-readable snapshot
//! (`BENCH_*.json`) shares.

use std::fmt::Write as _;

/// Version of the snapshot JSON envelope. Bumped whenever the envelope
/// layout (not the tool-specific metric keys) changes shape; diff
/// tooling keys on it. Version 1 was the pre-envelope flat object
/// written by the original `perf_snapshot`/`goodput_snapshot` bins;
/// version 2 introduced the `{schema_version, tool, config, metrics}`
/// envelope; version 3 adds the guided-search metrics (`strategy`,
/// `descent_steps`, `candidates_verified`, `evals_saved_pct`) to the
/// `search` tool's snapshot; version 4 adds the `serve` tool
/// (`BENCH_serve.json`: queries/sec, p50/p99 latency, memo hit rates
/// under the concurrent mixed grid workload); version 5 adds the
/// `infer` tool (`BENCH_infer.json`: tokens/sec and SLO attainment
/// over the three-traffic-shape grid) and the `workload` config key on
/// the `search` snapshot. Since then the `bench` and `serve` envelopes
/// and every wall-clock metric have been dropped; the layout did not
/// change, so neither did the version.
pub const SCHEMA_VERSION: u32 = 5;

/// One JSON value: either a raw literal (number, bool — already
/// formatted by the caller, so formatting precision is part of the
/// call site) or a string that needs quoting and escaping.
#[derive(Debug, Clone)]
enum Json {
    Raw(String),
    Str(String),
}

impl Json {
    fn render(&self) -> String {
        match self {
            Json::Raw(v) => v.clone(),
            Json::Str(v) => {
                let mut out = String::with_capacity(v.len() + 2);
                out.push('"');
                for c in v.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
                out
            }
        }
    }
}

/// The shared envelope for machine-readable snapshot outputs:
/// `{ schema_version, tool, config, metrics }`.
///
/// * `tool` names the emitter (`"goodput"`, `"search"`, `"infer"`,
///   `"trace"`);
/// * `config` records what was run (model, cluster, seeds, flags) so a
///   diff across commits can tell an input change from a regression;
/// * `metrics` holds the computed values, in insertion order. They are
///   deterministic: wall-clock timing belongs to `perfbench`.
///
/// Every snapshot emitter builds one of these; the envelope shape is
/// asserted by tests, so tools consuming `BENCH_*.json` can rely on it
/// regardless of which subcommand wrote the file.
#[derive(Debug, Clone)]
pub struct Report {
    tool: String,
    config: Vec<(String, Json)>,
    metrics: Vec<(String, Json)>,
}

impl Report {
    /// Creates an empty envelope for `tool`.
    pub fn new(tool: impl Into<String>) -> Report {
        Report {
            tool: tool.into(),
            config: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// The emitting tool's name.
    pub fn tool(&self) -> &str {
        &self.tool
    }

    /// Appends a raw (number/bool) config entry. `value` is rendered
    /// verbatim, so pre-format floats to the precision the snapshot
    /// should pin.
    pub fn config(mut self, key: impl Into<String>, value: impl std::fmt::Display) -> Report {
        self.config.push((key.into(), Json::Raw(value.to_string())));
        self
    }

    /// Appends a string config entry (quoted and escaped).
    pub fn config_str(mut self, key: impl Into<String>, value: impl Into<String>) -> Report {
        self.config.push((key.into(), Json::Str(value.into())));
        self
    }

    /// Appends a raw (number/bool) metric.
    pub fn metric(mut self, key: impl Into<String>, value: impl std::fmt::Display) -> Report {
        self.metrics.push((key.into(), Json::Raw(value.to_string())));
        self
    }

    /// Appends a string metric (quoted and escaped).
    pub fn metric_str(mut self, key: impl Into<String>, value: impl Into<String>) -> Report {
        self.metrics.push((key.into(), Json::Str(value.into())));
        self
    }

    /// Looks up a metric's rendered value (tests and assertions).
    pub fn metric_value(&self, key: &str) -> Option<String> {
        self.metrics
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.render())
    }

    fn render_object(entries: &[(String, Json)], indent: &str) -> String {
        if entries.is_empty() {
            return "{}".to_string();
        }
        let mut out = String::from("{\n");
        for (i, (k, v)) in entries.iter().enumerate() {
            let comma = if i + 1 == entries.len() { "" } else { "," };
            let _ = writeln!(out, "{indent}  \"{k}\": {}{comma}", v.render());
        }
        let _ = write!(out, "{indent}}}");
        out
    }

    /// Renders the full envelope as pretty-printed JSON.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema_version\": {SCHEMA_VERSION},");
        let _ = writeln!(out, "  \"tool\": {},", Json::Str(self.tool.clone()).render());
        let _ = writeln!(out, "  \"config\": {},", Report::render_object(&self.config, "  "));
        let _ = writeln!(out, "  \"metrics\": {}", Report::render_object(&self.metrics, "  "));
        out.push_str("}\n");
        out
    }

    /// Writes the rendered envelope to `path`.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.render_json())
    }
}

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    ///
    /// # Panics
    /// Panics if the cell count does not match the header count.
    pub fn row(&mut self, cells: &[String]) -> &mut Table {
        assert_eq!(cells.len(), self.headers.len(), "cell count mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Convenience: appends a row of `&str`.
    pub fn row_str(&mut self, cells: &[&str]) -> &mut Table {
        self.row(&cells.iter().map(|c| c.to_string()).collect::<Vec<_>>())
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::from("| ");
            for (c, w) in cells.iter().zip(widths) {
                let pad = w - c.chars().count();
                s.push_str(c);
                s.push_str(&" ".repeat(pad));
                s.push_str(" | ");
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 3 * widths.len() + 1;
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }
}

/// Formats a number of bytes as GiB.
pub fn gib(bytes: u64) -> String {
    format!("{:.1} GiB", bytes as f64 / (1u64 << 30) as f64)
}

/// Formats a ratio as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.2} %", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["a", "bb"]);
        t.row_str(&["1", "2"]).row_str(&["333", "4"]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("| 333 | 4"));
    }

    #[test]
    fn helpers() {
        assert_eq!(gib(1 << 30), "1.0 GiB");
        assert_eq!(pct(0.0764), "7.64 %");
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn bad_row_panics() {
        Table::new("x", &["a"]).row_str(&["1", "2"]);
    }

    #[test]
    fn envelope_has_the_versioned_shape() {
        let r = Report::new("search")
            .config_str("model", "llama3-405b")
            .config("gpus", 16_384)
            .metric("candidates", 2538)
            .metric("frontier_best_step_s", format!("{:.3}", 14.5))
            .metric("paper_mesh_on_frontier", true);
        let j = r.render_json();
        // The four envelope fields, in order, with schema_version first.
        let pos = |needle: &str| j.find(needle).unwrap_or_else(|| panic!("missing {needle} in {j}"));
        assert!(pos("\"schema_version\": 5") < pos("\"tool\": \"search\""));
        assert!(pos("\"tool\"") < pos("\"config\": {"));
        assert!(pos("\"config\"") < pos("\"metrics\": {"));
        assert!(j.contains("\"model\": \"llama3-405b\""));
        assert!(j.contains("\"gpus\": 16384"));
        assert!(j.contains("\"frontier_best_step_s\": 14.500"));
        assert!(j.contains("\"paper_mesh_on_frontier\": true"));
        assert_eq!(r.metric_value("candidates").as_deref(), Some("2538"));
        // No trailing commas before closing braces.
        assert!(!j.contains(",\n}") && !j.contains(",\n  }"));
    }

    #[test]
    fn envelope_escapes_strings_and_handles_empty_objects() {
        let j = Report::new("bench").metric_str("note", "a \"b\"\\\n").render_json();
        assert!(j.contains("\"note\": \"a \\\"b\\\"\\\\\\n\""));
        assert!(j.contains("\"config\": {},"));
    }
}
