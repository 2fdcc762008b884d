//! The shared JSON report schema.
//!
//! `bench-report` prints every section of the paper's evaluation as a
//! human-readable table and writes the same data, plus structured
//! per-run records for the whole suite, as one [`Report`] document. The
//! schema is documented in OBSERVABILITY.md ("Benchmark report schema").
//!
//! Layout of a report document:
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "tool": "lesgs-bench",
//!   "experiment": "bench-report",
//!   "title": "...",
//!   "scale": "standard",
//!   "tables": [ {"name": "...", "columns": [...], "rows": [[...]]} ],
//!   "runs": [ {"benchmark": "tak", "config": "paper_default",
//!              "value": "7", "metrics": {"counters": {...},
//!              "gauges": {...}}} ],
//!   "notes": ["..."]
//! }
//! ```
//!
//! `tables` mirrors the rendered text tables cell-for-cell (all cells
//! are strings, exactly as printed). `runs` carries the raw counters a
//! downstream tool would want instead of re-parsing formatted cells.

use lesgs_metrics::{Json, Registry};
use lesgs_suite::tables::Table;
use lesgs_suite::{BenchmarkRun, Scale};

/// Version of the report document layout. Bump on breaking changes to
/// field names or nesting (adding fields is not breaking).
pub const SCHEMA_VERSION: u64 = 1;

/// One experiment's results in the shared schema.
#[derive(Debug, Clone)]
pub struct Report {
    experiment: String,
    title: String,
    scale: String,
    tables: Vec<(String, Table)>,
    runs: Vec<Json>,
    notes: Vec<String>,
}

impl Report {
    /// Starts a report for the named experiment (e.g. `"bench-report"`).
    pub fn new(experiment: &str, title: &str, scale: Scale) -> Report {
        Report {
            experiment: experiment.to_owned(),
            title: title.to_owned(),
            scale: scale_name(scale).to_owned(),
            tables: Vec::new(),
            runs: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Adds a rendered table under `name` (cells kept verbatim).
    pub fn add_table(&mut self, name: &str, table: &Table) {
        self.tables.push((name.to_owned(), table.clone()));
    }

    /// Adds a structured per-run record (see [`run_record`]).
    pub fn add_run(&mut self, record: Json) {
        self.runs.push(record);
    }

    /// Appends a free-form note (paper numbers, expected shapes).
    pub fn note(&mut self, text: &str) {
        self.notes.push(text.to_owned());
    }

    /// Serializes the report.
    pub fn to_json(&self) -> Json {
        let strings = |cells: &[String]| Json::array(cells.iter().map(|c| Json::from(c.as_str())));
        let tables = self.tables.iter().map(|(name, table)| {
            Json::object([
                ("name", Json::from(name.as_str())),
                ("columns", strings(table.headers())),
                ("rows", Json::array(table.rows().iter().map(|r| strings(r)))),
            ])
        });
        Json::object([
            ("schema_version", Json::UInt(SCHEMA_VERSION)),
            ("tool", Json::from("lesgs-bench")),
            ("experiment", Json::from(self.experiment.as_str())),
            ("title", Json::from(self.title.as_str())),
            ("scale", Json::from(self.scale.as_str())),
            ("tables", Json::array(tables)),
            ("runs", Json::array(self.runs.iter().cloned())),
            ("notes", strings(&self.notes)),
        ])
    }
}

/// Stable lower-case name for a scale.
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Small => "small",
        Scale::Standard => "standard",
    }
}

/// Builds the structured record for one benchmark run under one named
/// configuration: the full `vm.*` and `alloc.*` counter/gauge sets
/// from the metrics registry, plus the program's final value.
/// Deterministic (no wall times), so records are golden-testable.
pub fn run_record(config: &str, run: &BenchmarkRun) -> Json {
    let mut reg = Registry::new();
    run.stats.record(&mut reg);
    run.shuffle.record(&mut reg);
    Json::object([
        ("benchmark", Json::from(run.name.as_str())),
        ("config", Json::from(config)),
        ("value", Json::from(run.value.as_str())),
        ("metrics", reg.to_json(false)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use lesgs_metrics::parse_json;
    use lesgs_suite::programs::benchmark;

    #[test]
    fn report_round_trips_through_the_parser() {
        let mut t = Table::new(vec!["benchmark".into(), "refs".into()]);
        t.row(vec!["tak".into(), "123".into()]);
        let mut r = Report::new("table3", "Save strategies", Scale::Small);
        r.add_table("main", &t);
        r.note("paper: lazy 72%/43%");
        let text = r.to_json().pretty();
        let doc = parse_json(&text).expect("valid JSON");
        assert_eq!(doc.get("schema_version").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(
            doc.get("experiment").and_then(|v| v.as_str()),
            Some("table3")
        );
        assert_eq!(doc.get("scale").and_then(|v| v.as_str()), Some("small"));
        let tables = doc
            .get("tables")
            .and_then(|t| t.as_array())
            .expect("tables");
        assert_eq!(tables.len(), 1);
        assert_eq!(
            tables[0]
                .get("columns")
                .and_then(|c| c.as_array())
                .map(|c| c.len()),
            Some(2)
        );
    }

    #[test]
    fn run_record_is_deterministic() {
        let b = benchmark("tak").expect("tak exists");
        let cfg = lesgs_suite::RunConfig::paper_default();
        let a = lesgs_suite::measure(&b, Scale::Small, cfg).expect("runs");
        let b2 = lesgs_suite::measure(&b, Scale::Small, cfg).expect("runs");
        assert_eq!(
            run_record("paper_default", &a).pretty(),
            run_record("paper_default", &b2).pretty()
        );
        let rec = run_record("paper_default", &a);
        let counters = rec
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .expect("counters");
        assert!(counters.get("vm.instructions").and_then(|v| v.as_u64()) > Some(0));
        assert!(counters.get("alloc.call_sites").is_some());
    }
}
