//! The perf-regression gate behind `bench-report --check`.
//!
//! A report document mixes two kinds of data: **deterministic** fields
//! (instruction counts, stack references, cost-model totals, the full
//! per-run `vm.*`/`alloc.*` counter sets) that must be bit-identical
//! run to run on the same sources, and **wall-clock** tables whose
//! values depend on the machine of the day. The gate strips the
//! wall-clock tables ([`WALL_CLOCK_TABLES`]) from both the committed
//! baseline and a freshly built report and requires the rest to match
//! exactly — any drift means a PR changed counted events without
//! regenerating the baseline, which is precisely what CI should refuse.

use lesgs_metrics::Json;

use crate::sections::COMPILE_TIME;
use crate::suite_report::{DISPATCH_THROUGHPUT_TABLE, SERVICE_THROUGHPUT_TABLE, TIMING_TABLE};

/// The tables whose *values* are wall-clock-dependent and therefore
/// excluded from the deterministic projection. Everything else in a
/// report — including the `dispatch` code-size table, the
/// `service_cache` accounting table and every paper section but
/// `compile_time` — is covered by the gate. This is the one list of
/// wall-clock tables; CI and the docs refer to it.
pub const WALL_CLOCK_TABLES: &[&str] = &[
    TIMING_TABLE,
    DISPATCH_THROUGHPUT_TABLE,
    SERVICE_THROUGHPUT_TABLE,
    COMPILE_TIME,
];

/// Strips the wall-clock tables from a report document, leaving only
/// fields that are byte-identical across runs (and job counts) on the
/// same sources. Non-report documents pass through unchanged — the
/// comparison will then fail with an honest diff.
pub fn deterministic_projection(report: &Json) -> Json {
    let Some(fields) = report.as_object() else {
        return report.clone();
    };
    let filtered = fields.iter().map(|(k, v)| {
        let v = match (k.as_str(), v.as_array()) {
            ("tables", Some(tables)) => Json::array(
                tables
                    .iter()
                    .filter(|t| {
                        let name = t.get("name").and_then(|n| n.as_str());
                        !name.is_some_and(|n| WALL_CLOCK_TABLES.contains(&n))
                    })
                    .cloned(),
            ),
            _ => v.clone(),
        };
        (k.as_str(), v)
    });
    Json::object(filtered)
}

/// Compares the deterministic projections of a committed baseline and a
/// freshly built report.
///
/// # Errors
///
/// On drift, returns a message naming the first divergent line of the
/// pretty-printed projections (with the line number), so the failure is
/// actionable straight from a CI log.
pub fn check_reports(baseline: &Json, current: &Json) -> Result<(), String> {
    let want = deterministic_projection(baseline).pretty();
    let got = deterministic_projection(current).pretty();
    if want == got {
        return Ok(());
    }
    let mut want_lines = want.lines();
    let mut got_lines = got.lines();
    let mut line = 0usize;
    loop {
        line += 1;
        match (want_lines.next(), got_lines.next()) {
            (Some(w), Some(g)) if w == g => continue,
            (Some(w), Some(g)) => {
                return Err(format!(
                    "deterministic fields diverge at line {line}:\n\
                     baseline: {w}\n\
                     current:  {g}\n\
                     (regenerate the baseline with bench-report if the change is intended)"
                ))
            }
            (Some(w), None) => {
                return Err(format!(
                    "current report ends early at line {line}; baseline continues with: {w}"
                ))
            }
            (None, Some(g)) => {
                return Err(format!(
                    "current report has extra content at line {line}: {g}"
                ))
            }
            (None, None) => {
                // Same lines, different strings — only possible via
                // line terminators; report it rather than loop forever.
                return Err("reports differ only in line terminators".to_owned());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite_report::build_suite_report;
    use lesgs_suite::{all_benchmarks, Scale};

    fn tiny_report() -> Json {
        let benchmarks: Vec<_> = all_benchmarks().into_iter().take(2).collect();
        build_suite_report(benchmarks, Scale::Small, 1, |_| {})
            .report
            .to_json()
    }

    #[test]
    fn projection_strips_only_wall_clock_tables() {
        let report = tiny_report();
        let names = |j: &Json| -> Vec<String> {
            j.get("tables")
                .and_then(|t| t.as_array())
                .unwrap()
                .iter()
                .map(|t| t.get("name").and_then(|n| n.as_str()).unwrap().to_owned())
                .collect()
        };
        let (before, after) = (names(&report), names(&deterministic_projection(&report)));
        for table in WALL_CLOCK_TABLES {
            assert!(before.iter().any(|n| n == table), "report carries {table}");
        }
        let kept: Vec<_> = before
            .into_iter()
            .filter(|n| !WALL_CLOCK_TABLES.contains(&n.as_str()))
            .collect();
        assert_eq!(after, kept);
        for gated in ["comparisons", "dispatch", "service_cache", "table3"] {
            assert!(after.iter().any(|n| n == gated), "{gated} is gated");
        }
    }

    #[test]
    fn identical_runs_pass_and_wall_clock_drift_is_ignored() {
        // Two independent builds differ (at most) in wall-clock tables;
        // the gate must accept them.
        let a = tiny_report();
        let b = tiny_report();
        check_reports(&a, &b).unwrap();
    }

    #[test]
    fn perturbed_counter_fails_with_located_diff() {
        let a = tiny_report();
        // Hand-perturb one deterministic counter, as a regressing PR
        // effectively would.
        let text = a.pretty();
        let needle = "\"vm.instructions\": ";
        let at = text.find(needle).expect("run records carry counters") + needle.len();
        let end = at + text[at..].find([',', '\n']).unwrap();
        let mut perturbed = text.clone();
        perturbed.replace_range(at..end, "1");
        let b = lesgs_metrics::parse_json(&perturbed).unwrap();
        let err = check_reports(&a, &b).unwrap_err();
        assert!(err.contains("diverge at line"), "{err}");
        assert!(err.contains("vm.instructions"), "{err}");
    }

    #[test]
    fn edited_table3_average_fails_at_that_line() {
        let a = tiny_report();
        // Work on the projection so line numbers are the gate's own.
        let text = deterministic_projection(&a).pretty();
        let table3 = text.find("\"name\": \"table3\"").expect("table3 is gated");
        let average = table3 + text[table3..].find("\"Average\"").expect("Average row");
        // The row's next cell: lazy's mean stack-ref reduction.
        let start = average + text[average..].find('\n').unwrap() + 1;
        let end = start + text[start..].find('\n').unwrap();
        let line = text[..start].lines().count() + 1;
        let mut edited = text.clone();
        edited.replace_range(start..end, "            \"99%\",");
        assert_ne!(edited, text, "the edit must change the cell");
        let b = lesgs_metrics::parse_json(&edited).unwrap();
        let err = check_reports(&a, &b).unwrap_err();
        assert!(err.contains(&format!("diverge at line {line}:")), "{err}");
        assert!(err.contains("\"99%\""), "{err}");
    }
}
