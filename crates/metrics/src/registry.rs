//! The metrics registry: counters, gauges, histograms, and spans.
//!
//! A [`Registry`] is an ordered bag of named instruments:
//!
//! * **counters** — monotonically accumulated `u64` event counts
//!   (`vm.calls`, `alloc.save_sites`),
//! * **gauges** — point-in-time `f64` readings (`vm.effective_leaf_fraction`),
//! * **histograms** — summarized `f64` sample streams tracking count,
//!   sum, min, and max (`pass.alloc.wall_ns`).
//!
//! Span timing is layered on histograms: [`Registry::time`] runs a
//! closure and records its wall time in nanoseconds under
//! `<name>.wall_ns`; [`Registry::start_span`]/[`Registry::end_span`]
//! cover non-closure shapes. When tracing is enabled
//! ([`Registry::set_trace`]), every completed span also logs a
//! `trace: <name> <µs>` line to stderr, which is how `lesgsc --trace`
//! reports pass boundaries.
//!
//! A registry either records or discards. [`Registry::new`] records;
//! [`Registry::discard`] builds one that keeps nothing, which is what
//! every plain (unobserved) entry point of the pipeline passes: its
//! recording calls return at once, its spans read no clock unless
//! tracing is on, and callers skip derived counts behind
//! [`Registry::is_recording`]. A recording registry allocates only
//! for a name it does not hold yet.
//!
//! Instrument names are dot-separated paths (see OBSERVABILITY.md for
//! the full catalogue). Maps are ordered, so rendering and JSON export
//! are deterministic — a property the golden schema tests rely on.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// Summary of an observed sample stream.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Histogram {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Smallest sample (0 when empty).
    pub min: f64,
    /// Largest sample (0 when empty).
    pub max: f64,
}

impl Histogram {
    /// Records one sample.
    pub fn observe(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
    }

    /// Mean of the samples; 0 when empty (see [`crate::ratio`]).
    pub fn mean(&self) -> f64 {
        crate::ratio(self.sum, self.count as f64, 0.0)
    }

    /// Folds another summary into this one.
    fn absorb(&mut self, other: &Histogram) {
        if self.count == 0 {
            *self = *other;
        } else if other.count > 0 {
            self.count += other.count;
            self.sum += other.sum;
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

/// An in-flight span created by [`Registry::start_span`].
///
/// Close it with [`Registry::end_span`]; a dropped span records
/// nothing (deliberately — abandoned spans must not skew timings).
#[derive(Debug)]
pub struct Span<'a> {
    name: &'a str,
    /// `None` when the registry neither records nor traces.
    start: Option<Instant>,
}

/// An ordered collection of named counters, gauges, and histograms.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    trace: bool,
    discard: bool,
    /// Scratch buffer for span keys (`<name>.wall_ns`).
    key: String,
}

/// Applies `f` to the value under `name` in `map`, starting a new name
/// from `V::default()`. Only a new name allocates its key.
fn update<V: Default>(map: &mut BTreeMap<String, V>, name: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(name) {
        Some(v) => f(v),
        None => {
            let mut v = V::default();
            f(&mut v);
            map.insert(name.to_owned(), v);
        }
    }
}

impl Registry {
    /// Creates an empty registry that records.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Creates a registry that records nothing: every recording call
    /// returns at once, [`Registry::time`] runs its closure without
    /// reading the clock, and it stays empty. With
    /// [`Registry::set_trace`] on, spans still time themselves for
    /// their `trace:` lines. Plain entry points pass one to their
    /// observed versions.
    pub fn discard() -> Registry {
        Registry {
            discard: true,
            ..Registry::default()
        }
    }

    /// Whether this registry keeps what is recorded into it; callers
    /// compute a derived count (a tree walk, a ratio) only when it
    /// does.
    pub fn is_recording(&self) -> bool {
        !self.discard
    }

    /// Enables or disables span trace logging to stderr.
    pub fn set_trace(&mut self, trace: bool) {
        self.trace = trace;
    }

    /// Adds `by` to the counter `name`, creating it at zero.
    pub fn inc(&mut self, name: &str, by: u64) {
        if self.discard {
            return;
        }
        update(&mut self.counters, name, |c| *c += by);
    }

    /// Reads a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the gauge `name`.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        if self.discard {
            return;
        }
        update(&mut self.gauges, name, |g| *g = value);
    }

    /// Reads a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Records a sample into the histogram `name`.
    pub fn observe(&mut self, name: &str, value: f64) {
        if self.discard {
            return;
        }
        update(&mut self.histograms, name, |h| h.observe(value));
    }

    /// Folds an already-summarized sample stream into the histogram
    /// `name` — the bridge for subsystems (like the `lesgs-exec` pool)
    /// that aggregate their own [`Histogram`] before reporting.
    pub fn observe_summary(&mut self, name: &str, summary: &Histogram) {
        if self.discard || summary.count == 0 {
            return;
        }
        update(&mut self.histograms, name, |h| h.absorb(summary));
    }

    /// Reads a histogram.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Times `f`, recording wall time in nanoseconds under
    /// `<name>.wall_ns` (and logging a trace line when enabled).
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let span = self.start_span(name);
        let r = f();
        self.end_span(span);
        r
    }

    /// Starts a span; pair with [`Registry::end_span`].
    pub fn start_span<'a>(&mut self, name: &'a str) -> Span<'a> {
        Span {
            name,
            start: (!self.discard || self.trace).then(Instant::now),
        }
    }

    /// Ends a span, recording its wall time under `<name>.wall_ns`.
    pub fn end_span(&mut self, span: Span<'_>) {
        let Some(start) = span.start else {
            return;
        };
        let ns = start.elapsed().as_nanos() as f64;
        if self.trace {
            eprintln!("trace: {} {:.1}us", span.name, ns / 1e3);
        }
        if self.discard {
            return;
        }
        self.key.clear();
        self.key.push_str(span.name);
        self.key.push_str(".wall_ns");
        update(&mut self.histograms, &self.key, |h| h.observe(ns));
    }

    /// Folds another registry into this one: counters add, gauges
    /// overwrite, histograms merge.
    pub fn merge(&mut self, other: &Registry) {
        if self.discard {
            return;
        }
        for (k, v) in &other.counters {
            update(&mut self.counters, k, |c| *c += v);
        }
        for (k, v) in &other.gauges {
            update(&mut self.gauges, k, |g| *g = *v);
        }
        for (k, h) in &other.histograms {
            update(&mut self.histograms, k, |into| into.absorb(h));
        }
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Exports the registry as a JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
    ///
    /// Histograms serialize as
    /// `{"count": n, "sum": s, "min": m, "max": M, "mean": µ}`.
    /// With `include_timings` false, `*.wall_ns` histograms are
    /// dropped — the deterministic form golden tests compare.
    pub fn to_json(&self, include_timings: bool) -> Json {
        let counters = Json::Object(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                .collect(),
        );
        let gauges = Json::Object(
            self.gauges
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                .collect(),
        );
        let histograms = Json::Object(
            self.histograms
                .iter()
                .filter(|(k, _)| include_timings || !k.ends_with(".wall_ns"))
                .map(|(k, h)| {
                    (
                        k.clone(),
                        Json::object([
                            ("count", Json::UInt(h.count)),
                            ("sum", Json::Num(h.sum)),
                            ("min", Json::Num(h.min)),
                            ("max", Json::Num(h.max)),
                            ("mean", Json::Num(h.mean())),
                        ]),
                    )
                })
                .collect(),
        );
        Json::object([
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", histograms),
        ])
    }

    /// Renders the registry as an aligned human-readable table, the
    /// `lesgsc --profile` output format.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let width = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .map(|k| k.len())
            .max()
            .unwrap_or(0);
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in &self.counters {
                out.push_str(&format!("  {k:<width$}  {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (k, v) in &self.gauges {
                out.push_str(&format!("  {k:<width$}  {v:.4}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (k, h) in &self.histograms {
                let (scale, unit) = if k.ends_with("wall_ns") {
                    (1e3, "us")
                } else {
                    (1.0, "")
                };
                out.push_str(&format!(
                    "  {k:<width$}  n={} mean={:.1}{unit} min={:.1}{unit} max={:.1}{unit}\n",
                    h.count,
                    h.mean() / scale,
                    h.min / scale,
                    h.max / scale,
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn counters_accumulate() {
        let mut r = Registry::new();
        r.inc("vm.calls", 2);
        r.inc("vm.calls", 3);
        assert_eq!(r.counter("vm.calls"), 5);
        assert_eq!(r.counter("absent"), 0);
    }

    #[test]
    fn histogram_summary() {
        let mut h = Histogram::default();
        assert_eq!(h.mean(), 0.0);
        for v in [4.0, 2.0, 6.0] {
            h.observe(v);
        }
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 2.0);
        assert_eq!(h.max, 6.0);
        assert!((h.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn time_records_span() {
        let mut r = Registry::new();
        let v = r.time("pass.demo", || 41 + 1);
        assert_eq!(v, 42);
        let h = r.histogram("pass.demo.wall_ns").unwrap();
        assert_eq!(h.count, 1);
        assert!(h.sum >= 0.0);
    }

    #[test]
    fn a_discarding_registry_keeps_nothing_even_when_tracing() {
        for trace in [false, true] {
            let mut r = Registry::discard();
            r.set_trace(trace);
            assert!(!r.is_recording());
            r.inc("c", 1);
            r.set_gauge("g", 1.0);
            r.observe("h", 1.0);
            assert_eq!(r.time("pass.demo", || 7), 7);
            let mut other = Registry::new();
            other.inc("c", 2);
            r.merge(&other);
            assert_eq!(r.to_json(true), Registry::new().to_json(true));
        }
    }

    #[test]
    fn observe_summary_folds_summaries() {
        let mut r = Registry::new();
        let mut h = Histogram::default();
        h.observe(2.0);
        h.observe(8.0);
        r.observe("q", 5.0);
        r.observe_summary("q", &h);
        r.observe_summary("q", &Histogram::default()); // no-op
        let q = r.histogram("q").unwrap();
        assert_eq!((q.count, q.min, q.max), (3, 2.0, 8.0));
        assert!((q.sum - 15.0).abs() < 1e-12);
        // Into an empty slot, the summary is taken verbatim.
        r.observe_summary("fresh", &h);
        assert_eq!(r.histogram("fresh").unwrap().count, 2);
    }

    #[test]
    fn merge_combines() {
        let mut a = Registry::new();
        a.inc("c", 1);
        a.observe("h", 1.0);
        let mut b = Registry::new();
        b.inc("c", 2);
        b.observe("h", 5.0);
        b.set_gauge("g", 0.5);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.gauge("g"), Some(0.5));
        let h = a.histogram("h").unwrap();
        assert_eq!((h.count, h.min, h.max), (2, 1.0, 5.0));
    }

    #[test]
    fn json_export_is_valid_and_filters_timings() {
        let mut r = Registry::new();
        r.inc("vm.calls", 7);
        r.set_gauge("frac", 0.25);
        r.time("pass.p", || ());
        r.observe("other.hist", 2.0);
        let with = r.to_json(true);
        let without = r.to_json(false);
        assert!(with
            .get("histograms")
            .unwrap()
            .get("pass.p.wall_ns")
            .is_some());
        assert!(without
            .get("histograms")
            .unwrap()
            .get("pass.p.wall_ns")
            .is_none());
        assert!(without
            .get("histograms")
            .unwrap()
            .get("other.hist")
            .is_some());
        let reparsed = parse(&with.pretty()).unwrap();
        assert_eq!(
            reparsed
                .get("counters")
                .unwrap()
                .get("vm.calls")
                .unwrap()
                .as_u64(),
            Some(7)
        );
    }

    #[test]
    fn table_renders_every_section() {
        let mut r = Registry::new();
        r.inc("a.count", 1);
        r.set_gauge("b.gauge", 1.5);
        r.time("c.pass", || ());
        let t = r.render_table();
        assert!(t.contains("counters:"));
        assert!(t.contains("gauges:"));
        assert!(t.contains("histograms:"));
        assert!(t.contains("a.count"));
    }
}
