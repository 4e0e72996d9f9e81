//! Scoped phase timers building a [`RunReport`] tree.
//!
//! A [`Recorder`] is a cheap cloneable handle (an `Option<Arc<..>>`) that
//! algorithms thread through their internal entry points. Opening a
//! [`Span`] starts a phase; dropping the guard closes it and records the
//! wall time. Spans nest: a span opened while another is open becomes its
//! child, so PLM naturally produces `level-0 → move-phase / coarsen`
//! trees. Counters and series attach to the *innermost open* span (or to
//! the run itself when no span is open).
//!
//! The disabled recorder (`Recorder::disabled()`) carries `None` and every
//! operation is an early-out on that discriminant — no clock reads, no
//! allocation, no locking. This is the "zero-cost when off" contract the
//! hot loops rely on.

use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::report::{PhaseReport, RunReport};

/// Arena index of the implicit run-level root node.
const ROOT: usize = 0;

#[derive(Debug)]
struct Node {
    name: String,
    started: Option<Instant>,
    wall_seconds: f64,
    counters: Vec<(String, u64)>,
    series: Vec<(String, Vec<f64>)>,
    children: Vec<usize>,
}

impl Node {
    fn new(name: String, started: Option<Instant>) -> Self {
        Self {
            name,
            started,
            wall_seconds: 0.0,
            counters: Vec::new(),
            series: Vec::new(),
            children: Vec::new(),
        }
    }
}

#[derive(Debug)]
struct State {
    /// Span arena; node 0 is the implicit run-level root.
    nodes: Vec<Node>,
    /// Arena indices of currently-open spans, outermost first.
    open: Vec<usize>,
    metrics: Vec<(String, f64)>,
    sub_reports: Vec<RunReport>,
}

impl State {
    fn new() -> Self {
        Self {
            nodes: vec![Node::new(String::new(), None)],
            open: Vec::new(),
            metrics: Vec::new(),
            sub_reports: Vec::new(),
        }
    }

    fn innermost(&self) -> usize {
        self.open.last().copied().unwrap_or(ROOT)
    }

    fn add_counter(&mut self, node: usize, name: &str, n: u64) {
        let counters = &mut self.nodes[node].counters;
        match counters.iter_mut().find(|(k, _)| k == name) {
            Some((_, v)) => *v += n,
            None => counters.push((name.to_string(), n)),
        }
    }

    /// The named series of `node`, created empty on first use.
    fn series_mut(&mut self, node: usize, name: &str) -> &mut Vec<f64> {
        let series = &mut self.nodes[node].series;
        let at = match series.iter().position(|(k, _)| k == name) {
            Some(at) => at,
            None => {
                series.push((name.to_string(), Vec::new()));
                series.len() - 1
            }
        };
        &mut series[at].1
    }

    fn push_series(&mut self, node: usize, name: &str, value: f64) {
        self.series_mut(node, name).push(value);
    }

    fn into_phase(nodes: &mut [Node], id: usize) -> PhaseReport {
        let children: Vec<usize> = std::mem::take(&mut nodes[id].children);
        let children = children
            .into_iter()
            .map(|c| Self::into_phase(nodes, c))
            .collect();
        let node = &mut nodes[id];
        PhaseReport {
            name: std::mem::take(&mut node.name),
            wall_seconds: node.wall_seconds,
            counters: std::mem::take(&mut node.counters),
            series: std::mem::take(&mut node.series),
            children,
        }
    }
}

/// Handle used to record phases, counters, series and metrics for one run.
///
/// Cloning is cheap and clones share the same underlying report; a
/// disabled recorder makes every operation a no-op.
#[derive(Clone, Debug)]
pub struct Recorder {
    inner: Option<Arc<Mutex<State>>>,
}

impl Recorder {
    /// A recording recorder.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(Mutex::new(State::new()))),
        }
    }

    /// The no-op recorder: records nothing, costs (almost) nothing.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// True when this recorder is actually recording. Use to skip work
    /// that only exists to feed the report (e.g. collecting sub-reports).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a phase span; the returned guard closes it on drop. A span
    /// opened while another is open becomes its child.
    pub fn span(&self, name: &str) -> Span {
        self.open_span(|| name.to_string())
    }

    /// Like [`span`](Self::span) for dynamic names (`level-{depth}`),
    /// formatting only when the recorder is enabled.
    pub fn span_fmt(&self, name: fmt::Arguments<'_>) -> Span {
        self.open_span(|| name.to_string())
    }

    fn open_span(&self, name: impl FnOnce() -> String) -> Span {
        let Some(inner) = &self.inner else {
            return Span {
                recorder: Self::disabled(),
                node: ROOT,
            };
        };
        let mut st = inner.lock().unwrap();
        let id = st.nodes.len();
        st.nodes.push(Node::new(name(), Some(Instant::now())));
        let parent = st.innermost();
        st.nodes[parent].children.push(id);
        st.open.push(id);
        Span {
            recorder: self.clone(),
            node: id,
        }
    }

    /// Adds `n` to the named counter on the innermost open span (or the
    /// run itself). Repeated calls with the same name accumulate.
    pub fn counter(&self, name: &str, n: u64) {
        if let Some(inner) = &self.inner {
            let mut st = inner.lock().unwrap();
            let node = st.innermost();
            st.add_counter(node, name, n);
        }
    }

    /// Appends one value to the named series on the innermost open span
    /// (or the run itself). Useful for per-iteration measurements.
    pub fn push_series(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            let mut st = inner.lock().unwrap();
            let node = st.innermost();
            st.push_series(node, name, value);
        }
    }

    /// Records a run-level scalar metric (e.g. final modularity). Later
    /// values for the same name overwrite earlier ones.
    pub fn metric(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            let mut st = inner.lock().unwrap();
            match st.metrics.iter_mut().find(|(k, _)| k == name) {
                Some((_, v)) => *v = value,
                None => st.metrics.push((name.to_string(), value)),
            }
        }
    }

    /// Attaches the report of a constituent run (an EPP ensemble member,
    /// the final-phase algorithm) to this run.
    pub fn sub_report(&self, report: RunReport) {
        if let Some(inner) = &self.inner {
            inner.lock().unwrap().sub_reports.push(report);
        }
    }

    /// Closes the recorder and produces the report. Open spans are closed
    /// as of now. Other clones of this recorder keep working but record
    /// into a tree that has already been harvested, so call this last.
    pub fn finish(self, algorithm: impl Into<String>) -> RunReport {
        let Some(inner) = self.inner else {
            return RunReport::empty(algorithm);
        };
        let mut st = inner.lock().unwrap();
        for id in std::mem::take(&mut st.open) {
            if let Some(started) = st.nodes[id].started.take() {
                st.nodes[id].wall_seconds = started.elapsed().as_secs_f64();
            }
        }
        let children: Vec<usize> = std::mem::take(&mut st.nodes[ROOT].children);
        let phases = children
            .into_iter()
            .map(|c| State::into_phase(&mut st.nodes, c))
            .collect();
        RunReport {
            algorithm: algorithm.into(),
            counters: std::mem::take(&mut st.nodes[ROOT].counters),
            series: std::mem::take(&mut st.nodes[ROOT].series),
            metrics: std::mem::take(&mut st.metrics),
            phases,
            sub_reports: std::mem::take(&mut st.sub_reports),
            termination: None,
            cut_phase: None,
        }
    }
}

impl Default for Recorder {
    /// The *disabled* recorder: instrumentation is opt-in.
    fn default() -> Self {
        Self::disabled()
    }
}

/// Guard for an open phase; closes the phase (recording its wall time)
/// when dropped.
#[derive(Debug)]
#[must_use = "dropping the span immediately records a zero-length phase"]
pub struct Span {
    recorder: Recorder,
    node: usize,
}

impl Span {
    /// Adds `n` to the named counter on *this* span, which may no longer
    /// be the innermost one.
    pub fn counter(&self, name: &str, n: u64) {
        if let Some(inner) = &self.recorder.inner {
            inner.lock().unwrap().add_counter(self.node, name, n);
        }
    }

    /// Appends one value to the named series on *this* span.
    pub fn push_series(&self, name: &str, value: f64) {
        if let Some(inner) = &self.recorder.inner {
            inner.lock().unwrap().push_series(self.node, name, value);
        }
    }

    /// Makes the named series exist on *this* span even if nothing is
    /// ever pushed to it, so a loop that ran zero times still reports it
    /// (as `[]`).
    pub fn declare_series(&self, name: &str) {
        if let Some(inner) = &self.recorder.inner {
            inner.lock().unwrap().series_mut(self.node, name);
        }
    }

    /// Closes the span now, before end of scope.
    pub fn close(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = &self.recorder.inner {
            let mut st = inner.lock().unwrap();
            if let Some(started) = st.nodes[self.node].started.take() {
                st.nodes[self.node].wall_seconds = started.elapsed().as_secs_f64();
            }
            // Un-nest: drop this span (and any children left open, which
            // keeps attachment sane even if guards drop out of order).
            if let Some(at) = st.open.iter().position(|&id| id == self.node) {
                st.open.truncate(at);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_form_a_tree_and_child_wall_fits_in_parent() {
        let rec = Recorder::enabled();
        {
            let _outer = rec.span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = rec.span("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let report = rec.finish("t");
        let outer = report.phase("outer").expect("outer phase");
        let inner = outer.child("inner").expect("inner nested under outer");
        assert!(inner.wall_seconds > 0.0);
        assert!(outer.wall_seconds >= outer.children_wall_seconds());
        assert!(report.phase("inner").is_none(), "inner is not top-level");
    }

    #[test]
    fn counters_and_series_attach_to_innermost_open_span() {
        let rec = Recorder::enabled();
        rec.counter("run-level", 1);
        {
            let _phase = rec.span("phase");
            rec.counter("moves", 3);
            rec.counter("moves", 4);
            rec.push_series("updated", 10.0);
            rec.push_series("updated", 5.0);
        }
        rec.metric("modularity", 0.5);
        rec.metric("modularity", 0.75); // overwrite
        let report = rec.finish("t");
        assert_eq!(report.counter("run-level"), Some(1));
        let phase = report.phase("phase").unwrap();
        assert_eq!(phase.counter("moves"), Some(7));
        assert_eq!(phase.series("updated"), Some(&[10.0, 5.0][..]));
        assert_eq!(report.metric("modularity"), Some(0.75));
    }

    #[test]
    fn span_handle_targets_its_own_node() {
        let rec = Recorder::enabled();
        let outer = rec.span("outer");
        {
            let _inner = rec.span("inner");
            // attach to the *outer* span explicitly while inner is open
            outer.counter("direct", 2);
            outer.push_series("s", 1.0);
        }
        outer.close();
        let report = rec.finish("t");
        let outer = report.phase("outer").unwrap();
        assert_eq!(outer.counter("direct"), Some(2));
        assert_eq!(outer.series("s"), Some(&[1.0][..]));
        assert!(outer.child("inner").is_some());
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        {
            let span = rec.span("phase");
            span.counter("x", 1);
            rec.counter("y", 1);
            rec.push_series("s", 1.0);
            rec.metric("m", 1.0);
            rec.sub_report(RunReport::empty("member"));
        }
        let report = rec.finish("t");
        assert_eq!(report.algorithm, "t");
        assert!(report.is_empty());
    }

    #[test]
    fn sub_reports_are_carried_through() {
        let rec = Recorder::enabled();
        rec.sub_report(RunReport::empty("m0"));
        rec.sub_report(RunReport::empty("m1"));
        let report = rec.finish("ensemble");
        assert_eq!(report.sub_reports.len(), 2);
        assert_eq!(report.sub_reports[0].algorithm, "m0");
    }

    #[test]
    fn finish_closes_still_open_spans() {
        let rec = Recorder::enabled();
        let span = rec.span("open");
        std::thread::sleep(std::time::Duration::from_millis(1));
        let report = rec.clone().finish("t");
        assert!(report.phase("open").unwrap().wall_seconds > 0.0);
        drop(span);
    }

    #[test]
    fn span_fmt_builds_dynamic_names() {
        let rec = Recorder::enabled();
        for depth in 0..2 {
            let _level = rec.span_fmt(format_args!("level-{depth}"));
        }
        let report = rec.finish("t");
        assert!(report.phase("level-0").is_some());
        assert!(report.phase("level-1").is_some());
    }
}
