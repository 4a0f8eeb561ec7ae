//! Spans from outside the program: a recording [`ProgressSink`] passed to
//! `place_with` timestamps every `report(phase, frac)` call, and the
//! events are turned into a span tree after the call returns.
//!
//! The tree is `flow` → one span per contiguous phase (`extract`,
//! `global`, `legalize`, `detailed`, `route`, in the order the flow runs
//! them; route mode repeats the later ones per feedback round) →
//! `gp.pass` (one global-placement run: the coarse V-cycle pass, the main
//! pass, the alignment-refinement pass, each route-mode re-spread) →
//! `gp.outer` (one outer iteration). The time after the last report
//! (final metrics inside the flow) is the `tail` span.
//!
//! A segment's time is charged to the report that ends it, so work done
//! between two reports without a report of its own lands in the later
//! span: GP set-up and V-cycle clustering in a pass's first outer
//! iteration, RUDY and inflation in the first outer of a re-spread pass.

use sdp_json::Json;
use sdp_progress::{Clock, MonotonicClock, Observer, Phase, ProgressSink};
use std::sync::{Arc, Mutex};

/// One progress report, timestamped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Seconds on the tracer's clock.
    pub t: f64,
    /// Reported phase.
    pub phase: Phase,
    /// Reported completion fraction.
    pub frac: f64,
}

struct Recorder {
    clock: Arc<MonotonicClock>,
    events: Mutex<Vec<Event>>,
}

impl ProgressSink for Recorder {
    fn report(&self, phase: Phase, frac: f64) {
        let t = self.clock.now().as_secs_f64();
        self.events
            .lock()
            .expect("no thread panics while holding the event list")
            .push(Event { t, phase, frac });
    }
}

/// A recording observer for one traced call; events stay in memory.
pub struct Tracer {
    clock: Arc<MonotonicClock>,
    recorder: Arc<Recorder>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        let clock = Arc::new(MonotonicClock::new());
        let recorder = Arc::new(Recorder {
            clock: Arc::clone(&clock),
            events: Mutex::new(Vec::new()),
        });
        Tracer { clock, recorder }
    }

    /// The observer to pass to `place_with`: the recording clock and sink.
    pub fn observer(&self) -> Observer {
        Observer::new(self.clock.clone(), self.recorder.clone())
    }

    /// Seconds on the tracer's clock.
    pub fn now(&self) -> f64 {
        self.clock.now().as_secs_f64()
    }

    /// The events recorded so far.
    pub fn events(&self) -> Vec<Event> {
        self.recorder
            .events
            .lock()
            .expect("no thread panics while holding the event list")
            .clone()
    }
}

/// One span of the tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index in the span list.
    pub id: usize,
    /// The enclosing span (`None` for the root).
    pub parent: Option<usize>,
    /// `flow`, a phase name, `gp.pass`, `gp.outer` or `tail`.
    pub name: &'static str,
    /// Start, seconds on the tracer's clock.
    pub start: f64,
    /// End, seconds on the tracer's clock.
    pub end: f64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }

    /// The span as sdp-json.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::num(self.id as f64)),
            (
                "parent",
                self.parent.map_or(Json::Null, |p| Json::num(p as f64)),
            ),
            ("name", Json::str(self.name)),
            ("start_s", Json::num(self.start)),
            ("end_s", Json::num(self.end)),
        ])
    }
}

/// Whether event `i` closes a GP pass rather than an outer iteration.
///
/// The placer reports `(global, n/max_outer)` after each outer iteration
/// and `(global, 1.0)` once more when the pass returns. A pass that runs
/// all `max_outer` iterations therefore reports 1.0 twice in a row; the
/// first of the two is its last outer iteration.
fn closes_pass(events: &[Event], i: usize) -> bool {
    let e = events[i];
    let is_one = |e: &Event| e.phase == Phase::Global && e.frac >= 1.0;
    is_one(&e) && !events.get(i + 1).is_some_and(is_one)
}

/// Builds the span tree of one call that ran from `start` to `end` and
/// reported `events`.
pub fn build_spans(start: f64, end: f64, events: &[Event]) -> Vec<Span> {
    let mut spans = vec![Span {
        id: 0,
        parent: None,
        name: "flow",
        start,
        end,
    }];
    let push = |spans: &mut Vec<Span>, parent, name, start, end| {
        let id = spans.len();
        spans.push(Span {
            id,
            parent: Some(parent),
            name,
            start,
            end,
        });
        id
    };
    let mut phase_span: Option<(Phase, usize)> = None;
    let mut pass: Option<usize> = None;
    let mut prev = start;
    for (i, e) in events.iter().enumerate() {
        let current = match phase_span {
            Some((p, id)) if p == e.phase => id,
            _ => {
                pass = None;
                let id = push(&mut spans, 0, e.phase.name(), prev, e.t);
                phase_span = Some((e.phase, id));
                id
            }
        };
        spans[current].end = e.t;
        if e.phase == Phase::Global {
            let pass_id =
                *pass.get_or_insert_with(|| push(&mut spans, current, "gp.pass", prev, e.t));
            spans[pass_id].end = e.t;
            if closes_pass(events, i) {
                pass = None;
            } else {
                push(&mut spans, pass_id, "gp.outer", prev, e.t);
            }
        }
        prev = e.t;
    }
    if end > prev {
        push(&mut spans, 0, "tail", prev, end);
    }
    spans
}

/// Total seconds of the top-level spans named `name`.
pub fn phase_seconds(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent == Some(0) && s.name == name)
        .map(Span::seconds)
        .sum()
}

/// Number of spans named `name`.
pub fn count(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: f64, phase: Phase, frac: f64) -> Event {
        Event { t, phase, frac }
    }

    #[test]
    fn passes_and_outers_are_told_apart() {
        use Phase::*;
        // Pass A converges after 2 of 4 outers; pass B runs all 2 of 2.
        let events = [
            ev(1.0, Extract, 1.0),
            ev(2.0, Global, 0.25),
            ev(3.0, Global, 0.5),
            ev(3.1, Global, 1.0),
            ev(4.0, Global, 0.5),
            ev(5.0, Global, 1.0),
            ev(5.1, Global, 1.0),
            ev(6.0, Legalize, 1.0),
            ev(7.0, Detailed, 1.0),
        ];
        let spans = build_spans(0.0, 7.5, &events);
        assert_eq!(count(&spans, "gp.pass"), 2);
        assert_eq!(count(&spans, "gp.outer"), 4);
        assert_eq!(count(&spans, "global"), 1);
        assert_eq!(phase_seconds(&spans, "extract"), 1.0);
        assert_eq!(phase_seconds(&spans, "global"), 4.1);
        assert_eq!(phase_seconds(&spans, "tail"), 0.5);
        // Every span nests inside its parent.
        for s in &spans[1..] {
            let p = &spans[s.parent.expect("non-root")];
            assert!(p.start <= s.start && s.end <= p.end, "{s:?} outside {p:?}");
        }
        // Outer spans hang under passes, passes under the phase.
        for s in spans.iter().filter(|s| s.name == "gp.outer") {
            assert_eq!(spans[s.parent.expect("parent")].name, "gp.pass");
        }
    }

    #[test]
    fn repeated_phases_get_one_span_each_time() {
        use Phase::*;
        let events = [
            ev(1.0, Extract, 1.0),
            ev(2.0, Global, 1.0),
            ev(2.1, Global, 1.0),
            ev(3.0, Legalize, 1.0),
            ev(4.0, Detailed, 1.0),
            ev(5.0, Route, 0.5),
            ev(6.0, Route, 1.0),
            ev(7.0, Global, 1.0),
            ev(7.1, Global, 1.0),
            ev(8.0, Legalize, 1.0),
        ];
        let spans = build_spans(0.0, 8.0, &events);
        assert_eq!(count(&spans, "legalize"), 2);
        assert_eq!(count(&spans, "route"), 1);
        assert_eq!(phase_seconds(&spans, "route"), 2.0);
        assert_eq!(count(&spans, "gp.outer"), 2);
        assert_eq!(count(&spans, "tail"), 0);
    }

    #[test]
    fn tracer_records_reports_in_order() {
        let tracer = Tracer::new();
        let obs = tracer.observer();
        obs.report(Phase::Extract, 1.0);
        obs.report(Phase::Global, 0.5);
        let events = tracer.events();
        assert_eq!(events.len(), 2);
        assert!(events[0].t <= events[1].t && events[1].t <= tracer.now());
        assert_eq!(events[1].phase, Phase::Global);
    }
}
