//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded only from the benchmark's own code, at the call
//! boundaries (a span per public function called), kept in memory and
//! written as Chrome-trace JSON when the run ends. A span's self time is
//! its duration minus the part of its interval that child spans cover;
//! overlapping children are counted once.

use crate::yardstick::Meter;
use flexsim_testkit::json::Json;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer metric namespace of the call, e.g. `core.array.run_layer`.
    pub name: &'static str,
    /// What the call worked on (a layer key, a net, an arch/net pair).
    pub label: String,
    /// Timed pass the call belongs to; `None` for set-up.
    pub pass: Option<u32>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Work units the call performed (MACs for simulator calls, else 0).
    pub work: u64,
}

impl Span {
    /// `end - start`.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. When disabled no span is recorded, so untraced passes
/// pay one branch per call site, plus what [`Tracer::time`] does either
/// way: it times the call into the yardstick meter.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pass: Option<u32>,
    stack: Vec<usize>,
    spans: Vec<Span>,
    meter: Meter,
}

impl Tracer {
    /// A recorder that starts enabled or disabled.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            pass: None,
            stack: Vec::new(),
            spans: Vec::new(),
            meter: Meter::new(),
        }
    }

    /// Turns recording on or off for the following spans.
    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    /// Tags the following spans with a pass id (`None` = set-up).
    pub fn set_pass(&mut self, pass: Option<u32>) {
        self.pass = pass;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; returns its index, or `None` when disabled.
    pub fn begin(&mut self, name: &'static str, label: &str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            label: label.to_owned(),
            pass: self.pass,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            work: 0,
        });
        self.stack.push(id);
        Some(id)
    }

    /// Closes the span `begin` returned, and any span opened inside it
    /// that was left open (a panicking call).
    pub fn end(&mut self, id: Option<usize>, work: u64) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        while let Some(open) = self.stack.pop() {
            self.spans[open].end_ns = now;
            if open == id {
                break;
            }
        }
        self.spans[id].work = work;
    }

    /// Runs `f` inside a span named `name`, crediting it `work` units,
    /// and adds its wall time to the meter, traced or not. Inside a pass
    /// the yardstick runs before the call when it is due.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        label: &str,
        work: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if self.pass.is_some() {
            self.meter.tick();
        }
        let id = self.begin(name, label);
        let t0 = Instant::now();
        let out = f();
        self.meter.add(t0.elapsed());
        self.end(id, work);
        out
    }

    /// The yardstick meter the calls are timed into.
    pub(crate) fn meter(&mut self) -> &mut Meter {
        &mut self.meter
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Chrome-trace JSON (`chrome://tracing`, Perfetto) of the spans: one
/// complete (`X`) event each, with pass, parent, work and self time in
/// `args`.
pub fn chrome_json(spans: &[Span], self_ns: &[u64]) -> String {
    let us = |ns: u64| Json::Float(ns as f64 / 1e3);
    let opt = |v: Option<u64>| v.map_or(Json::Null, |v| Json::Int(v as i64));
    let events = spans
        .iter()
        .zip(self_ns)
        .enumerate()
        .map(|(i, (s, &self_ns))| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str("flexbench")),
                ("ph", Json::str("X")),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(1)),
                ("ts", us(s.start_ns)),
                ("dur", us(s.dur_ns())),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Int(i as i64)),
                        ("label", Json::str(s.label.as_str())),
                        ("pass", opt(s.pass.map(u64::from))),
                        ("parent", opt(s.parent.map(|p| p as u64))),
                        ("work", Json::Int(s.work as i64)),
                        ("self_us", us(self_ns)),
                    ]),
                ),
            ])
        });
    let mut out = Json::obj([("traceEvents", Json::arr(events))]).compact();
    out.push('\n');
    out
}
