//! Chrome trace-event JSON export (loadable in `chrome://tracing` and
//! Perfetto).
//!
//! One trace document combines both time domains:
//!
//! * **pid 0 ("host")** — wall-clock [`SpanRecord`]s from the global
//!   span recorder, one thread row per OS thread, `ts`/`dur` in real
//!   microseconds. Threads that registered a label while the recorder
//!   was installed (e.g. the pool's `flexsim-pool-{i}` workers via
//!   [`crate::span::set_thread_label`]) are named by it; the rest fall
//!   back to `host-{tid}`.
//! * **pid 1+** — one process per simulated architecture, one thread
//!   row per layer, carrying that layer's [`LayerTimeline`] cycle
//!   events with the convention **1 µs = 1 simulated cycle**.
//!
//! `otherData` holds one key, `cycle_unit`, naming that convention.
//!
//! Each layer thread additionally carries a **`busy-pes` counter
//! track** (`"ph":"C"`): the mean number of busy PEs during each cycle
//! event, dropping to zero at the layer's end — Perfetto renders it as
//! a utilization area chart above the event row.
//!
//! Two emission paths share one event generator: [`chrome_trace`]
//! builds the whole document as a [`Json`] value (small traces,
//! tests), while [`write_chrome_trace`] streams events one at a time
//! through any [`std::io::Write`] sink, so a multi-MB sweep trace
//! never has to sit in memory as a single string.

use crate::cycles::LayerTimeline;
use crate::span::SpanRecord;
use flexsim_testkit::json::Json;
use std::io::Write;

fn duration_event(
    name: &str,
    cat: &str,
    ts: u64,
    dur: u64,
    pid: u64,
    tid: u64,
    args: Json,
) -> Json {
    Json::obj([
        ("name", Json::str(name)),
        ("cat", Json::str(cat)),
        ("ph", Json::str("X")),
        ("ts", Json::from(ts)),
        ("dur", Json::from(dur)),
        ("pid", Json::from(pid)),
        ("tid", Json::from(tid)),
        ("args", args),
    ])
}

fn counter_event(name: &str, ts: u64, pid: u64, tid: u64, value: u64) -> Json {
    Json::obj([
        ("name", Json::str(name)),
        ("ph", Json::str("C")),
        ("ts", Json::from(ts)),
        ("pid", Json::from(pid)),
        ("tid", Json::from(tid)),
        ("args", Json::obj([("value", Json::from(value))])),
    ])
}

fn metadata_event(meta: &str, pid: u64, tid: u64, value: &str) -> Json {
    Json::obj([
        ("name", Json::str(meta)),
        ("ph", Json::str("M")),
        ("pid", Json::from(pid)),
        ("tid", Json::from(tid)),
        ("args", Json::obj([("name", Json::str(value))])),
    ])
}

/// Generates every trace event, in document order, calling `emit` for
/// each — the single generator behind both the in-memory and the
/// streaming export paths, so the two can never drift apart.
fn for_each_event(
    spans: &[SpanRecord],
    timelines: &[LayerTimeline],
    thread_labels: &[(u64, String)],
    mut emit: impl FnMut(Json),
) {
    // Host process: one thread row per recorded OS thread, named by
    // its registered label when one exists.
    emit(metadata_event("process_name", 0, 0, "host"));
    let mut host_tids: Vec<u64> = spans.iter().map(|s| s.tid).collect();
    host_tids.sort_unstable();
    host_tids.dedup();
    for tid in host_tids {
        let name = thread_labels
            .iter()
            .find(|(t, _)| *t == tid)
            .map_or_else(|| format!("host-{tid}"), |(_, l)| l.clone());
        emit(metadata_event("thread_name", 0, tid, &name));
    }
    for span in spans {
        emit(duration_event(
            &span.name,
            span.cat,
            span.start_us,
            // Zero-duration events render invisibly; clamp to 1 µs.
            span.dur_us.max(1),
            0,
            span.tid,
            Json::obj([("depth", Json::from(u64::from(span.depth)))]),
        ));
    }

    // One process per architecture (first-seen order), one thread row
    // per layer timeline within it.
    let mut arch_pids: Vec<String> = Vec::new();
    let mut layers_in_arch: Vec<u64> = Vec::new();
    for tl in timelines {
        let pid_idx = match arch_pids.iter().position(|a| *a == tl.ctx.arch) {
            Some(i) => i,
            None => {
                arch_pids.push(tl.ctx.arch.clone());
                layers_in_arch.push(0);
                let pid = arch_pids.len() as u64;
                emit(metadata_event(
                    "process_name",
                    pid,
                    0,
                    &format!("sim:{}", tl.ctx.arch),
                ));
                arch_pids.len() - 1
            }
        };
        let pid = pid_idx as u64 + 1;
        let tid = layers_in_arch[pid_idx];
        layers_in_arch[pid_idx] += 1;
        // Multi-experiment sweeps tag timelines with their owning
        // experiment; prefix the thread row so rows from different
        // experiments stay distinguishable within one arch process.
        let thread_name = if tl.ctx.experiment.is_empty() {
            tl.ctx.layer.clone()
        } else {
            format!("{}/{}", tl.ctx.experiment, tl.ctx.layer)
        };
        emit(metadata_event("thread_name", pid, tid, &thread_name));
        for ev in &tl.events {
            let pe_cycles = ev.cycles * u64::from(tl.ctx.pe_count);
            let mut args = vec![
                ("macs", Json::from(ev.macs)),
                ("cycles", Json::from(ev.cycles)),
                ("pes", Json::from(u64::from(tl.ctx.pe_count))),
                ("cause", Json::str(ev.kind.cause().name())),
                (
                    "lost_pe_cycles",
                    Json::from(pe_cycles.saturating_sub(ev.macs)),
                ),
            ];
            if !tl.ctx.experiment.is_empty() {
                args.push(("experiment", Json::str(tl.ctx.experiment.as_str())));
            }
            emit(duration_event(
                ev.kind.name(),
                "sim",
                ev.start_cycle,
                ev.cycles.max(1),
                pid,
                tid,
                Json::obj(args),
            ));
        }
        // The utilization counter track: mean busy PEs per event (an
        // event of `cycles` cycles carrying `macs` MACs keeps
        // `macs / cycles` PEs busy on average), closed by a zero
        // sample so the area chart returns to the baseline.
        for ev in &tl.events {
            let busy = ev.macs.checked_div(ev.cycles).unwrap_or(0);
            emit(counter_event("busy-pes", ev.start_cycle, pid, tid, busy));
        }
        if let Some(last) = tl.events.last() {
            emit(counter_event(
                "busy-pes",
                last.start_cycle + last.cycles,
                pid,
                tid,
                0,
            ));
        }
    }
}

/// Builds a complete Chrome trace document from host spans and
/// per-layer cycle timelines.
///
/// The result is `{"traceEvents": [...], "displayTimeUnit": "ms",
/// "otherData": {"cycle_unit": ...}}` — the object form both
/// `chrome://tracing` and Perfetto accept. For large traces prefer
/// [`write_chrome_trace`], which streams instead of buffering.
pub fn chrome_trace(spans: &[SpanRecord], timelines: &[LayerTimeline]) -> Json {
    let mut events: Vec<Json> = Vec::new();
    for_each_event(spans, timelines, &[], |ev| events.push(ev));
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
        ("otherData", other_data()),
    ])
}

fn other_data() -> Json {
    Json::obj([("cycle_unit", Json::str("1us = 1 simulated cycle"))])
}

/// Streams the same trace document as [`chrome_trace`] through `out`,
/// one event per line, so the peak memory cost is one rendered event
/// rather than the whole multi-MB document. `thread_labels` maps span
/// tids to display names for the host thread rows (pass
/// [`crate::span::thread_labels`] to pick up the pool's worker
/// labels); unlabeled tids keep the `host-{tid}` fallback.
///
/// # Errors
///
/// Propagates the first I/O error from `out`.
pub fn write_chrome_trace<W: Write>(
    out: &mut W,
    spans: &[SpanRecord],
    timelines: &[LayerTimeline],
    thread_labels: &[(u64, String)],
) -> std::io::Result<()> {
    out.write_all(b"{\n  \"traceEvents\": [\n")?;
    let mut first = true;
    let mut io_err: Option<std::io::Error> = None;
    for_each_event(spans, timelines, thread_labels, |ev| {
        if io_err.is_some() {
            return; // already failed; drain the generator cheaply
        }
        let sep: &[u8] = if first { b"    " } else { b",\n    " };
        first = false;
        if let Err(e) = out
            .write_all(sep)
            .and_then(|()| out.write_all(ev.compact().as_bytes()))
        {
            io_err = Some(e);
        }
    });
    if let Some(e) = io_err {
        return Err(e);
    }
    out.write_all(b"\n  ],\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": ")?;
    out.write_all(other_data().compact().as_bytes())?;
    out.write_all(b"\n}\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrib::StallCause;
    use crate::cycles::{CycleEvent, CycleEventKind, LayerCtx};

    const PASS: CycleEventKind = CycleEventKind::Pass(StallCause::MappingResidueIdle);
    const FILL: CycleEventKind = CycleEventKind::Stall(StallCause::PipelineFill);

    fn field<'a>(doc: &'a Json, name: &str) -> &'a Json {
        match doc {
            Json::Obj(pairs) => pairs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .expect("missing field"),
            _ => panic!("not an object"),
        }
    }

    fn events(doc: &Json) -> &[Json] {
        match field(doc, "traceEvents") {
            Json::Arr(items) => items,
            _ => panic!("traceEvents not an array"),
        }
    }

    #[test]
    fn trace_combines_spans_and_timelines() {
        let spans = vec![SpanRecord {
            cat: "workload",
            name: "LeNet-5".into(),
            start_us: 10,
            dur_us: 250,
            depth: 0,
            tid: 0,
        }];
        let timelines = vec![
            LayerTimeline {
                ctx: LayerCtx::new("FlexFlow", "C1", 256),
                events: vec![CycleEvent::new(PASS, 0, 100, 12_800)],
            },
            LayerTimeline {
                ctx: LayerCtx::new("Tiling", "C1", 256),
                events: vec![CycleEvent::new(PASS, 0, 50, 6_400)],
            },
        ];
        let doc = chrome_trace(&spans, &timelines);

        let evs = events(&doc);
        // host process_name + host thread_name + 1 span
        // + 2 × (process_name + thread_name + 1 event + 2 counters).
        assert_eq!(evs.len(), 13);
        let phases: Vec<&Json> = evs.iter().map(|e| field(e, "ph")).collect();
        assert_eq!(phases.iter().filter(|p| ***p == Json::str("X")).count(), 3);
        // Distinct pids: 0 (host), 1 (FlexFlow), 2 (Tiling).
        let span_ev = evs
            .iter()
            .find(|e| field(e, "name") == &Json::str("LeNet-5"))
            .unwrap();
        assert_eq!(field(span_ev, "pid"), &Json::Int(0));
        assert_eq!(field(span_ev, "ts"), &Json::Int(10));
        assert_eq!(field(span_ev, "dur"), &Json::Int(250));
        let tiling_meta = evs
            .iter()
            .find(|e| {
                field(e, "name") == &Json::str("process_name") && field(e, "pid") == &Json::Int(2)
            })
            .unwrap();
        assert_eq!(
            field(field(tiling_meta, "args"), "name"),
            &Json::str("sim:Tiling")
        );
        // `otherData` names the cycle convention and nothing else.
        assert_eq!(
            field(&doc, "otherData"),
            &Json::obj([("cycle_unit", Json::str("1us = 1 simulated cycle"))])
        );
        // Cause + lost PE-cycles ride in every cycle event's args.
        let pass = evs
            .iter()
            .find(|e| field(e, "name") == &Json::str("pass"))
            .unwrap();
        assert_eq!(
            field(field(pass, "args"), "cause"),
            &Json::str("mapping-residue-idle")
        );
        assert_eq!(
            field(field(pass, "args"), "lost_pe_cycles"),
            &Json::Int(100 * 256 - 12_800)
        );
    }

    #[test]
    fn layers_of_one_arch_share_a_pid_with_distinct_tids() {
        let timelines = vec![
            LayerTimeline {
                ctx: LayerCtx::new("Systolic", "C1", 252),
                events: vec![CycleEvent::new(FILL, 0, 10, 0)],
            },
            LayerTimeline {
                ctx: LayerCtx::new("Systolic", "C3", 252),
                events: vec![CycleEvent::new(FILL, 0, 10, 0)],
            },
        ];
        let doc = chrome_trace(&[], &timelines);
        let evs = events(&doc);
        let fills: Vec<&Json> = evs
            .iter()
            .filter(|e| field(e, "name") == &Json::str("pipeline-fill"))
            .collect();
        assert_eq!(fills.len(), 2);
        assert_eq!(field(fills[0], "pid"), field(fills[1], "pid"));
        assert_ne!(field(fills[0], "tid"), field(fills[1], "tid"));
    }

    #[test]
    fn experiment_tags_prefix_thread_names_and_ride_in_args() {
        let timelines = vec![
            LayerTimeline {
                ctx: LayerCtx {
                    experiment: "fig15".into(),
                    ..LayerCtx::new("FlexFlow", "C1", 256)
                },
                events: vec![CycleEvent::new(PASS, 0, 10, 100)],
            },
            LayerTimeline {
                ctx: LayerCtx {
                    experiment: "fig17".into(),
                    ..LayerCtx::new("FlexFlow", "C1", 256)
                },
                events: vec![CycleEvent::new(PASS, 0, 10, 100)],
            },
        ];
        let doc = chrome_trace(&[], &timelines);
        let evs = events(&doc);
        let names: Vec<&Json> = evs
            .iter()
            .filter(|e| field(e, "name") == &Json::str("thread_name"))
            .map(|e| field(field(e, "args"), "name"))
            .collect();
        assert!(names.contains(&&Json::str("fig15/C1")));
        assert!(names.contains(&&Json::str("fig17/C1")));
        let pass = evs
            .iter()
            .find(|e| field(e, "name") == &Json::str("pass"))
            .unwrap();
        assert_eq!(
            field(field(pass, "args"), "experiment"),
            &Json::str("fig15")
        );
    }

    #[test]
    fn counter_tracks_follow_each_timeline() {
        let timelines = vec![LayerTimeline {
            ctx: LayerCtx::new("FlexFlow", "C1", 256),
            events: vec![
                CycleEvent::new(FILL, 0, 8, 0),
                CycleEvent::new(PASS, 8, 100, 12_800),
            ],
        }];
        let doc = chrome_trace(&[], &timelines);
        let counters: Vec<&Json> = events(&doc)
            .iter()
            .filter(|e| field(e, "ph") == &Json::str("C"))
            .collect();
        // One sample per cycle event plus the closing zero.
        assert_eq!(counters.len(), 3);
        for c in &counters {
            assert_eq!(field(c, "name"), &Json::str("busy-pes"));
        }
        let values: Vec<&Json> = counters
            .iter()
            .map(|c| field(field(c, "args"), "value"))
            .collect();
        // Fill keeps 0 PEs busy; the pass averages 12800/100 = 128;
        // the track closes at 0.
        assert_eq!(values, vec![&Json::Int(0), &Json::Int(128), &Json::Int(0)]);
        let stamps: Vec<&Json> = counters.iter().map(|c| field(c, "ts")).collect();
        assert_eq!(stamps, vec![&Json::Int(0), &Json::Int(8), &Json::Int(108)]);
    }

    #[test]
    fn streaming_writer_matches_the_in_memory_document() {
        let spans = vec![
            SpanRecord {
                cat: "workload",
                name: "LeNet-5".into(),
                start_us: 10,
                dur_us: 250,
                depth: 0,
                tid: 0,
            },
            SpanRecord {
                cat: "task",
                name: "fig15/LeNet-5".into(),
                start_us: 20,
                dur_us: 30,
                depth: 1,
                tid: 3,
            },
        ];
        let timelines = vec![LayerTimeline {
            ctx: LayerCtx::new("FlexFlow", "C1", 256),
            events: vec![CycleEvent::new(PASS, 0, 100, 12_800)],
        }];
        let mut streamed = Vec::new();
        write_chrome_trace(&mut streamed, &spans, &timelines, &[]).unwrap();
        let text = String::from_utf8(streamed).unwrap();
        // The streamed bytes parse back into exactly the document the
        // in-memory builder produces.
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, chrome_trace(&spans, &timelines));
    }

    #[test]
    fn thread_labels_name_the_host_rows() {
        let spans = vec![
            SpanRecord {
                cat: "task",
                name: "a".into(),
                start_us: 0,
                dur_us: 1,
                depth: 0,
                tid: 2,
            },
            SpanRecord {
                cat: "task",
                name: "b".into(),
                start_us: 0,
                dur_us: 1,
                depth: 0,
                tid: 5,
            },
        ];
        let labels = vec![(2u64, "flexsim-pool-1".to_owned())];
        let mut out = Vec::new();
        write_chrome_trace(&mut out, &spans, &[], &labels).unwrap();
        let doc = Json::parse(&String::from_utf8(out).unwrap()).unwrap();
        let names: Vec<&Json> = events(&doc)
            .iter()
            .filter(|e| field(e, "name") == &Json::str("thread_name"))
            .map(|e| field(field(e, "args"), "name"))
            .collect();
        // Labeled tid gets its worker name; unlabeled falls back.
        assert!(names.contains(&&Json::str("flexsim-pool-1")), "{names:?}");
        assert!(names.contains(&&Json::str("host-5")), "{names:?}");
    }

    #[test]
    fn streaming_writer_propagates_io_errors() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("sink full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let err = write_chrome_trace(&mut Failing, &[], &[], &[]).expect_err("write must fail");
        assert_eq!(err.to_string(), "sink full");
    }

    #[test]
    fn hostile_ffnet_names_survive_export_intact() {
        // A workload/layer name with quotes, backslashes, and
        // non-ASCII — the trace must stay valid JSON and carry the
        // name back unchanged.
        let hostile = "C1\"},{\"pwned\\é";
        let timelines = vec![LayerTimeline {
            ctx: LayerCtx::new("FlexFlow", hostile, 256),
            events: vec![CycleEvent::new(PASS, 0, 10, 100)],
        }];
        let mut out = Vec::new();
        write_chrome_trace(&mut out, &[], &timelines, &[]).unwrap();
        let text = String::from_utf8(out).unwrap();
        let doc = Json::parse(&text).expect("hostile name broke the trace JSON");
        assert_eq!(doc, chrome_trace(&[], &timelines));
        let thread = events(&doc)
            .iter()
            .find(|e| {
                field(e, "name") == &Json::str("thread_name") && field(e, "pid") == &Json::Int(1)
            })
            .unwrap();
        assert_eq!(field(field(thread, "args"), "name"), &Json::str(hostile));
    }

    #[test]
    fn zero_duration_spans_are_clamped_visible() {
        let spans = vec![SpanRecord {
            cat: "layer",
            name: "fast".into(),
            start_us: 0,
            dur_us: 0,
            depth: 0,
            tid: 0,
        }];
        let doc = chrome_trace(&spans, &[]);
        let ev = events(&doc)
            .iter()
            .find(|e| field(e, "name") == &Json::str("fast"))
            .cloned()
            .unwrap();
        assert_eq!(field(&ev, "dur"), &Json::Int(1));
    }
}
