//! JSONL export of a trace snapshot.
//!
//! One JSON object per line, serialized with simcore's deterministic
//! writer (insertion-ordered keys, shortest-round-trip numbers), so the
//! export is byte-identical across runs.
//! Layout: a `meta` header, the events in causal append order, then one
//! `counter_total` trailer per counter.

use crate::event::{Event, EventKind};
use crate::TraceSnapshot;
use nostop_simcore::json::{self, Json};

/// Schema tag stamped into every trace header.
pub const SCHEMA: &str = "nostop-trace/1";

/// Serialize a snapshot as JSONL (every line newline-terminated).
pub fn export(snapshot: &TraceSnapshot) -> String {
    let mut out = String::new();
    let header = json::obj(vec![
        ("ev", json::str("meta")),
        ("schema", json::str(SCHEMA)),
        ("events", json::uint(snapshot.events.len() as u64)),
        ("dropped", json::uint(snapshot.dropped)),
    ]);
    push_line(&mut out, &header);
    for event in &snapshot.events {
        push_line(&mut out, &event_json(event));
    }
    for &(name, total) in &snapshot.counters {
        let trailer = json::obj(vec![
            ("ev", json::str("counter_total")),
            ("name", json::str(name)),
            ("total", json::uint(total)),
        ]);
        push_line(&mut out, &trailer);
    }
    out
}

fn push_line(out: &mut String, v: &Json) {
    out.push_str(&v.to_string());
    out.push('\n');
}

fn fields_json(fields: &[(&'static str, f64)]) -> Json {
    json::obj(fields.iter().map(|&(k, v)| (k, json::num(v))).collect())
}

fn event_json(event: &Event) -> Json {
    let mut pairs: Vec<(&str, Json)> = Vec::with_capacity(6);
    match &event.kind {
        EventKind::Enter { span, fields } => {
            pairs.push(("ev", json::str("enter")));
            pairs.push(("t_us", json::uint(event.at_us)));
            pairs.push(("track", json::str(event.track)));
            pairs.push(("span", json::str(*span)));
            if !fields.is_empty() {
                pairs.push(("fields", fields_json(fields)));
            }
        }
        EventKind::Exit { span, fields } => {
            pairs.push(("ev", json::str("exit")));
            pairs.push(("t_us", json::uint(event.at_us)));
            pairs.push(("track", json::str(event.track)));
            pairs.push(("span", json::str(*span)));
            if !fields.is_empty() {
                pairs.push(("fields", fields_json(fields)));
            }
        }
        EventKind::Instant { name, fields } => {
            pairs.push(("ev", json::str("point")));
            pairs.push(("t_us", json::uint(event.at_us)));
            pairs.push(("track", json::str(event.track)));
            pairs.push(("name", json::str(*name)));
            if !fields.is_empty() {
                pairs.push(("fields", fields_json(fields)));
            }
        }
        EventKind::Count { name, delta, total } => {
            pairs.push(("ev", json::str("count")));
            pairs.push(("t_us", json::uint(event.at_us)));
            pairs.push(("track", json::str(event.track)));
            pairs.push(("name", json::str(*name)));
            pairs.push(("delta", json::uint(*delta)));
            pairs.push(("total", json::uint(*total)));
        }
    }
    json::obj(pairs)
}
