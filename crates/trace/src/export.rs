//! Exporters: Chrome trace-event JSON (loads in Perfetto / `chrome://tracing`)
//! and a human-readable text timeline.
//!
//! Both are hand-rolled string builders in the same spirit as the bench
//! reporter: stable key order, integer-only timestamp formatting, explicit
//! escaping — so a given tracer state serializes to byte-identical output
//! on every platform and run.

use crate::event::{EventId, EventKind, TraceEvent, ENGINE_NODE};
use crate::tracer::Tracer;

/// Escape a string for inclusion in a JSON string literal: quote,
/// backslash, `\n`, `\t` and `\r` by name, every other control character
/// as `\u00XX`, everything else verbatim. The one escaper behind every
/// hand-rolled JSON writer in the workspace (trace, metrics, figures,
/// rdv-lint), so they agree byte for byte.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Chrome's `ts` field is microseconds; render nanoseconds as a fixed
/// three-decimal micro value so no float formatting is involved.
fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Display label for a node index.
fn node_label(node: u32, names: &[String]) -> String {
    if node == ENGINE_NODE {
        "engine".to_string()
    } else {
        names.get(node as usize).cloned().unwrap_or_else(|| format!("n{node}"))
    }
}

/// Perfetto track id for a node (engine events go on track 0, node `i` on
/// track `i + 1`).
fn tid(node: u32) -> u64 {
    if node == ENGINE_NODE {
        0
    } else {
        node as u64 + 1
    }
}

fn opt_id(id: Option<EventId>) -> String {
    match id {
        Some(i) => i.0.to_string(),
        None => "null".to_string(),
    }
}

/// Kind-specific `args` fragments, appended after the generic id/cause/aux.
fn kind_args(kind: &EventKind) -> String {
    match kind {
        EventKind::PacketEnqueue { port, bytes } => {
            format!(",\"port\":{port},\"bytes\":{bytes}")
        }
        EventKind::PacketDeliver { port } => format!(",\"port\":{port}"),
        EventKind::TimerSet { tag }
        | EventKind::TimerFire { tag }
        | EventKind::TimerDrop { tag } => {
            format!(",\"tag\":{tag}")
        }
        EventKind::SpanBegin { detail, .. } | EventKind::Mark { detail, .. } => {
            format!(",\"detail\":{detail}")
        }
        _ => String::new(),
    }
}

/// The display name of one event: the protocol label for spans/marks, the
/// canonical kind name otherwise.
fn display_name(kind: &EventKind) -> &'static str {
    kind.label().unwrap_or_else(|| kind.name())
}

/// Serialize the retained events as Chrome trace-event JSON.
///
/// Output shape: instant events for every recorded event (causal edges in
/// `args`), async begin/end pairs for protocol spans, and async
/// `packet.flight` slices for every delivered packet — enough for Perfetto
/// to show per-node tracks with packet flights and protocol operations as
/// bars.
pub fn chrome_json(tracer: &Tracer, node_names: &[String]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |out: &mut String, line: String| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
        out.push_str(&line);
    };

    // Track-name metadata, engine first then nodes in index order.
    push(
        &mut out,
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{\"name\":\"engine\"}}"
            .to_string(),
    );
    for (i, name) in node_names.iter().enumerate() {
        push(
            &mut out,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                i as u64 + 1,
                json_escape(name)
            ),
        );
    }

    for (id, ev) in tracer.iter() {
        // Every event as an instant with its causal edges in args.
        push(
            &mut out,
            format!(
                "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":0,\
                 \"tid\":{},\"args\":{{\"id\":{},\"cause\":{},\"aux\":{}{}}}}}",
                json_escape(display_name(&ev.kind)),
                ts_us(ev.at),
                tid(ev.node),
                id.0,
                opt_id(ev.cause),
                opt_id(ev.aux),
                kind_args(&ev.kind)
            ),
        );

        match ev.kind {
            // Protocol spans as async begin/end pairs keyed by the begin id.
            EventKind::SpanBegin { name, detail } => {
                push(
                    &mut out,
                    format!(
                        "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"b\",\"id\":{},\
                         \"ts\":{},\"pid\":0,\"tid\":{},\"args\":{{\"detail\":{}}}}}",
                        json_escape(name),
                        id.0,
                        ts_us(ev.at),
                        tid(ev.node),
                        detail
                    ),
                );
            }
            EventKind::SpanEnd { name } => {
                if let Some(begin) = ev.aux {
                    push(
                        &mut out,
                        format!(
                            "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"e\",\"id\":{},\
                             \"ts\":{},\"pid\":0,\"tid\":{},\"args\":{{}}}}",
                            json_escape(name),
                            begin.0,
                            ts_us(ev.at),
                            tid(ev.node)
                        ),
                    );
                }
            }
            // Each delivered packet as an async flight slice from its
            // enqueue to its delivery, when the chain is still retained.
            EventKind::PacketDeliver { .. } => {
                let enq = ev
                    .cause
                    .and_then(|tx| tracer.get(tx))
                    .and_then(|tx_ev| tx_ev.cause)
                    .and_then(|e| tracer.get(e).map(|enq_ev| (e, *enq_ev)));
                if let Some((enq_id, enq_ev)) = enq {
                    push(
                        &mut out,
                        format!(
                            "{{\"name\":\"packet.flight\",\"cat\":\"packet\",\"ph\":\"b\",\
                             \"id\":{},\"ts\":{},\"pid\":0,\"tid\":{},\"args\":{{}}}}",
                            enq_id.0,
                            ts_us(enq_ev.at),
                            tid(enq_ev.node)
                        ),
                    );
                    push(
                        &mut out,
                        format!(
                            "{{\"name\":\"packet.flight\",\"cat\":\"packet\",\"ph\":\"e\",\
                             \"id\":{},\"ts\":{},\"pid\":0,\"tid\":{},\"args\":{{}}}}",
                            enq_id.0,
                            ts_us(ev.at),
                            tid(ev.node)
                        ),
                    );
                }
            }
            _ => {}
        }
    }

    out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
    out
}

/// Render one event as a text-timeline line.
fn text_line(id: EventId, ev: &TraceEvent, node_names: &[String]) -> String {
    let mut line = format!(
        "#{:<7} {:>14}  {:<10} {:<22}",
        id.0,
        format!("{}us", ts_us(ev.at)),
        node_label(ev.node, node_names),
        display_name(&ev.kind)
    );
    match ev.kind {
        EventKind::PacketEnqueue { port, bytes } => {
            line.push_str(&format!(" port={port} bytes={bytes}"));
        }
        EventKind::PacketDeliver { port } => line.push_str(&format!(" port={port}")),
        EventKind::TimerSet { tag }
        | EventKind::TimerFire { tag }
        | EventKind::TimerDrop { tag } => {
            line.push_str(&format!(" tag={tag:#x}"));
        }
        EventKind::SpanBegin { detail, .. } | EventKind::Mark { detail, .. } => {
            line.push_str(&format!(" detail={detail}"));
        }
        _ => {}
    }
    if let Some(c) = ev.cause {
        line.push_str(&format!(" <-#{}", c.0));
    }
    if let Some(a) = ev.aux {
        line.push_str(&format!(" ~#{}", a.0));
    }
    line
}

/// Serialize the retained events as a human-readable timeline, one event
/// per line in id (= time) order. `<-#N` marks the primary cause, `~#N`
/// the secondary edge.
pub fn text_timeline(tracer: &Tracer, node_names: &[String]) -> String {
    let mut out = String::new();
    out.push_str("# id        time          node       event                  details\n");
    for (id, ev) in tracer.iter() {
        out.push_str(&text_line(id, ev, node_names));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind as K;

    #[test]
    fn json_escape_table() {
        for (raw, escaped) in [
            ("plain.name", "plain.name"),
            ("say \"hi\"", "say \\\"hi\\\""),
            ("a\\b", "a\\\\b"),
            ("l1\nl2", "l1\\nl2"),
            ("c1\tc2", "c1\\tc2"),
            ("cr\r", "cr\\r"),
            ("\u{1}", "\\u0001"),
            ("µs → ok", "µs → ok"),
        ] {
            assert_eq!(json_escape(raw), escaped, "escaping {raw:?}");
        }
    }

    fn sample() -> (Tracer, Vec<String>) {
        let mut t = Tracer::enabled(64);
        let set = t.record(0, 0, K::TimerSet { tag: 9 }, None, None).unwrap();
        let fire = t.record(1000, 0, K::TimerFire { tag: 9 }, Some(set), None).unwrap();
        let span = t.record(1000, 0, K::SpanBegin { name: "op.run", detail: 5 }, Some(fire), None);
        let enq =
            t.record(1000, 0, K::PacketEnqueue { port: 0, bytes: 64 }, Some(fire), None).unwrap();
        let tx = t.record(1050, 0, K::PacketTransmit, Some(enq), None).unwrap();
        let dlv = t.record(2050, 1, K::PacketDeliver { port: 0 }, Some(tx), None).unwrap();
        t.record(2050, 1, K::SpanEnd { name: "op.run" }, Some(dlv), span);
        (t, vec!["h0".to_string(), "h1".to_string()])
    }

    #[test]
    fn chrome_json_has_expected_shape() {
        let (t, names) = sample();
        let json = chrome_json(&t, &names);
        assert!(json.starts_with("{\"traceEvents\":[\n"));
        assert!(json.ends_with("],\"displayTimeUnit\":\"ns\"}\n"));
        // Track names, span pair, flight pair, instants.
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"name\":\"h0\""));
        assert!(json.contains("\"ph\":\"b\""));
        assert!(json.contains("\"ph\":\"e\""));
        assert!(json.contains("\"name\":\"packet.flight\""));
        assert!(json.contains("\"name\":\"op.run\""));
        // Timestamps are fixed-point micros: 2050 ns → "2.050".
        assert!(json.contains("\"ts\":2.050"));
        // Braces balance (cheap structural sanity).
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn chrome_json_is_deterministic() {
        let (t, names) = sample();
        assert_eq!(chrome_json(&t, &names), chrome_json(&t, &names));
    }

    #[test]
    fn text_timeline_lists_every_event_with_edges() {
        let (t, names) = sample();
        let text = text_timeline(&t, &names);
        assert_eq!(text.lines().count(), 1 + t.count() as usize, "header + one line per event");
        assert!(text.contains("timer.set"));
        assert!(text.contains("op.run"));
        assert!(text.contains("<-#"), "cause edges rendered");
        assert!(text.contains("~#"), "aux edges rendered");
        assert!(text.contains("h1"));
    }

    #[test]
    fn unnamed_nodes_fall_back_to_index_labels() {
        let mut t = Tracer::enabled(4);
        t.record(0, 7, K::Mark { name: "a.b", detail: 0 }, None, None);
        let text = text_timeline(&t, &[]);
        assert!(text.contains("n7"));
    }
}
