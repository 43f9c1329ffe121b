//! Exporters: Chrome Trace Event Format, JSONL metrics, human summary.
//!
//! The Chrome Trace Event Format (TEF) output loads directly in
//! `chrome://tracing` or <https://ui.perfetto.dev>: one complete
//! (`"ph": "X"`) event per recorded span, timestamps in microseconds,
//! with the walk step and vertex partition in `args`.  Thread lanes map
//! to `tid` (0 = coordinator, `t + 1` = pool worker `t`); NUMA-merged
//! recorders carry the originating socket in the lane's high bits, which
//! becomes the TEF `pid` so per-socket rows stay separate.

use crate::json::{escape, num};
use crate::{SpanEvent, Stage, StageFaults, Telemetry, NO_PARTITION, NO_STEP};
use std::io::{self, Write};

/// The fault fields of a `run` or `stage` JSONL line (with a leading
/// `, `), or nothing when the counters were never read.
fn fault_fields(f: Option<StageFaults>) -> String {
    f.map(|f| {
        format!(
            ", \"minor_faults\": {}, \"major_faults\": {}, \"rss_kib_max\": {}",
            f.minor_faults, f.major_faults, f.rss_kib_max
        )
    })
    .unwrap_or_default()
}

/// The TEF (pid, tid) lane of a span: foreign (absorbed) recorders tag
/// their pid into the thread lane's high bits, local spans use the
/// recorder's own pid.
fn lanes(tel: &Telemetry, ev: &SpanEvent) -> (u32, u32) {
    let hi = ev.thread >> 16;
    if hi != 0 {
        (hi - 1, ev.thread & 0xffff)
    } else {
        (tel.pid(), ev.thread)
    }
}

/// Writes the full trace as Chrome Trace Event Format JSON
/// (`{"traceEvents": [...]}`).
pub fn write_chrome_trace(w: &mut impl Write, tel: &Telemetry) -> io::Result<()> {
    writeln!(w, "{{\"traceEvents\": [")?;
    let mut first = true;
    for ev in tel.events() {
        if !first {
            writeln!(w, ",")?;
        }
        first = false;
        let (pid, tid) = lanes(tel, ev);
        write!(
            w,
            "  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": {}, \"tid\": {}, \"args\": {{",
            escape(ev.stage.label()),
            escape(ev.stage.label()),
            num(ev.start_ns as f64 / 1000.0),
            num(ev.dur_ns as f64 / 1000.0),
            pid,
            tid,
        )?;
        let mut sep = "";
        if ev.step != NO_STEP {
            write!(w, "\"step\": {}", ev.step)?;
            sep = ", ";
        }
        if ev.partition != NO_PARTITION {
            write!(w, "{sep}\"partition\": {}", ev.partition)?;
        }
        write!(w, "}}}}")?;
    }
    if !first {
        writeln!(w)?;
    }
    writeln!(w, "], \"displayTimeUnit\": \"ms\"}}")?;
    Ok(())
}

/// Writes the metrics stream as JSONL: one `run` line, one line per
/// stage with spans, one line per partition with activity.
pub fn write_metrics_jsonl(w: &mut impl Write, tel: &Telemetry) -> io::Result<()> {
    writeln!(
        w,
        "{{\"kind\": \"run\", \"pid\": {}, \"events\": {}, \"dropped\": {}, \"partition_steps_total\": {}, \"occupancy_mean\": {}, \"occupancy_max\": {}, \"io_retries\": {}{}}}",
        tel.pid(),
        tel.events().len(),
        tel.dropped(),
        tel.partition_steps_total(),
        num(tel.occupancy_hist().mean()),
        tel.occupancy_hist().max(),
        tel.io_retries(),
        fault_fields(tel.fault_total()),
    )?;
    for stage in Stage::ALL {
        let t = tel.stage(stage);
        if t.spans == 0 {
            continue;
        }
        write!(
            w,
            "{{\"kind\": \"stage\", \"stage\": \"{}\", \"spans\": {}, \"total_ns\": {}, \"mean_ns\": {}, \"max_ns\": {}, \"p99_low_ns\": {}, \"latency_buckets\": [",
            escape(stage.label()),
            t.spans,
            t.total_ns,
            num(t.latency.mean()),
            t.latency.max(),
            t.latency.quantile_low(0.99),
        )?;
        for (i, (low, count)) in t.latency.nonzero().iter().enumerate() {
            if i > 0 {
                write!(w, ", ")?;
            }
            write!(w, "[{low}, {count}]")?;
        }
        writeln!(w, "]{}}}", fault_fields(t.faults))?;
    }
    for (pi, c) in tel.partition_counters().iter().enumerate() {
        if c.steps == 0 && c.edge_bytes == 0 {
            continue;
        }
        writeln!(
            w,
            "{{\"kind\": \"partition\", \"partition\": {}, \"steps\": {}, \"walkers_in\": {}, \"ps_steps\": {}, \"ds_steps\": {}, \"edge_bytes\": {}, \"max_occupancy\": {}, \"ring_occupancy\": {}, \"prefetch_issued\": {}}}",
            pi, c.steps, c.walkers_in, c.ps_steps, c.ds_steps, c.edge_bytes, c.max_occupancy,
            c.ring_occupancy, c.prefetch_issued,
        )?;
    }
    Ok(())
}

/// The telemetry block of the human `--stats` summary.
pub fn human_summary(tel: &Telemetry) -> String {
    let mut out = String::new();
    let traced_ns: u64 = Stage::ALL.iter().map(|&s| tel.stage(s).total_ns).sum();
    out.push_str(&format!(
        "telemetry: {} spans recorded ({} dropped), {} partitions active\n",
        tel.events().len(),
        tel.dropped(),
        tel.partition_counters().iter().filter(|c| c.steps > 0).count(),
    ));
    for stage in Stage::ALL {
        let t = tel.stage(stage);
        if t.spans == 0 {
            continue;
        }
        let share = if traced_ns > 0 {
            100.0 * t.total_ns as f64 / traced_ns as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "  {:<8} {:>8} spans  {:>12} ns total ({:>5.1}% of traced)  mean {} ns  max {} ns\n",
            stage.label(),
            t.spans,
            t.total_ns,
            share,
            num(t.latency.mean()),
            t.latency.max(),
        ));
        out.push_str(&format!(
            "  {:<8} latency p50 >= {} ns, p99 >= {} ns\n",
            stage.label(),
            t.latency.quantile_low(0.50),
            t.latency.quantile_low(0.99),
        ));
        if let Some(f) = t.faults {
            out.push_str(&format!(
                "  {:<8} faults {} minor, {} major; rss max {} KiB\n",
                stage.label(),
                f.minor_faults,
                f.major_faults,
                f.rss_kib_max,
            ));
        }
    }
    if tel.io_retries() > 0 {
        out.push_str(&format!(
            "  io: {} transient retries absorbed by the recovery layer\n",
            tel.io_retries(),
        ));
    }
    let occ = tel.occupancy_hist();
    if occ.count() > 0 {
        out.push_str(&format!(
            "  occupancy: mean {} walkers/partition/step, max {}, p99 bucket >= {}\n",
            num(occ.mean()),
            occ.max(),
            occ.quantile_low(0.99),
        ));
    }
    let (ps, ds): (u64, u64) = tel
        .partition_counters()
        .iter()
        .fold((0, 0), |(p, d), c| (p + c.ps_steps, d + c.ds_steps));
    if ps + ds > 0 {
        out.push_str(&format!(
            "  policy: {} PS steps ({:.1}%), {} DS steps ({:.1}%)\n",
            ps,
            100.0 * ps as f64 / (ps + ds) as f64,
            ds,
            100.0 * ds as f64 / (ps + ds) as f64,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{json, tef, SpanEvent};

    fn traced() -> Telemetry {
        let mut t = Telemetry::new();
        t.span(SpanEvent {
            stage: Stage::Sample,
            start_ns: 1_000,
            dur_ns: 2_500,
            thread: 1,
            step: 0,
            partition: 3,
        });
        t.span(SpanEvent {
            stage: Stage::Shuffle,
            start_ns: 4_000,
            dur_ns: 1_000,
            thread: 0,
            step: 0,
            partition: NO_PARTITION,
        });
        t.record_partition_step(3, 7, true);
        t
    }

    #[test]
    fn chrome_trace_is_valid_tef() {
        let t = traced();
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, &t).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let report = tef::validate(&text).expect("trace validates");
        assert_eq!(report.events, 2);
        assert_eq!(report.complete_events, 2);
    }

    #[test]
    fn chrome_trace_maps_lanes_and_args() {
        let t = traced();
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, &t).unwrap();
        let doc = json::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let sample = &events[0];
        assert_eq!(sample.get("name").unwrap().as_str(), Some("sample"));
        assert_eq!(sample.get("ts").unwrap().as_num(), Some(1.0));
        assert_eq!(sample.get("dur").unwrap().as_num(), Some(2.5));
        assert_eq!(sample.get("tid").unwrap().as_num(), Some(1.0));
        assert_eq!(
            sample.get("args").unwrap().get("partition").unwrap().as_num(),
            Some(3.0)
        );
        // The sentinel partition is omitted from args.
        let shuffle = &events[1];
        assert!(shuffle.get("args").unwrap().get("partition").is_none());
    }

    #[test]
    fn absorbed_events_keep_socket_pid() {
        let mut a = Telemetry::new().with_pid(0);
        let mut b = Telemetry::new().with_pid(7);
        b.span(SpanEvent {
            stage: Stage::Sample,
            start_ns: 0,
            dur_ns: 10,
            thread: 2,
            step: NO_STEP,
            partition: NO_PARTITION,
        });
        a.absorb(b);
        if !a.is_on() {
            return;
        }
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, &a).unwrap();
        let doc = json::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        let ev = &doc.get("traceEvents").unwrap().as_arr().unwrap()[0];
        assert_eq!(ev.get("pid").unwrap().as_num(), Some(7.0));
        assert_eq!(ev.get("tid").unwrap().as_num(), Some(2.0));
    }

    #[test]
    fn metrics_jsonl_lines_parse() {
        let t = traced();
        let mut buf = Vec::new();
        write_metrics_jsonl(&mut buf, &t).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut kinds = Vec::new();
        for line in text.lines() {
            let v = json::parse(line).expect("every line is standalone JSON");
            kinds.push(v.get("kind").unwrap().as_str().unwrap().to_string());
        }
        assert!(kinds.contains(&"run".to_string()));
        assert!(kinds.contains(&"stage".to_string()));
        assert!(kinds.contains(&"partition".to_string()));
    }

    #[test]
    fn human_summary_mentions_stages_and_policy() {
        let t = traced();
        let s = human_summary(&t);
        assert!(s.contains("sample"), "{s}");
        assert!(s.contains("shuffle"), "{s}");
        assert!(s.contains("PS steps"), "{s}");
        assert!(s.contains("% of traced"), "{s}");
    }

    #[test]
    fn empty_recorder_exports_cleanly() {
        let t = Telemetry::new();
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, &t).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let report = tef::validate(&text).expect("empty trace validates");
        assert_eq!(report.events, 0);
        assert!(!human_summary(&t).contains("NaN"));
    }
}
