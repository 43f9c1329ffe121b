//! Spans recorded from the benchmark's own files, around each call into
//! a layer: name, start, end, the span that caused it, and one id per
//! pass.  They stay in memory until the run ends, then go out as JSONL
//! and as a Chrome trace (`chrome://tracing`, Perfetto).

use std::fs;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use fm_telemetry::json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Spans of one pass (one set-up, one episode, ...) share an id.
    pub pass: u32,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a new pass: spans recorded from now on carry its id.
    pub fn next_pass(&mut self) {
        self.pass += 1;
    }

    /// Records `f` as a span named `name`, a child of whatever span is
    /// open, and returns its result with the span's index.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, usize) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        (out, id)
    }

    pub fn seconds(&self, id: usize) -> f64 {
        self.spans[id].seconds()
    }

    /// A span's self time: its duration minus the part its child spans
    /// cover.
    pub fn self_seconds(&self, id: usize) -> f64 {
        self_seconds(&self.spans, id)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes `<stem>.jsonl` (one span per line) and `<stem>.trace.json`
    /// (Chrome trace event format) under `dir`.
    pub fn write(&self, dir: &Path, stem: &str) -> std::io::Result<()> {
        fs::create_dir_all(dir)?;
        let mut jsonl =
            std::io::BufWriter::new(fs::File::create(dir.join(format!("{stem}.jsonl")))?);
        let mut events = Vec::with_capacity(self.spans.len());
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                jsonl,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \
                 \"pass\": {}, \"self_ns\": {}}}",
                json::escape(s.name),
                s.start_ns,
                s.end_ns,
                s.pass,
                (self.self_seconds(id) * 1e9).round() as u64,
            )?;
            events.push(format!(
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"dur\": {}}}",
                json::escape(s.name),
                s.pass,
                json::num(s.start_ns as f64 / 1e3),
                json::num((s.end_ns - s.start_ns) as f64 / 1e3),
            ));
        }
        jsonl.flush()?;
        fs::write(
            dir.join(format!("{stem}.trace.json")),
            format!("{{\"traceEvents\": [\n{}\n]}}\n", events.join(",\n")),
        )
    }
}

pub fn self_seconds(spans: &[Span], id: usize) -> f64 {
    let children: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(Span::seconds)
        .sum();
    spans[id].seconds() - children
}

/// Timer and cache-state slack of a tiling, in seconds: at test scale
/// a whole set-up is a few milliseconds.
const TILING_SLACK_S: f64 = 0.001;

/// Do `parts` (seconds) tile `whole`?  They do when their sum is within
/// `tolerance` (a share of `whole`) of it and none is negative by more
/// than that, give or take `TILING_SLACK_S`.
pub fn tiles(whole: f64, parts: &[f64], tolerance: f64) -> Result<(), String> {
    let sum: f64 = parts.iter().sum();
    let allowed = tolerance * whole + TILING_SLACK_S;
    let lowest = parts.iter().copied().fold(f64::MAX, f64::min);
    if !(whole > 0.0 && (whole - sum).abs() <= allowed) {
        return Err(format!(
            "parts sum to {sum:.6} s, whole is {whole:.6} s: off by more than {:.0} %",
            100.0 * tolerance
        ));
    }
    if lowest < -allowed {
        return Err(format!(
            "a part is {lowest:.6} s, negative by more than {:.0} % of the whole ({whole:.6} s)",
            100.0 * tolerance
        ));
    }
    Ok(())
}

/// A tiling judged on several measurements of the same work.  What a
/// tiling leaves outside its parts is small and fixed, and a burst of
/// noise that lands in it only makes it larger, so the tiling holds as
/// soon as one measurement tiles, and the smallest gap seen is the one
/// to report.
#[derive(Debug)]
pub struct Tiling {
    pub judged: usize,
    /// Smallest `(whole - parts) / whole` seen, signed.
    pub smallest_gap: f64,
    last: Result<(), String>,
    held: bool,
}

impl Default for Tiling {
    fn default() -> Self {
        Tiling {
            judged: 0,
            smallest_gap: f64::INFINITY,
            last: Err("nothing was measured".into()),
            held: false,
        }
    }
}

impl Tiling {
    pub fn judge(&mut self, whole: f64, parts: &[f64], tolerance: f64) {
        self.judged += 1;
        let gap = (whole - parts.iter().sum::<f64>()) / whole;
        if gap.abs() < self.smallest_gap.abs() {
            self.smallest_gap = gap;
        }
        self.last = tiles(whole, parts, tolerance);
        self.held |= self.last.is_ok();
    }

    pub fn holds(&self) -> bool {
        self.held
    }

    /// `Ok` when a measurement tiled; otherwise why the last one did not.
    pub fn verdict(&self) -> Result<(), String> {
        if self.held {
            return Ok(());
        }
        self.last
            .clone()
            .map_err(|why| format!("{why}, in each of {} measurements", self.judged))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            pass: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("setup", 0, 10_000_000_000, None),
            span("load", 0, 2_000_000_000, Some(0)),
            span("build", 2_000_000_000, 9_500_000_000, Some(0)),
            // A grandchild counts against its parent only.
            span("sort", 2_000_000_000, 5_000_000_000, Some(2)),
        ];
        assert!((self_seconds(&spans, 0) - 0.5).abs() < 1e-9);
        assert!((self_seconds(&spans, 2) - 4.5).abs() < 1e-9);
        assert!((self_seconds(&spans, 3) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn recorder_nests_spans_and_numbers_passes() {
        let mut rec = Recorder::new();
        rec.next_pass();
        let (inner, outer) = rec.span("outer", |rec| rec.span("inner", |_| 7).1);
        rec.next_pass();
        let ((), later) = rec.span("later", |_| ());
        let s = rec.spans();
        assert_eq!(s[inner].parent, Some(outer));
        assert_eq!(s[outer].parent, None);
        assert_eq!((s[outer].pass, s[inner].pass, s[later].pass), (1, 1, 2));
        assert!(s[outer].start_ns <= s[inner].start_ns && s[inner].end_ns <= s[outer].end_ns);
        assert!(rec.self_seconds(outer) >= 0.0);
    }

    #[test]
    fn tiling_arithmetic() {
        assert!(tiles(10.0, &[2.0, 7.9], 0.02).is_ok());
        assert!(tiles(10.0, &[2.0, 7.7], 0.02).is_err());
        assert!(tiles(10.0, &[2.0, 8.3], 0.02).is_err());
        // A slightly negative remainder is noise; a large one is a
        // child that cannot have run inside the whole.
        assert!(tiles(10.0, &[10.1, -0.1], 0.02).is_ok());
        assert!(tiles(10.0, &[10.5, -0.5], 0.02).is_err());
        // A millisecond of slack, for wholes of a few milliseconds.
        assert!(tiles(0.004, &[0.0042, -0.0002], 0.02).is_ok());
        assert!(tiles(0.004, &[0.006], 0.02).is_err());
        assert!(
            tiles(0.0, &[0.0], 0.02).is_err(),
            "an empty whole tiles nothing"
        );
    }

    #[test]
    fn a_tiling_holds_once_one_measurement_tiles() {
        let mut t = Tiling::default();
        assert!(t.verdict().is_err(), "nothing measured, nothing holds");
        // A burst in the untimed part: 7 % outside.
        t.judge(1.0, &[0.5, 0.43], 0.02);
        assert!(!t.holds());
        assert!(t.verdict().unwrap_err().contains("each of 1"));
        // The quiet measurement: 1 % outside.
        t.judge(1.0, &[0.5, 0.49], 0.02);
        assert!(t.holds() && t.verdict().is_ok());
        // A later noisy one does not take it back.
        t.judge(1.0, &[0.5, 0.40], 0.02);
        assert!(t.holds());
        assert_eq!(t.judged, 3);
        assert!((t.smallest_gap - 0.01).abs() < 1e-12);
    }
}
