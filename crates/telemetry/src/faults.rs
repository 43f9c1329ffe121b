//! Page-fault and resident-set counters from `/proc`.
//!
//! An enabled recorder reads the process's minor faults, major faults
//! and resident set at every coordinator span boundary; the delta since
//! the previous boundary is attributed to the span's [`Stage`], which
//! also keeps the largest resident set seen at its boundaries.  The
//! coordinator's spans tile the run back to back, so the per-stage
//! deltas tile the process's faults: nothing is dropped, and work in an
//! unspanned gap lands in the next span's stage.
//!
//! The counts are process-wide: a pooled stage's workers fault into
//! the same totals as the coordinator.  All three numbers come from one
//! file, `/proc/self/stat` (fields 10, 12 and 24), held open and re-read
//! from offset 0 at each boundary: about 3.5 µs on a 2-vCPU Xeon VM,
//! where opening it and `/proc/self/status` afresh cost 21 µs.  Its
//! resident set is in pages; the page size is the kernel's `AT_PAGESZ`,
//! read once from `/proc/self/auxv`.  Where either file cannot be read
//! (non-Linux hosts) no sample is taken and the exporters leave the
//! fault fields out.
//!
//! [`Stage`]: crate::Stage

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

/// One reading of the process's fault counters and resident set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSample {
    /// Minor (no-IO) page faults since process start.
    pub minor: u64,
    /// Major (IO-backed) page faults since process start.
    pub major: u64,
    /// Resident set size in KiB.
    pub rss_kib: u64,
}

/// Faults attributed to one stage across its span boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageFaults {
    /// Minor faults since the boundary before each of the stage's spans.
    pub minor_faults: u64,
    /// Major faults, likewise.
    pub major_faults: u64,
    /// Largest resident set (KiB) read at one of the stage's boundaries.
    pub rss_kib_max: u64,
}

impl StageFaults {
    /// Adds the delta from `last` to `now`.
    pub(crate) fn attribute(&mut self, last: &FaultSample, now: &FaultSample) {
        self.minor_faults += now.minor.saturating_sub(last.minor);
        self.major_faults += now.major.saturating_sub(last.major);
        self.rss_kib_max = self.rss_kib_max.max(now.rss_kib);
    }

    /// Sums the counts and keeps the larger resident set.
    pub(crate) fn absorb(&mut self, other: &StageFaults) {
        self.minor_faults += other.minor_faults;
        self.major_faults += other.major_faults;
        self.rss_kib_max = self.rss_kib_max.max(other.rss_kib_max);
    }
}

/// Minor faults, major faults and resident pages from the text of
/// `/proc/<pid>/stat` (fields 10, 12 and 24).  Fields are counted after
/// the *last* `)`, since the command name in field 2 may itself hold
/// spaces and parentheses.
fn parse_stat(text: &str) -> Option<(u64, u64, u64)> {
    let rest = &text[text.rfind(')')? + 1..];
    // The first field after `comm` is field 3, the state.
    let mut fields = rest.split_ascii_whitespace();
    let mut next = |skip: usize| -> Option<u64> { fields.nth(skip)?.parse().ok() };
    let minor = next(10 - 3)?;
    let major = next(1)?;
    let rss_pages = next(24 - 12 - 1)?;
    Some((minor, major, rss_pages))
}

/// The page size in bytes (`AT_PAGESZ`) from the native-endian
/// word pairs of `/proc/<pid>/auxv`.
fn parse_auxv_page_size(bytes: &[u8]) -> Option<u64> {
    const AT_NULL: u64 = 0;
    const AT_PAGESZ: u64 = 6;
    const WORD: usize = std::mem::size_of::<usize>();
    let word = |b: &[u8]| {
        let mut w = [0u8; WORD];
        w.copy_from_slice(b);
        usize::from_ne_bytes(w) as u64
    };
    for pair in bytes.chunks_exact(2 * WORD) {
        match word(&pair[..WORD]) {
            AT_NULL => return None,
            AT_PAGESZ => return Some(word(&pair[WORD..])).filter(|&p| p > 0),
            _ => {}
        }
    }
    None
}

/// An open `/proc/<pid>/stat`, re-read at every span boundary.
#[derive(Debug)]
pub struct ProcStat {
    file: File,
    page_bytes: u64,
    buf: Vec<u8>,
}

impl ProcStat {
    /// Opens `stat` under a `/proc/<pid>` directory and reads the page
    /// size from its `auxv`; `None` when either is unreadable.
    pub fn open(dir: &Path) -> Option<Self> {
        let page_bytes = parse_auxv_page_size(&std::fs::read(dir.join("auxv")).ok()?)?;
        Some(Self {
            file: File::open(dir.join("stat")).ok()?,
            page_bytes,
            buf: Vec::with_capacity(1024),
        })
    }

    /// This process's counters now.
    pub fn read(&mut self) -> Option<FaultSample> {
        self.buf.clear();
        self.file.seek(SeekFrom::Start(0)).ok()?;
        self.file.read_to_end(&mut self.buf).ok()?;
        let (minor, major, rss_pages) = parse_stat(std::str::from_utf8(&self.buf).ok()?)?;
        Some(FaultSample {
            minor,
            major,
            rss_kib: rss_pages.saturating_mul(self.page_bytes) / 1024,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A real-shaped `stat` line whose `comm` is `name`: 1234 minor,
    /// 7 major faults, 300 resident pages.
    fn stat_line(name: &str) -> String {
        format!(
            "4242 ({name}) R 1 4242 4242 0 -1 4194560 1234 0 7 0 12 3 0 0 20 0 1 0 99 1000 300 \
             18446744073709551615 1 1 0 0 0 0 0 4096 0 0 0 0 17 1 0 0 0 0 0"
        )
    }

    #[test]
    fn stat_reads_fields_after_the_last_paren() {
        assert_eq!(parse_stat(&stat_line("fmwalk")), Some((1234, 7, 300)));
        assert_eq!(parse_stat(&stat_line("a) b")), Some((1234, 7, 300)));
        assert_eq!(parse_stat(&stat_line("x (y) z)")), Some((1234, 7, 300)));
    }

    #[test]
    fn hostile_stat_text_is_none() {
        assert_eq!(parse_stat(""), None);
        assert_eq!(parse_stat("4242 fmwalk R 1"), None, "no comm at all");
        // Truncated before field 12 (majflt), and before field 24.
        assert_eq!(
            parse_stat("4242 (w) R 1 4242 4242 0 -1 4194560 1234 0"),
            None
        );
        assert_eq!(
            parse_stat("4242 (w) R 1 4242 4242 0 -1 4194560 1234 0 7 0 12"),
            None
        );
        let bad = stat_line("w").replace(" 1234 ", " 12x4 ");
        assert_eq!(parse_stat(&bad), None, "non-numeric minflt");
        let negative = stat_line("w").replace(" 7 ", " -7 ");
        assert_eq!(parse_stat(&negative), None);
        // A `)` after the real fields is taken as comm's end, and the
        // fields after it run out.
        assert_eq!(parse_stat(&format!("{})", stat_line("w"))), None);
    }

    fn auxv(pairs: &[(usize, usize)]) -> Vec<u8> {
        pairs
            .iter()
            .flat_map(|&(k, v)| [k.to_ne_bytes(), v.to_ne_bytes()])
            .flatten()
            .collect()
    }

    #[test]
    fn auxv_yields_the_page_size() {
        let v = auxv(&[(33, 0xdead), (6, 16384), (17, 100), (0, 0)]);
        assert_eq!(parse_auxv_page_size(&v), Some(16384));
    }

    #[test]
    fn hostile_auxv_is_none() {
        assert_eq!(parse_auxv_page_size(&[]), None);
        assert_eq!(
            parse_auxv_page_size(&auxv(&[(33, 1), (0, 0), (6, 4096)])),
            None
        );
        assert_eq!(
            parse_auxv_page_size(&auxv(&[(6, 0)])),
            None,
            "zero page size"
        );
        // Cut inside the AT_PAGESZ pair.
        let v = auxv(&[(33, 1), (6, 4096)]);
        assert_eq!(parse_auxv_page_size(&v[..v.len() - 1]), None);
    }

    #[test]
    fn a_missing_directory_opens_nothing() {
        assert!(ProcStat::open(Path::new("/nonexistent/proc/self")).is_none());
    }

    #[test]
    fn this_process_reads_when_proc_exists() {
        let Some(mut stat) = ProcStat::open(Path::new("/proc/self")) else {
            return;
        };
        let a = stat.read().expect("first read");
        let touched = vec![1u8; 1 << 22];
        std::hint::black_box(&touched);
        let b = stat.read().expect("re-read from offset 0");
        assert!(b.minor >= a.minor && b.rss_kib > 0, "{a:?} then {b:?}");
    }

    #[test]
    fn attribution_sums_deltas_and_keeps_the_peak() {
        let mut s = StageFaults::default();
        let at = |minor, major, rss_kib| FaultSample {
            minor,
            major,
            rss_kib,
        };
        s.attribute(&at(10, 1, 900), &at(15, 1, 1000));
        s.attribute(&at(15, 1, 1000), &at(18, 3, 800));
        assert_eq!(
            s,
            StageFaults {
                minor_faults: 8,
                major_faults: 2,
                rss_kib_max: 1000
            }
        );
    }
}
