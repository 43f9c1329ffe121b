//! Deterministic fault injection for file IO.
//!
//! [`FaultyFile`] wraps any `Read + Seek (+ Write)` object and injects
//! seeded, reproducible faults: transient errors (retryable), short
//! reads, and torn writes (a prefix persists, then the write fails
//! permanently — the model of a crash mid-write).  An operation that
//! does not go through `Read` or `Write` — a block load that maps the
//! file — takes its transient roll from [`FaultyFile::operation`].  The same seed always
//! produces the same fault sequence, so every test that exercises the
//! retry and atomicity machinery is bit-reproducible.

use std::io::{self, Read, Seek, SeekFrom, Write};

use fm_rng::{Rng64, Xorshift64Star};

/// Probabilities (per IO call) of each injected fault class.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPolicy {
    /// RNG seed for the fault stream.
    pub seed: u64,
    /// Probability an op fails with a transient (retryable) error.
    pub transient_rate: f64,
    /// Probability a read returns only half the requested bytes.  A
    /// mapping has no short reads, so [`FaultyFile::operation`] never
    /// rolls this: a mapped load fails whole or not at all.
    pub short_read_rate: f64,
    /// Probability a write persists a prefix and then fails permanently.
    pub torn_write_rate: f64,
}

impl FaultPolicy {
    /// Only transient errors, at `rate` per op.
    pub fn transient(seed: u64, rate: f64) -> Self {
        Self {
            seed,
            transient_rate: rate,
            ..Self::default()
        }
    }

    /// Only torn writes, at `rate` per op.
    pub fn torn_writes(seed: u64, rate: f64) -> Self {
        Self {
            seed,
            torn_write_rate: rate,
            ..Self::default()
        }
    }
}

/// Counts of faults injected so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Transient errors injected.
    pub transient: u64,
    /// Short reads injected.
    pub short_reads: u64,
    /// Torn writes injected.
    pub torn_writes: u64,
}

/// The live fault stream: policy + seeded RNG + counters.
#[derive(Debug)]
pub struct FaultState {
    policy: FaultPolicy,
    rng: Xorshift64Star,
    /// Faults injected so far.
    pub counts: FaultCounts,
}

impl FaultState {
    pub fn new(policy: FaultPolicy) -> Self {
        Self {
            policy,
            rng: Xorshift64Star::new(policy.seed),
            counts: FaultCounts::default(),
        }
    }

    fn roll(&mut self, rate: f64) -> bool {
        rate > 0.0 && self.rng.next_f64() < rate
    }

    /// The transient error injected by this layer.  `WouldBlock` is
    /// deliberate: `Read::read_exact` silently retries `Interrupted`,
    /// which would hide the fault from the retry layer under test.
    fn transient_error(context: &str) -> io::Error {
        io::Error::new(
            io::ErrorKind::WouldBlock,
            format!("injected transient {context} error"),
        )
    }

    /// One faulted bulk write against `w`: rolls the fault dice once,
    /// then either fails transiently, tears the write (persists half,
    /// fails permanently), or writes everything.  Used by the checkpoint
    /// sink, whose fault stream must span retry attempts.
    pub fn faulted_write_all<W: Write>(&mut self, w: &mut W, buf: &[u8]) -> io::Result<()> {
        if self.roll(self.policy.transient_rate) {
            self.counts.transient += 1;
            return Err(Self::transient_error("write"));
        }
        if buf.len() > 1 && self.roll(self.policy.torn_write_rate) {
            self.counts.torn_writes += 1;
            w.write_all(&buf[..buf.len() / 2])?;
            return Err(io::Error::other("injected torn write"));
        }
        w.write_all(buf)
    }
}

/// A `Read + Seek + Write` wrapper that injects faults per
/// [`FaultPolicy`].  With no policy it is a zero-cost pass-through, so
/// engines can hold one unconditionally.
#[derive(Debug)]
pub struct FaultyFile<F> {
    inner: F,
    state: Option<FaultState>,
}

impl<F> FaultyFile<F> {
    /// No faults: plain delegation to `inner`.
    pub fn passthrough(inner: F) -> Self {
        Self { inner, state: None }
    }

    /// Injects faults per `policy`.
    pub fn with_policy(inner: F, policy: FaultPolicy) -> Self {
        Self {
            inner,
            state: Some(FaultState::new(policy)),
        }
    }

    /// Faults injected so far (zeros for a pass-through).
    pub fn counts(&self) -> FaultCounts {
        self.state.as_ref().map(|s| s.counts).unwrap_or_default()
    }

    /// The wrapped object.
    pub fn into_inner(self) -> F {
        self.inner
    }

    /// One whole operation on the wrapped object, such as a block load
    /// that maps the file rather than reading it: rolls the transient
    /// fault once (counted in [`FaultCounts::transient`]) and otherwise
    /// hands the object back for the caller to perform it with.
    pub fn operation(&mut self) -> io::Result<&F> {
        if let Some(st) = self.state.as_mut() {
            if st.roll(st.policy.transient_rate) {
                st.counts.transient += 1;
                return Err(FaultState::transient_error("load"));
            }
        }
        Ok(&self.inner)
    }
}

impl<F: Read> Read for FaultyFile<F> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if let Some(st) = self.state.as_mut() {
            if st.roll(st.policy.transient_rate) {
                st.counts.transient += 1;
                return Err(FaultState::transient_error("read"));
            }
            if buf.len() > 1 && st.roll(st.policy.short_read_rate) {
                st.counts.short_reads += 1;
                let half = buf.len() / 2;
                return self.inner.read(&mut buf[..half]);
            }
        }
        self.inner.read(buf)
    }
}

impl<F: Seek> Seek for FaultyFile<F> {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.inner.seek(pos)
    }
}

impl<F: Write> Write for FaultyFile<F> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if let Some(st) = self.state.as_mut() {
            if st.roll(st.policy.transient_rate) {
                st.counts.transient += 1;
                return Err(FaultState::transient_error("write"));
            }
            if buf.len() > 1 && st.roll(st.policy.torn_write_rate) {
                st.counts.torn_writes += 1;
                // Persist a prefix, then fail permanently: the on-disk
                // model of a crash mid-write.
                self.inner.write_all(&buf[..buf.len() / 2])?;
                return Err(io::Error::other("injected torn write"));
            }
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn passthrough_reads_exactly() {
        let data: Vec<u8> = (0..64u8).collect();
        let mut f = FaultyFile::passthrough(Cursor::new(data.clone()));
        let mut out = vec![0u8; 64];
        f.read_exact(&mut out).expect("clean read");
        assert_eq!(out, data);
        assert_eq!(f.counts(), FaultCounts::default());
    }

    #[test]
    fn fault_sequence_is_deterministic() {
        let data = vec![7u8; 4096];
        let policy = FaultPolicy {
            seed: 99,
            transient_rate: 0.3,
            short_read_rate: 0.3,
            torn_write_rate: 0.0,
        };
        let run = || {
            let mut f = FaultyFile::with_policy(Cursor::new(data.clone()), policy);
            let mut log = Vec::new();
            for _ in 0..200 {
                let mut buf = [0u8; 16];
                f.seek(SeekFrom::Start(0)).expect("seek");
                log.push(match f.read(&mut buf) {
                    Ok(n) => n as i64,
                    Err(_) => -1,
                });
            }
            (log, f.counts())
        };
        let (la, ca) = run();
        let (lb, cb) = run();
        assert_eq!(la, lb);
        assert_eq!(ca, cb);
        assert!(ca.transient > 0 && ca.short_reads > 0);
    }

    #[test]
    fn short_reads_are_absorbed_by_read_exact() {
        let data: Vec<u8> = (0..255u8).collect();
        let policy = FaultPolicy {
            seed: 5,
            transient_rate: 0.0,
            short_read_rate: 0.5,
            torn_write_rate: 0.0,
        };
        let mut f = FaultyFile::with_policy(Cursor::new(data.clone()), policy);
        let mut out = vec![0u8; 255];
        f.read_exact(&mut out).expect("read_exact loops over short reads");
        assert_eq!(out, data);
        assert!(f.counts().short_reads > 0);
    }

    #[test]
    fn operations_roll_the_transient_fault_alone() {
        let policy = FaultPolicy {
            seed: 11,
            transient_rate: 0.4,
            short_read_rate: 1.0,
            torn_write_rate: 1.0,
        };
        let mut f = FaultyFile::with_policy(Cursor::new(vec![3u8; 8]), policy);
        let mut handed_back = 0u64;
        for _ in 0..200 {
            match f.operation() {
                Ok(inner) => {
                    assert_eq!(inner.get_ref(), &vec![3u8; 8]);
                    handed_back += 1;
                }
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::WouldBlock),
            }
        }
        let counts = f.counts();
        assert_eq!(counts.transient + handed_back, 200);
        assert!(counts.transient > 0 && handed_back > 0, "{counts:?}");
        assert_eq!((counts.short_reads, counts.torn_writes), (0, 0));
        let mut clean = FaultyFile::passthrough(Cursor::new(Vec::<u8>::new()));
        assert!(clean.operation().is_ok());
        assert_eq!(clean.counts(), FaultCounts::default());
    }

    #[test]
    fn torn_write_persists_prefix_then_fails() {
        let policy = FaultPolicy::torn_writes(3, 1.0);
        let mut f = FaultyFile::with_policy(Cursor::new(Vec::new()), policy);
        let err = f.write_all(&[1u8; 100]).expect_err("torn write fails");
        assert!(!matches!(err.kind(), io::ErrorKind::WouldBlock));
        assert_eq!(f.counts().torn_writes, 1);
        assert_eq!(f.into_inner().into_inner(), vec![1u8; 50]);
    }
}
