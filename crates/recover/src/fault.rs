//! Deterministic fault injection for file IO.
//!
//! [`FaultState`] is one seeded, reproducible fault stream shared by a
//! run's IO: a transient (retryable) error rolled once per operation —
//! a checkpoint write through [`FaultState::faulted_write_all`] or a
//! block load, which maps the file, through [`FaultState::operation`] —
//! and torn checkpoint writes (a prefix persists, then the write fails
//! permanently: the model of a crash mid-write).  No IO in a run reads
//! a byte stream, so there are no short reads to inject.  The same seed
//! always produces the same fault sequence, so every test that
//! exercises the retry and atomicity machinery is bit-reproducible.

use std::io::{self, Write};

use fm_rng::{Rng64, Xorshift64Star};

/// Probabilities (per IO operation) of each injected fault class.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPolicy {
    /// RNG seed for the fault stream.
    pub seed: u64,
    /// Probability an operation fails with a transient (retryable)
    /// error: a block load fails whole or not at all.
    pub transient_rate: f64,
    /// Probability a checkpoint write persists a prefix and then fails
    /// permanently.
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

    /// One IO operation: rolls the transient fault once (counted in
    /// [`FaultCounts::transient`]; no draw at rate 0) and otherwise
    /// leaves the caller to perform it.  A block load, which maps the
    /// file, takes this roll alone.  The error is `WouldBlock` on
    /// purpose: std's `write_all` silently retries `Interrupted`, which
    /// would hide the fault from the retry layer under test.
    pub fn operation(&mut self) -> io::Result<()> {
        if self.roll(self.policy.transient_rate) {
            self.counts.transient += 1;
            return Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                "injected transient IO error",
            ));
        }
        Ok(())
    }

    /// One faulted bulk write against `w`: an [`operation`] roll, then
    /// either a torn write (persists half, fails permanently) or the
    /// whole write.  Used by the checkpoint sink, whose fault stream must
    /// span retry attempts.
    ///
    /// [`operation`]: FaultState::operation
    pub fn faulted_write_all<W: Write>(&mut self, w: &mut W, buf: &[u8]) -> io::Result<()> {
        self.operation()?;
        if buf.len() > 1 && self.roll(self.policy.torn_write_rate) {
            self.counts.torn_writes += 1;
            w.write_all(&buf[..buf.len() / 2])?;
            return Err(io::Error::other("injected torn write"));
        }
        w.write_all(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn fault_sequence_is_deterministic() {
        let policy = FaultPolicy {
            seed: 99,
            transient_rate: 0.3,
            torn_write_rate: 0.3,
        };
        let run = || {
            let mut st = FaultState::new(policy);
            let mut log = Vec::new();
            for i in 0..200 {
                let mut out = Cursor::new(Vec::new());
                let res = match i % 2 {
                    0 => st.operation(),
                    _ => st.faulted_write_all(&mut out, &[7u8; 16]),
                };
                log.push((res.map_err(|e| e.kind()), out.into_inner().len()));
            }
            (log, st.counts)
        };
        let (la, ca) = run();
        let (lb, cb) = run();
        assert_eq!(la, lb);
        assert_eq!(ca, cb);
        assert!(ca.transient > 0 && ca.torn_writes > 0, "{ca:?}");
    }

    #[test]
    fn operations_roll_the_transient_fault_alone() {
        let policy = FaultPolicy {
            seed: 11,
            transient_rate: 0.4,
            torn_write_rate: 1.0,
        };
        let mut st = FaultState::new(policy);
        let mut performed = 0u64;
        for _ in 0..200 {
            match st.operation() {
                Ok(()) => performed += 1,
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::WouldBlock),
            }
        }
        assert_eq!(st.counts.transient + performed, 200);
        assert!(st.counts.transient > 0 && performed > 0, "{:?}", st.counts);
        assert_eq!(st.counts.torn_writes, 0);
        // One draw per operation: the stream matches one roll per call.
        let mut rng = Xorshift64Star::new(11);
        let rolls = (0..200).filter(|_| rng.next_f64() < 0.4).count();
        assert_eq!(st.counts.transient, rolls as u64);
        // At rate 0 an operation draws nothing: the writes after any
        // number of them tear as a fresh stream's do.
        let tears = |ops: usize| {
            let mut st = FaultState::new(FaultPolicy::torn_writes(5, 0.5));
            assert!((0..ops).all(|_| st.operation().is_ok()));
            let write = |st: &mut FaultState| st.faulted_write_all(&mut io::sink(), &[0u8; 8]);
            (0..64).map(|_| write(&mut st).is_err()).collect::<Vec<_>>()
        };
        assert_eq!(tears(100), tears(0));
        assert!(tears(0).contains(&true) && tears(0).contains(&false));
    }

    #[test]
    fn torn_write_persists_prefix_then_fails() {
        let mut st = FaultState::new(FaultPolicy::torn_writes(3, 1.0));
        let mut out = Cursor::new(Vec::new());
        let err = st
            .faulted_write_all(&mut out, &[1u8; 100])
            .expect_err("torn write fails");
        assert!(!matches!(err.kind(), io::ErrorKind::WouldBlock));
        assert_eq!(st.counts.torn_writes, 1);
        assert_eq!(out.into_inner(), vec![1u8; 50]);
    }
}
