//! The engine-agnostic walk snapshot and its framed binary format.
//!
//! ```text
//! file   := magic(8) = "FMCKPT1\0" | frame(STAT) | frame(WLKR) | frame(OUTP)
//! frame  := tag(4) | payload_len(u64 LE) | payload | crc32(u32 LE)
//! ```
//!
//! An engine's [`WalkSnapshot`] borrows the run's arrays, and
//! [`WalkSnapshot::encode_into`] copies them once into a reused buffer,
//! each frame in place; decoding yields the same type, owning them.
//!
//! The CRC of each frame covers its tag, length field, and payload, so
//! every byte of the file is guarded: the magic by equality, everything
//! else by a frame CRC.  Decoding verifies all three CRCs *before*
//! parsing any payload, which is what makes the corruption property hold
//! ("flip any one byte → [`RecoverError::Corrupt`]", proven by a sweep
//! test in this module).  Length fields are validated against the bytes
//! actually present before any allocation.
//!
//! Section contents:
//!
//! * `STAT` — scalars: format version, seed, next iteration, total
//!   steps, walker count, steps taken so far, engine config fingerprint,
//!   graph fingerprint, per-partition step counters.
//! * `WLKR` — the compact walker arrays: current vertices `w`, previous
//!   vertices `prev` (second-order walks), per-vertex visit counters,
//!   and the pre-sample buffer state of every PS partition (FlashMob's
//!   PS buffers carry unconsumed samples *across* iterations, so resume
//!   without them would diverge from the uninterrupted chain).
//! * `OUTP` — the output cursor: every path row recorded so far.
//! * `BBLK` *(optional)* — the out-of-core bi-block scheduler's
//!   mid-schedule state: epoch and pair-slot cursor, the parked-walker
//!   boundary buckets, per-walker step counters, and the walker-major
//!   partial paths.  The frame is appended only by the bi-block engine;
//!   first-order snapshots omit it and decode exactly as before.  It
//!   uses the same tag/len/payload/CRC32 frame as the mandatory
//!   sections, so the single-byte-corruption property ("flip any one
//!   byte → `Corrupt`") extends to the new state for free: a flipped
//!   tag fails the tag check, a flipped length or payload byte fails
//!   the CRC, and stray trailing bytes fail the frame-header minimum.

use std::borrow::Cow;
use std::path::{Path, PathBuf};

use crate::error::RecoverError;
use crate::wire::{frame, le_bytes, put_rows, put_words, read_frame, Reader};

/// File magic of a snapshot.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"FMCKPT1\0";
const FORMAT_VERSION: u32 = 1;

const TAG_STATE: &[u8; 4] = b"STAT";
const TAG_WALKERS: &[u8; 4] = b"WLKR";
const TAG_OUTPUT: &[u8; 4] = b"OUTP";
const TAG_BIBLOCK: &[u8; 4] = b"BBLK";

/// How (and whether) a run writes checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// Directory snapshots and the manifest are published into.
    pub dir: PathBuf,
    /// Units of progress between checkpoints — iterations in memory,
    /// pair slots out of core; a last checkpoint holds the finished
    /// walk.  0 disables checkpointing.
    pub every: usize,
    /// Stop the run with `Halted` right after writing this many
    /// checkpoints — the crash-matrix harness's deterministic "kill".
    pub halt_after: Option<u64>,
}

impl CheckpointSpec {
    /// Checkpoints into `dir` after every `every` iterations.
    pub fn new(dir: impl Into<PathBuf>, every: usize) -> Self {
        Self {
            dir: dir.into(),
            every,
            halt_after: None,
        }
    }

    /// Halt the run (deterministic simulated kill) after `n` checkpoints.
    pub fn halt_after(mut self, n: u64) -> Self {
        self.halt_after = Some(n);
        self
    }
}

/// What a snapshot must agree with before a run resumes from it: the
/// identity of the run that wrote it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunHeader {
    /// Seed the run was started with.
    pub seed: u64,
    /// Walker count.
    pub walkers: u64,
    /// Total configured iterations.
    pub steps_total: u64,
    /// Fingerprint of the engine configuration (algorithm, stop rule,
    /// planner, …); a resume against a different config is rejected.
    pub config_tag: u64,
    /// Fingerprint of the (sorted) graph; a resume against a different
    /// graph is rejected.
    pub graph_tag: u64,
}

impl RunHeader {
    /// [`RecoverError::Mismatch`] naming the first field a snapshot's
    /// header `snap` disagrees with this run's on.
    pub fn gate(&self, snap: &RunHeader) -> Result<(), RecoverError> {
        let fields = [
            ("configuration tag", snap.config_tag, self.config_tag),
            ("graph tag", snap.graph_tag, self.graph_tag),
            ("seed", snap.seed, self.seed),
            ("walker count", snap.walkers, self.walkers),
            ("step count", snap.steps_total, self.steps_total),
        ];
        match fields.into_iter().find(|(_, got, want)| got != want) {
            Some((field, got, want)) => Err(RecoverError::Mismatch {
                detail: format!("snapshot {field} {got} is not this run's {want}"),
            }),
            None => Ok(()),
        }
    }
}

/// Mid-schedule state of the out-of-core bi-block scheduler (second
/// order walks): where in the triangular pair sweep the run stopped and
/// every walker parked at a block boundary.  Serialized as the optional
/// `BBLK` frame.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BiBlockState<'a> {
    /// Completed triangular sweeps.
    pub epoch: u64,
    /// Next pair slot (flat triangular index) within the current epoch.
    pub cursor: u64,
    /// Number of blocks the budget produced; a resume under a different
    /// block layout is rejected by shape checks.
    pub blocks: u64,
    /// Steps completed per walker.
    pub done: Cow<'a, [u32]>,
    /// Parked walker indices per pair slot (the boundary buffers).
    pub buckets: Cow<'a, [Vec<u32>]>,
    /// Walker-major partial paths (empty unless paths are recorded).
    pub paths: Vec<Vec<u32>>,
}

/// Pre-sample buffer state of one PS partition at the snapshot point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PsPartState {
    /// Flat pre-sampled edge buffer (layout defined by the plan).
    pub buf: Vec<u32>,
    /// Remaining unconsumed samples per vertex.
    pub cursor: Vec<u32>,
}

/// A complete, engine-agnostic snapshot of a walk at an epoch boundary:
/// borrowing the run's arrays when an engine writes it, owning them
/// when [`WalkSnapshot::decode`] reads one.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WalkSnapshot<'a> {
    /// The run the snapshot belongs to.
    pub header: RunHeader,
    /// First iteration the resumed run must execute.
    pub iter_next: u64,
    /// Live walker-steps executed so far.
    pub steps_taken: u64,
    /// Walker-steps executed per partition so far.
    pub per_partition_steps: Cow<'a, [u64]>,
    /// Current walker vertices (sorted ID space).
    pub w: Cow<'a, [u32]>,
    /// Previous vertices (second-order walks; empty otherwise).
    pub prev: Cow<'a, [u32]>,
    /// Per-vertex visit counters (empty unless `record_visits`).
    pub visits: Cow<'a, [u64]>,
    /// Pre-sample buffer state per partition (`None` for DS partitions).
    pub ps: Vec<Option<PsPartState>>,
    /// Recorded path rows so far (empty unless `record_paths`).
    pub rows: Cow<'a, [Vec<u32>]>,
    /// Bi-block scheduler state (out-of-core second-order walks only).
    pub biblock: Option<BiBlockState<'a>>,
}

/// FNV-1a fingerprint builder for config/graph tags.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub fn new() -> Self {
        Self(Self::OFFSET)
    }

    /// Folds `bytes` in order: the workspace's one FNV-1a loop.
    pub fn fold_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
        self
    }

    /// Folds `v` as its eight little-endian bytes.
    pub fn fold_u64(&mut self, v: u64) -> &mut Self {
        self.fold_bytes(&v.to_le_bytes())
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl WalkSnapshot<'_> {
    /// Serializes into the framed format, in a buffer of its own.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Serializes into `out`, replacing what it held but keeping its
    /// capacity: a buffer reused across generations is allocated once.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let h = &self.header;
        out.clear();
        out.extend_from_slice(SNAPSHOT_MAGIC);
        frame(out, TAG_STATE, 0, |out| {
            out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
            let run = [h.seed, self.iter_next, h.steps_total, h.walkers];
            out.extend_from_slice(&le_bytes(&run));
            out.extend_from_slice(&le_bytes(&[self.steps_taken, h.config_tag, h.graph_tag]));
            put_words(out, &self.per_partition_steps);
        });
        frame(out, TAG_WALKERS, 0, |out| {
            put_words(out, &self.w);
            put_words(out, &self.prev);
            put_words(out, &self.visits);
            out.extend_from_slice(&(self.ps.len() as u64).to_le_bytes());
            for part in &self.ps {
                match part {
                    None => out.push(0),
                    Some(st) => {
                        out.push(1);
                        put_words(out, &st.buf);
                        put_words(out, &st.cursor);
                    }
                }
            }
        });
        frame(out, TAG_OUTPUT, 0, |out| put_rows(out, &self.rows));
        if let Some(bb) = &self.biblock {
            frame(out, TAG_BIBLOCK, 0, |out| {
                out.extend_from_slice(&le_bytes(&[bb.epoch, bb.cursor, bb.blocks]));
                put_words(out, &bb.done);
                put_rows(out, &bb.buckets);
                put_rows(out, &bb.paths);
            });
        }
    }

    /// Decodes and fully validates a snapshot; `path` is used only for
    /// error context.  Every failure mode is [`RecoverError::Corrupt`].
    pub fn decode(data: &[u8], path: &Path) -> Result<WalkSnapshot<'static>, RecoverError> {
        let corrupt = |section: &str, detail: String| RecoverError::Corrupt {
            path: path.to_path_buf(),
            section: section.to_string(),
            detail,
        };
        if data.len() < SNAPSHOT_MAGIC.len() || &data[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
            return Err(corrupt("header", "bad snapshot magic".into()));
        }
        let mut pos = SNAPSHOT_MAGIC.len();
        let state = read_frame(data, &mut pos, TAG_STATE, 0, "STATE", path)?;
        let walkers = read_frame(data, &mut pos, TAG_WALKERS, 0, "WALKERS", path)?;
        let output = read_frame(data, &mut pos, TAG_OUTPUT, 0, "OUTPUT", path)?;
        // The optional bi-block frame: any bytes past OUTP must form a
        // complete, CRC-valid BBLK frame (so stray trailing bytes still
        // fail, via the frame-header minimum or the tag/CRC checks).
        let biblock_bytes = if pos != data.len() {
            Some(read_frame(data, &mut pos, TAG_BIBLOCK, 0, "BIBLOCK", path)?)
        } else {
            None
        };
        if pos != data.len() {
            return Err(corrupt(
                "trailer",
                format!("{} trailing bytes after last frame", data.len() - pos),
            ));
        }

        let mut r = Reader::new(state, "STATE", path);
        let version = r.u32()?;
        if version != FORMAT_VERSION {
            return Err(corrupt(
                "STATE",
                format!("unsupported format version {version}"),
            ));
        }
        let seed = r.u64()?;
        let iter_next = r.u64()?;
        let steps_total = r.u64()?;
        let walker_count = r.u64()?;
        let steps_taken = r.u64()?;
        let config_tag = r.u64()?;
        let graph_tag = r.u64()?;
        let per_partition_steps = r.u64_vec()?;
        r.finish()?;

        let mut r = Reader::new(walkers, "WALKERS", path);
        let w = r.u32_vec()?;
        let prev = r.u32_vec()?;
        let visits = r.u64_vec()?;
        let ps_len = r.u64()?;
        if ps_len > walkers.len() as u64 {
            return Err(corrupt(
                "WALKERS",
                format!("impossible PS partition count {ps_len}"),
            ));
        }
        let mut ps = Vec::with_capacity(ps_len as usize);
        for _ in 0..ps_len {
            let present = r.u8()?;
            match present {
                0 => ps.push(None),
                1 => {
                    let buf = r.u32_vec()?;
                    let cursor = r.u32_vec()?;
                    ps.push(Some(PsPartState { buf, cursor }));
                }
                other => {
                    return Err(corrupt(
                        "WALKERS",
                        format!("bad PS presence byte {other}"),
                    ))
                }
            }
        }
        r.finish()?;

        let mut r = Reader::new(output, "OUTPUT", path);
        let rows = r.u32_rows()?;
        r.finish()?;

        let biblock = match biblock_bytes {
            None => None,
            Some(bytes) => {
                let mut r = Reader::new(bytes, "BIBLOCK", path);
                let epoch = r.u64()?;
                let cursor = r.u64()?;
                let blocks = r.u64()?;
                let done = r.u32_vec()?;
                let buckets = r.u32_rows()?;
                let paths = r.u32_rows()?;
                r.finish()?;
                Some(BiBlockState {
                    epoch,
                    cursor,
                    blocks,
                    done: done.into(),
                    buckets: buckets.into(),
                    paths,
                })
            }
        };

        Ok(WalkSnapshot {
            header: RunHeader {
                seed,
                walkers: walker_count,
                steps_total,
                config_tag,
                graph_tag,
            },
            iter_next,
            steps_taken,
            per_partition_steps: per_partition_steps.into(),
            w: w.into(),
            prev: prev.into(),
            visits: visits.into(),
            ps,
            rows: rows.into(),
            biblock,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_rng::{Rng64, Xorshift64Star};

    #[test]
    fn fingerprint_is_fnv1a_over_le_bytes() {
        // FNV-1a 64 reference values.
        for (bytes, want) in [
            (&b""[..], 0xcbf2_9ce4_8422_2325),
            (b"a", 0xaf63_dc4c_8601_ec8c),
            (b"foobar", 0x8594_4171_f739_67e8),
        ] {
            assert_eq!(Fingerprint::new().fold_bytes(bytes).value(), want);
        }
        let v = 0x0123_4567_89ab_cdefu64;
        assert_eq!(
            Fingerprint::new().fold_u64(v).value(),
            Fingerprint::new().fold_bytes(&v.to_le_bytes()).value()
        );
    }

    fn sample_snapshot() -> WalkSnapshot<'static> {
        WalkSnapshot {
            header: RunHeader {
                seed: 42,
                walkers: 6,
                steps_total: 8,
                config_tag: 0xDEAD_BEEF,
                graph_tag: 0xFEED_FACE,
            },
            iter_next: 4,
            steps_taken: 24,
            per_partition_steps: vec![10, 8, 6].into(),
            w: vec![1, 2, 3, 4, 5, 6].into(),
            prev: vec![6, 5, 4, 3, 2, 1].into(),
            visits: vec![3, 3, 3, 3, 3, 3, 3, 3].into(),
            ps: vec![
                Some(PsPartState {
                    buf: vec![9, 9, 9, 9],
                    cursor: vec![2, 0],
                }),
                None,
                Some(PsPartState {
                    buf: vec![7],
                    cursor: vec![1],
                }),
            ],
            rows: vec![vec![0, 1, 2, 3, 4, 5], vec![1, 2, 3, 4, 5, 0]].into(),
            biblock: None,
        }
    }

    fn biblock_snapshot() -> WalkSnapshot<'static> {
        WalkSnapshot {
            biblock: Some(BiBlockState {
                epoch: 3,
                cursor: 5,
                blocks: 4,
                done: vec![2, 3, 3, 1, 2, 3].into(),
                buckets: vec![
                    vec![0, 3],
                    Vec::new(),
                    vec![4],
                    Vec::new(),
                    vec![1, 2, 5],
                    Vec::new(),
                    Vec::new(),
                    Vec::new(),
                    Vec::new(),
                    Vec::new(),
                ]
                .into(),
                paths: vec![
                    vec![1, 2, 3],
                    vec![2, 3, 4, 5],
                    vec![3, 4, 5, 0],
                    vec![4, 5],
                    vec![5, 0, 1],
                    vec![0, 1, 2, 3],
                ],
            }),
            ..sample_snapshot()
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let snap = sample_snapshot();
        let bytes = snap.encode();
        let back =
            WalkSnapshot::decode(&bytes, Path::new("test.fmck")).expect("round trip decodes");
        assert_eq!(snap, back);
    }

    #[test]
    fn biblock_snapshot_round_trips() {
        let snap = biblock_snapshot();
        let bytes = snap.encode();
        let back =
            WalkSnapshot::decode(&bytes, Path::new("bb.fmck")).expect("round trip decodes");
        assert_eq!(snap, back);
        // The frame is strictly optional: a frame-free snapshot must
        // decode to `biblock: None`, not an empty default.
        let plain = sample_snapshot().encode();
        let back = WalkSnapshot::decode(&plain, Path::new("p.fmck")).expect("decodes");
        assert_eq!(back.biblock, None);
    }

    /// The corruption sweep extended over the optional fourth frame:
    /// every single-byte flip of a BBLK-bearing snapshot must surface
    /// as `Corrupt`, and truncating or extending the frame must too.
    #[test]
    fn biblock_frame_corruption_is_detected() {
        let bytes = biblock_snapshot().encode();
        let mut rng = Xorshift64Star::new(0xB1B);
        for trial in 0..600 {
            let i = rng.gen_index(bytes.len());
            let bit = rng.gen_index(8) as u8;
            let mut m = bytes.clone();
            m[i] ^= 1 << bit;
            match WalkSnapshot::decode(&m, Path::new("bb.fmck")) {
                Err(RecoverError::Corrupt { .. }) => {}
                other => panic!(
                    "trial {trial}: flip byte {i} bit {bit} gave {other:?} instead of Corrupt"
                ),
            }
        }
        for cut in [bytes.len() - 1, bytes.len() - 5, bytes.len() - 17] {
            assert!(matches!(
                WalkSnapshot::decode(&bytes[..cut], Path::new("bb.fmck")),
                Err(RecoverError::Corrupt { .. })
            ));
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(matches!(
            WalkSnapshot::decode(&extended, Path::new("bb.fmck")),
            Err(RecoverError::Corrupt { .. })
        ));
    }

    /// A reused buffer's old bytes and capacity never reach the new
    /// encoding: it equals a fresh one, frames and CRCs included, and a
    /// buffer big enough already is not reallocated.
    #[test]
    fn encoding_into_a_dirty_buffer_equals_a_fresh_encode() {
        for snap in [sample_snapshot(), biblock_snapshot()] {
            let fresh = snap.encode();
            let mut reused = vec![0xA5; 3 * fresh.len()];
            let at = reused.as_ptr();
            snap.encode_into(&mut reused);
            assert_eq!(reused, fresh);
            assert_eq!(reused.as_ptr(), at, "a big-enough buffer was reallocated");
            // A buffer last holding a larger snapshot, then a shorter one.
            biblock_snapshot().encode_into(&mut reused);
            snap.encode_into(&mut reused);
            assert_eq!(reused, fresh);
        }
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = WalkSnapshot::default();
        let bytes = snap.encode();
        let back = WalkSnapshot::decode(&bytes, Path::new("e.fmck")).expect("decodes");
        assert_eq!(snap, back);
    }

    /// The tentpole corruption property: flipping any single byte of an
    /// encoded snapshot always yields `RecoverError::Corrupt` — never a
    /// panic, never silently-wrong data.  Random byte+bit choices sweep
    /// all three sections (the file is only a few hundred bytes, so 600
    /// seeded trials cover every region many times over); an exhaustive
    /// every-byte sweep of bit 0 backs it up.
    #[test]
    fn any_single_byte_corruption_is_detected() {
        let bytes = sample_snapshot().encode();
        let mut rng = Xorshift64Star::new(0x5EED);
        for trial in 0..600 {
            let i = rng.gen_index(bytes.len());
            let bit = rng.gen_index(8) as u8;
            let mut m = bytes.clone();
            m[i] ^= 1 << bit;
            match WalkSnapshot::decode(&m, Path::new("x.fmck")) {
                Err(RecoverError::Corrupt { .. }) => {}
                other => panic!(
                    "trial {trial}: flip byte {i} bit {bit} gave {other:?} instead of Corrupt"
                ),
            }
        }
        for i in 0..bytes.len() {
            let mut m = bytes.clone();
            m[i] ^= 1;
            assert!(
                matches!(
                    WalkSnapshot::decode(&m, Path::new("x.fmck")),
                    Err(RecoverError::Corrupt { .. })
                ),
                "exhaustive sweep: flip at byte {i} not detected"
            );
        }
    }

    #[test]
    fn truncation_and_extension_are_detected() {
        let bytes = sample_snapshot().encode();
        for cut in [0, 1, 7, 8, 20, bytes.len() - 1] {
            assert!(matches!(
                WalkSnapshot::decode(&bytes[..cut], Path::new("t.fmck")),
                Err(RecoverError::Corrupt { .. })
            ));
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(matches!(
            WalkSnapshot::decode(&extended, Path::new("t.fmck")),
            Err(RecoverError::Corrupt { .. })
        ));
    }
}
