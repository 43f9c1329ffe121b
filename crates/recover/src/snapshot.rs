//! The engine-agnostic walk snapshot and its framed binary format.
//!
//! ```text
//! file   := magic(8) = "FMCKPT1\0" | frame(STAT) | frame(WLKR) | frame(OUTP)
//! frame  := tag(4) | payload_len(u64 LE) | payload | crc32(u32 LE)
//! ```
//!
//! An engine walks on a [`WalkState`] (and, out of core, a
//! [`BiBlockState`]); its [`WalkSnapshot`] borrows them whole, with the
//! PS partitions' buffers, and [`WalkSnapshot::encode_into`] copies them
//! once into a reused buffer, each frame in place; decoding yields the
//! same type, owning them, for a resume to move in.  The codec is the
//! one place the bi-block rows become the frame's walker-major paths and
//! back.
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
//!   and a presence byte per partition with the pre-sample buffer state
//!   of each PS one (FlashMob's PS buffers carry unconsumed samples
//!   *across* iterations, so resume without them would diverge from the
//!   uninterrupted chain), in produced form.
//! * `OUTP` — the output cursor: every path row recorded so far.
//! * `BBLK` *(optional)* — the out-of-core bi-block scheduler's
//!   mid-schedule state: epoch and pair-slot cursor, the parked-walker
//!   boundary buckets, per-walker step counters, and the walker-major
//!   partial paths, written from the state's rows.  The frame is appended only by the bi-block engine;
//!   first-order snapshots omit it and decode exactly as before.  It
//!   uses the same tag/len/payload/CRC32 frame as the mandatory
//!   sections, so the single-byte-corruption property ("flip any one
//!   byte → `Corrupt`") extends to the new state for free: a flipped
//!   tag fails the tag check, a flipped length or payload byte fails
//!   the CRC, and stray trailing bytes fail the frame-header minimum.

use std::borrow::Cow;
use std::path::{Path, PathBuf};

use crate::error::RecoverError;
use crate::wire::{frame, le_bytes, put_paths, put_rows, put_words, read_frame, Reader};

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

/// The resumable arrays of a walk, declared once: both engines' run
/// state owns one, a [`WalkSnapshot`] borrows it whole for the `STAT`,
/// `WLKR` and `OUTP` frames, and a resume moves the decoded one in.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WalkState {
    /// The next unit of progress to run: an iteration in memory, a pair
    /// slot out of core.
    pub iter_next: u64,
    /// Live walker-steps executed so far.
    pub steps_taken: u64,
    /// Walker-steps executed per partition so far; its length is the
    /// partition count the `WLKR` frame's pre-sample list runs over.
    pub per_partition_steps: Vec<u64>,
    /// Current walker vertices (sorted ID space).
    pub w: Vec<u32>,
    /// Previous vertices (second-order walks) or origins (stateful
    /// programs); empty otherwise.
    pub prev: Vec<u32>,
    /// Per-vertex visit counters (empty unless visits are recorded).
    pub visits: Vec<u64>,
    /// Recorded path rows so far (empty unless paths are recorded).
    pub rows: Vec<Vec<u32>>,
}

/// Mid-schedule state of the out-of-core bi-block scheduler (second
/// order walks): where in the triangular pair sweep the run stopped,
/// every walker parked at a block boundary, and the paths so far.
/// Serialized as the optional `BBLK` frame.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BiBlockState {
    /// Completed triangular sweeps.
    pub epoch: u64,
    /// Next pair slot (flat triangular index) within the current epoch.
    pub cursor: u64,
    /// Number of blocks the budget produced; a resume under a different
    /// block layout is rejected by shape checks.
    pub blocks: u64,
    /// Steps completed per walker.
    pub done: Vec<u32>,
    /// Parked walker indices per pair slot (the boundary buffers).
    pub buckets: Vec<Vec<u32>>,
    /// Iteration-major path rows (empty unless paths are recorded):
    /// `rows[s][k]` is walker `k` after `s <= done[k]` steps.  The frame
    /// holds walker-major paths; decoded, rows end with the longest.
    pub rows: Vec<Vec<u32>>,
}

/// Pre-sample buffer state of one PS partition at the snapshot point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PsPartState<'a> {
    /// The partition's index in the plan.
    pub part: usize,
    /// Flat pre-sampled edge buffer (layout defined by the plan).
    pub buf: Cow<'a, [u32]>,
    /// Remaining unconsumed samples per vertex.
    pub cursor: Cow<'a, [u32]>,
}

/// A complete, engine-agnostic snapshot of a walk at an epoch boundary:
/// borrowing the run's state when an engine writes it, owning it when
/// [`WalkSnapshot::decode`] reads one.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WalkSnapshot<'a> {
    /// The run the snapshot belongs to.
    pub header: RunHeader,
    /// The walk's resumable arrays.
    pub state: Cow<'a, WalkState>,
    /// The PS partitions' buffers, in increasing partition order; every
    /// other partition of `state.per_partition_steps` is DS.
    pub ps: Vec<PsPartState<'a>>,
    /// Bi-block scheduler state (out-of-core second-order walks only).
    pub biblock: Option<Cow<'a, BiBlockState>>,
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
    /// `ps` must be in increasing partition order below the partition
    /// count (an entry out of it is not written), and a bi-block state's
    /// rows must reach each walker's `done` (or the frame does not
    /// decode).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let (h, st) = (&self.header, &*self.state);
        out.clear();
        out.extend_from_slice(SNAPSHOT_MAGIC);
        frame(out, TAG_STATE, 0, |out| {
            out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
            let run = [h.seed, st.iter_next, h.steps_total, h.walkers];
            out.extend_from_slice(&le_bytes(&run));
            out.extend_from_slice(&le_bytes(&[st.steps_taken, h.config_tag, h.graph_tag]));
            put_words(out, &st.per_partition_steps);
        });
        frame(out, TAG_WALKERS, 0, |out| {
            put_words(out, &st.w);
            put_words(out, &st.prev);
            put_words(out, &st.visits);
            // A presence byte per partition, the PS ones' buffers after it.
            let parts = st.per_partition_steps.len();
            out.extend_from_slice(&(parts as u64).to_le_bytes());
            let mut ps = self.ps.iter().peekable();
            for part in 0..parts {
                let p = ps.next_if(|p| p.part == part);
                out.push(u8::from(p.is_some()));
                if let Some(p) = p {
                    put_words(out, &p.buf);
                    put_words(out, &p.cursor);
                }
            }
        });
        frame(out, TAG_OUTPUT, 0, |out| put_rows(out, &st.rows));
        if let Some(bb) = &self.biblock {
            frame(out, TAG_BIBLOCK, 0, |out| {
                out.extend_from_slice(&le_bytes(&[bb.epoch, bb.cursor, bb.blocks]));
                put_words(out, &bb.done);
                put_rows(out, &bb.buckets);
                put_paths(out, &bb.rows, &bb.done);
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
        let (w, prev, visits) = (r.u32_vec()?, r.u32_vec()?, r.u64_vec()?);
        let parts = r.u64()?;
        if parts != per_partition_steps.len() as u64 {
            return Err(corrupt(
                "WALKERS",
                format!("{parts} PS entries for {} partitions", per_partition_steps.len()),
            ));
        }
        let mut ps = Vec::new();
        for part in 0..per_partition_steps.len() {
            match r.u8()? {
                0 => {}
                1 => ps.push(PsPartState {
                    part,
                    buf: r.u32_vec()?.into(),
                    cursor: r.u32_vec()?.into(),
                }),
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
                let (epoch, cursor, blocks) = (r.u64()?, r.u64()?, r.u64()?);
                let done = r.u32_vec()?;
                let buckets = r.u32_rows()?;
                let rows = r.u32_paths(&done)?;
                r.finish()?;
                Some(Cow::Owned(BiBlockState {
                    epoch,
                    cursor,
                    blocks,
                    done,
                    buckets,
                    rows,
                }))
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
            state: Cow::Owned(WalkState {
                iter_next,
                steps_taken,
                per_partition_steps,
                w,
                prev,
                visits,
                rows,
            }),
            ps,
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
            state: Cow::Owned(WalkState {
                iter_next: 4,
                steps_taken: 24,
                per_partition_steps: vec![10, 8, 6],
                w: vec![1, 2, 3, 4, 5, 6],
                prev: vec![6, 5, 4, 3, 2, 1],
                visits: vec![3, 3, 3, 3, 3, 3, 3, 3],
                rows: vec![vec![0, 1, 2, 3, 4, 5], vec![1, 2, 3, 4, 5, 0]],
            }),
            ps: vec![
                PsPartState {
                    part: 0,
                    buf: vec![9, 9, 9, 9].into(),
                    cursor: vec![2, 0].into(),
                },
                PsPartState {
                    part: 2,
                    buf: vec![7].into(),
                    cursor: vec![1].into(),
                },
            ],
            biblock: None,
        }
    }

    /// Walker `k`'s path is column `k` of `rows` down to row `done[k]`,
    /// zero below it: (1 2 3), (2 3 4 5), (3 4 5 0), (4 5), (5 0 1),
    /// (0 1 2 3).
    fn biblock_snapshot() -> WalkSnapshot<'static> {
        WalkSnapshot {
            biblock: Some(Cow::Owned(BiBlockState {
                epoch: 3,
                cursor: 5,
                blocks: 4,
                done: vec![2, 3, 3, 1, 2, 3],
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
                ],
                rows: vec![
                    vec![1, 2, 3, 4, 5, 0],
                    vec![2, 3, 4, 5, 0, 1],
                    vec![3, 4, 5, 0, 1, 2],
                    vec![0, 5, 0, 0, 0, 3],
                ],
            })),
            ..sample_snapshot()
        }
    }

    /// The BBLK frame holds each walker's path, not the rows: a row
    /// past every walker's end is not written, and a path of other than
    /// `done + 1` vertices does not decode.
    #[test]
    fn biblock_paths_are_walker_major_in_the_frame() {
        let snap = biblock_snapshot();
        let mut padded = snap.clone();
        let bb = padded.biblock.as_mut().expect("a BBLK state").to_mut();
        bb.rows.push(vec![9; 6]);
        let bytes = padded.encode();
        assert_eq!(bytes, snap.encode());
        let back = WalkSnapshot::decode(&bytes, Path::new("bb.fmck")).expect("decodes");
        assert_eq!(back, snap);
        // Paths written for other step counts, or for other walkers, are
        // corrupt against the frame's own `done`.
        let bb = snap.biblock.as_deref().expect("a BBLK state");
        let mut longer = bb.done.clone();
        longer[0] += 1;
        let mut out = Vec::new();
        put_paths(&mut out, &bb.rows, &longer);
        for done in [&bb.done[..], &bb.done[..5]] {
            let mut r = Reader::new(&out, "BIBLOCK", Path::new("bb.fmck"));
            assert!(matches!(r.u32_paths(done), Err(RecoverError::Corrupt { .. })));
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
