//! The engine-agnostic walk snapshot and its framed binary format.
//!
//! ```text
//! file   := magic(8) = "FMCKPT1\0" | frame(STAT) | frame(WLKR) | frame(OUTP)
//! frame  := tag(4) | payload_len(u64 LE) | payload | crc32(u32 LE)
//! ```
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

use std::path::{Path, PathBuf};

use crate::error::RecoverError;
use crate::wire::{Reader, Writer};
use crate::crc::crc32;

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

/// Mid-schedule state of the out-of-core bi-block scheduler (second
/// order walks): where in the triangular pair sweep the run stopped and
/// every walker parked at a block boundary.  Serialized as the optional
/// `BBLK` frame.
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

/// A complete, engine-agnostic snapshot of a walk at an epoch boundary.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WalkSnapshot {
    /// Seed the run was started with.
    pub seed: u64,
    /// First iteration the resumed run must execute.
    pub iter_next: u64,
    /// Total configured iterations.
    pub steps_total: u64,
    /// Walker count.
    pub walkers: u64,
    /// Live walker-steps executed so far.
    pub steps_taken: u64,
    /// Fingerprint of the engine configuration (algorithm, stop rule,
    /// planner, …); a resume against a different config is rejected.
    pub config_tag: u64,
    /// Fingerprint of the (sorted) graph; a resume against a different
    /// graph is rejected.
    pub graph_tag: u64,
    /// Walker-steps executed per partition so far.
    pub per_partition_steps: Vec<u64>,
    /// Current walker vertices (sorted ID space).
    pub w: Vec<u32>,
    /// Previous vertices (second-order walks; empty otherwise).
    pub prev: Vec<u32>,
    /// Per-vertex visit counters (empty unless `record_visits`).
    pub visits: Vec<u64>,
    /// Pre-sample buffer state per partition (`None` for DS partitions).
    pub ps: Vec<Option<PsPartState>>,
    /// Recorded path rows so far (empty unless `record_paths`).
    pub rows: Vec<Vec<u32>>,
    /// Bi-block scheduler state (out-of-core second-order walks only).
    pub biblock: Option<BiBlockState>,
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

fn frame(out: &mut Vec<u8>, tag: &[u8; 4], payload: &[u8]) {
    let start = out.len();
    out.extend_from_slice(tag);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Splits the next frame off `data` at `pos`, verifying tag and CRC.
fn read_frame<'a>(
    data: &'a [u8],
    pos: &mut usize,
    tag: &[u8; 4],
    section: &'static str,
    path: &Path,
) -> Result<&'a [u8], RecoverError> {
    let corrupt = |detail: String| RecoverError::Corrupt {
        path: path.to_path_buf(),
        section: section.to_string(),
        detail,
    };
    let start = *pos;
    if data.len() - start < 12 {
        return Err(corrupt("truncated frame header".into()));
    }
    if &data[start..start + 4] != tag {
        return Err(corrupt(format!(
            "bad section tag {:?}",
            &data[start..start + 4]
        )));
    }
    let mut lb = [0u8; 8];
    lb.copy_from_slice(&data[start + 4..start + 12]);
    let len = u64::from_le_bytes(lb);
    let len = usize::try_from(len)
        .ok()
        .filter(|&l| l <= data.len().saturating_sub(start + 16))
        .ok_or_else(|| corrupt(format!("impossible payload length {len}")))?;
    let payload_end = start + 12 + len;
    let mut cb = [0u8; 4];
    cb.copy_from_slice(&data[payload_end..payload_end + 4]);
    let stored = u32::from_le_bytes(cb);
    let computed = crc32(&data[start..payload_end]);
    if stored != computed {
        return Err(corrupt(format!(
            "crc mismatch: stored {stored:#010x}, computed {computed:#010x}"
        )));
    }
    *pos = payload_end + 4;
    Ok(&data[start + 12..payload_end])
}

impl WalkSnapshot {
    /// Serializes into the framed format.
    pub fn encode(&self) -> Vec<u8> {
        let mut state = Writer::new();
        state.put_u32(FORMAT_VERSION);
        state.put_u64(self.seed);
        state.put_u64(self.iter_next);
        state.put_u64(self.steps_total);
        state.put_u64(self.walkers);
        state.put_u64(self.steps_taken);
        state.put_u64(self.config_tag);
        state.put_u64(self.graph_tag);
        state.put_u64_slice(&self.per_partition_steps);

        let mut walkers = Writer::new();
        walkers.put_u32_slice(&self.w);
        walkers.put_u32_slice(&self.prev);
        walkers.put_u64_slice(&self.visits);
        walkers.put_u64(self.ps.len() as u64);
        for part in &self.ps {
            match part {
                None => walkers.put_u8(0),
                Some(st) => {
                    walkers.put_u8(1);
                    walkers.put_u32_slice(&st.buf);
                    walkers.put_u32_slice(&st.cursor);
                }
            }
        }

        let mut output = Writer::new();
        output.put_u64(self.rows.len() as u64);
        for row in &self.rows {
            output.put_u32_slice(row);
        }

        let mut out = Vec::new();
        out.extend_from_slice(SNAPSHOT_MAGIC);
        frame(&mut out, TAG_STATE, &state.into_bytes());
        frame(&mut out, TAG_WALKERS, &walkers.into_bytes());
        frame(&mut out, TAG_OUTPUT, &output.into_bytes());
        if let Some(bb) = &self.biblock {
            let mut biblock = Writer::new();
            biblock.put_u64(bb.epoch);
            biblock.put_u64(bb.cursor);
            biblock.put_u64(bb.blocks);
            biblock.put_u32_slice(&bb.done);
            biblock.put_u64(bb.buckets.len() as u64);
            for bucket in &bb.buckets {
                biblock.put_u32_slice(bucket);
            }
            biblock.put_u64(bb.paths.len() as u64);
            for path in &bb.paths {
                biblock.put_u32_slice(path);
            }
            frame(&mut out, TAG_BIBLOCK, &biblock.into_bytes());
        }
        out
    }

    /// Decodes and fully validates a snapshot; `path` is used only for
    /// error context.  Every failure mode is [`RecoverError::Corrupt`].
    pub fn decode(data: &[u8], path: &Path) -> Result<Self, RecoverError> {
        let corrupt = |section: &str, detail: String| RecoverError::Corrupt {
            path: path.to_path_buf(),
            section: section.to_string(),
            detail,
        };
        if data.len() < SNAPSHOT_MAGIC.len() || &data[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
            return Err(corrupt("header", "bad snapshot magic".into()));
        }
        let mut pos = SNAPSHOT_MAGIC.len();
        let state = read_frame(data, &mut pos, TAG_STATE, "STATE", path)?;
        let walkers = read_frame(data, &mut pos, TAG_WALKERS, "WALKERS", path)?;
        let output = read_frame(data, &mut pos, TAG_OUTPUT, "OUTPUT", path)?;
        // The optional bi-block frame: any bytes past OUTP must form a
        // complete, CRC-valid BBLK frame (so stray trailing bytes still
        // fail, via the frame-header minimum or the tag/CRC checks).
        let biblock_bytes = if pos != data.len() {
            Some(read_frame(data, &mut pos, TAG_BIBLOCK, "BIBLOCK", path)?)
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
        let row_count = r.u64()?;
        if row_count > output.len() as u64 {
            return Err(corrupt("OUTPUT", format!("impossible row count {row_count}")));
        }
        let mut rows = Vec::with_capacity(row_count as usize);
        for _ in 0..row_count {
            rows.push(r.u32_vec()?);
        }
        r.finish()?;

        let biblock = match biblock_bytes {
            None => None,
            Some(bytes) => {
                let mut r = Reader::new(bytes, "BIBLOCK", path);
                let epoch = r.u64()?;
                let cursor = r.u64()?;
                let blocks = r.u64()?;
                let done = r.u32_vec()?;
                let bucket_count = r.u64()?;
                if bucket_count > bytes.len() as u64 {
                    return Err(corrupt(
                        "BIBLOCK",
                        format!("impossible bucket count {bucket_count}"),
                    ));
                }
                let mut buckets = Vec::with_capacity(bucket_count as usize);
                for _ in 0..bucket_count {
                    buckets.push(r.u32_vec()?);
                }
                let path_count = r.u64()?;
                if path_count > bytes.len() as u64 {
                    return Err(corrupt(
                        "BIBLOCK",
                        format!("impossible path count {path_count}"),
                    ));
                }
                let mut paths = Vec::with_capacity(path_count as usize);
                for _ in 0..path_count {
                    paths.push(r.u32_vec()?);
                }
                r.finish()?;
                Some(BiBlockState {
                    epoch,
                    cursor,
                    blocks,
                    done,
                    buckets,
                    paths,
                })
            }
        };

        Ok(Self {
            seed,
            iter_next,
            steps_total,
            walkers: walker_count,
            steps_taken,
            config_tag,
            graph_tag,
            per_partition_steps,
            w,
            prev,
            visits,
            ps,
            rows,
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

    fn sample_snapshot() -> WalkSnapshot {
        WalkSnapshot {
            seed: 42,
            iter_next: 4,
            steps_total: 8,
            walkers: 6,
            steps_taken: 24,
            config_tag: 0xDEAD_BEEF,
            graph_tag: 0xFEED_FACE,
            per_partition_steps: vec![10, 8, 6],
            w: vec![1, 2, 3, 4, 5, 6],
            prev: vec![6, 5, 4, 3, 2, 1],
            visits: vec![3, 3, 3, 3, 3, 3, 3, 3],
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
            rows: vec![vec![0, 1, 2, 3, 4, 5], vec![1, 2, 3, 4, 5, 0]],
            biblock: None,
        }
    }

    fn biblock_snapshot() -> WalkSnapshot {
        WalkSnapshot {
            biblock: Some(BiBlockState {
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
