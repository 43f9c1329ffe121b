//! Atomic snapshot publication and the generation manifest.
//!
//! Atomicity argument: a snapshot is written to `<name>.tmp`, fsynced,
//! then renamed to its final name; the manifest (which names the current
//! generation, its byte length, and its whole-file [`fnv64`]) is
//! published the same way afterwards.  POSIX `rename` is atomic, so at
//! every instant the directory contains a manifest that either predates
//! the new snapshot (and still points at the previous, intact
//! generation) or postdates it (and points at the fully-written new
//! one).  A crash between the two renames leaves a valid old manifest
//! plus an orphaned new snapshot — harmless.  A crash mid-write leaves
//! only a `.tmp` file, which the loader never looks at.  Torn or
//! mixed-generation states (manifest says N, file bytes are not exactly
//! generation N) are caught by the manifest's length + fingerprint
//! check.

use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::error::RecoverError;
use crate::fault::{FaultPolicy, FaultState};
use crate::retry::{transient_io, with_retries, RetryPolicy};
use crate::snapshot::{Fingerprint, WalkSnapshot};
use crate::wire::{frame, le_bytes, read_frame, Reader};

/// File name of the manifest inside a checkpoint directory.
pub const MANIFEST_NAME: &str = "MANIFEST";
const MANIFEST_MAGIC: &[u8; 8] = b"FMMANIF\0";
const MANIFEST_VERSION: u32 = 1;

/// FNV-1a 64-bit hash of `data`.
///
/// The manifest fingerprints whole snapshot files with FNV, not CRC32:
/// CRC has the residue property (a message followed by its own CRC
/// contributes a *constant* to any enclosing CRC), so a whole-file CRC32
/// over our framed format — where every frame already embeds its CRC —
/// collapses to the same value for any two valid snapshots of equal
/// section lengths and cannot tell generations apart.  FNV has no such
/// linear structure.
pub fn fnv64(data: &[u8]) -> u64 {
    Fingerprint::new().fold_bytes(data).value()
}

/// Points at the current snapshot generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Monotonically increasing checkpoint generation.
    pub generation: u64,
    /// Snapshot file name (relative to the checkpoint directory).
    pub snapshot_file: String,
    /// Exact byte length of the snapshot file.
    pub snapshot_len: u64,
    /// FNV-1a 64 fingerprint of the entire snapshot file (see
    /// [`fnv64`] for why this is not a CRC).
    pub snapshot_fnv: u64,
}

impl Manifest {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        // The CRC guards the length word and the payload, not the magic.
        frame(&mut out, MANIFEST_MAGIC, MANIFEST_MAGIC.len(), |out| {
            out.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
            let name = self.snapshot_file.as_bytes();
            out.extend_from_slice(&le_bytes(&[self.generation, name.len() as u64]));
            out.extend_from_slice(name);
            out.extend_from_slice(&le_bytes(&[self.snapshot_len, self.snapshot_fnv]));
        });
        out
    }

    fn decode(data: &[u8], path: &Path) -> Result<Self, RecoverError> {
        let corrupt = |detail: String| RecoverError::Corrupt {
            path: path.to_path_buf(),
            section: "manifest".to_string(),
            detail,
        };
        let (mut pos, head) = (0, MANIFEST_MAGIC.as_slice());
        let payload = read_frame(data, &mut pos, head, head.len(), "manifest", path)?;
        if pos != data.len() {
            return Err(corrupt(format!("{} trailing bytes", data.len() - pos)));
        }
        let mut r = Reader::new(payload, "manifest", path);
        let version = r.u32()?;
        if version != MANIFEST_VERSION {
            return Err(corrupt(format!("unsupported manifest version {version}")));
        }
        let generation = r.u64()?;
        let name_bytes = r.bytes()?.to_vec();
        let snapshot_file = String::from_utf8(name_bytes)
            .map_err(|_| corrupt("snapshot file name is not UTF-8".into()))?;
        if snapshot_file.is_empty()
            || snapshot_file
                .chars()
                .any(|c| c == '/' || c == '\\' || c == '\0')
        {
            return Err(corrupt(format!(
                "snapshot file name {snapshot_file:?} escapes the checkpoint directory"
            )));
        }
        let snapshot_len = r.u64()?;
        let snapshot_fnv = r.u64()?;
        r.finish()?;
        Ok(Self {
            generation,
            snapshot_file,
            snapshot_len,
            snapshot_fnv,
        })
    }
}

/// Writes generation-stamped snapshots atomically, threading checkpoint
/// IO through the fault-injection shim and the transient-retry loop
/// (under [`RetryPolicy::default`]).
#[derive(Debug)]
pub struct CheckpointSink {
    dir: PathBuf,
    fault: Option<FaultState>,
    /// Transient retries performed across all checkpoint writes.
    pub retries: u64,
}

impl CheckpointSink {
    /// A sink publishing into `dir`, injecting `fault` into its writes.
    pub fn new(dir: &Path, fault: Option<FaultPolicy>) -> Self {
        Self {
            dir: dir.to_path_buf(),
            fault: fault.map(FaultState::new),
            retries: 0,
        }
    }

    /// Snapshot file name of generation `generation`.
    pub fn snapshot_name(generation: u64) -> String {
        format!("ckpt-{generation:08}.fmck")
    }

    /// Atomically publishes the encoded snapshot `bytes` as generation
    /// `generation`: snapshot first (temp → fsync → rename), manifest
    /// second.
    pub fn save(&mut self, generation: u64, bytes: &[u8]) -> Result<(), RecoverError> {
        fs::create_dir_all(&self.dir).map_err(|e| RecoverError::Io {
            path: self.dir.clone(),
            context: "create checkpoint dir",
            source: e,
        })?;
        let name = Self::snapshot_name(generation);
        self.write_atomic(&name, bytes, "write snapshot")?;
        let manifest = Manifest {
            generation,
            snapshot_file: name,
            snapshot_len: bytes.len() as u64,
            snapshot_fnv: fnv64(bytes),
        };
        self.write_atomic(MANIFEST_NAME, &manifest.encode(), "write manifest")
    }

    fn write_atomic(
        &mut self,
        name: &str,
        bytes: &[u8],
        context: &'static str,
    ) -> Result<(), RecoverError> {
        let tmp = self.dir.join(format!("{name}.tmp"));
        let fin = self.dir.join(name);
        let fault = &mut self.fault;
        let policy = RetryPolicy::default();
        // Each retry attempt restarts the write on a fresh temp file;
        // the fault stream continues across attempts, so a transient
        // fault on attempt N does not repeat deterministically forever.
        with_retries(&policy, &mut self.retries, transient_io, || {
            let mut f = File::create(&tmp)?;
            match fault.as_mut() {
                Some(state) => state.faulted_write_all(&mut f, bytes)?,
                None => f.write_all(bytes)?,
            }
            f.sync_all()
        })
        .map_err(|e| RecoverError::Io {
            path: tmp.clone(),
            context,
            source: e,
        })?;
        fs::rename(&tmp, &fin).map_err(|e| RecoverError::Io {
            path: fin.clone(),
            context: "publish (rename)",
            source: e,
        })?;
        // Make the rename itself durable.  Opening a directory for fsync
        // is POSIX-only; skip silently where unsupported.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }
}

/// Loads the current generation from `dir`, fully validating manifest
/// and snapshot.  Returns the generation number and the snapshot.
pub fn load_latest(dir: &Path) -> Result<(u64, WalkSnapshot<'static>), RecoverError> {
    let manifest_path = dir.join(MANIFEST_NAME);
    let manifest_bytes = match fs::read(&manifest_path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(RecoverError::NoSnapshot {
                dir: dir.to_path_buf(),
            })
        }
        Err(e) => {
            return Err(RecoverError::Io {
                path: manifest_path,
                context: "read manifest",
                source: e,
            })
        }
    };
    let manifest = Manifest::decode(&manifest_bytes, &manifest_path)?;
    let snap_path = dir.join(&manifest.snapshot_file);
    let snap_bytes = match fs::read(&snap_path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(RecoverError::Corrupt {
                path: snap_path,
                section: "manifest".to_string(),
                detail: format!(
                    "manifest generation {} references a missing snapshot (torn checkpoint)",
                    manifest.generation
                ),
            })
        }
        Err(e) => {
            return Err(RecoverError::Io {
                path: snap_path,
                context: "read snapshot",
                source: e,
            })
        }
    };
    if snap_bytes.len() as u64 != manifest.snapshot_len
        || fnv64(&snap_bytes) != manifest.snapshot_fnv
    {
        return Err(RecoverError::Corrupt {
            path: snap_path,
            section: "manifest".to_string(),
            detail: format!(
                "snapshot does not match manifest generation {} (torn write or mixed generations)",
                manifest.generation
            ),
        });
    }
    let snap = WalkSnapshot::decode(&snap_bytes, &snap_path)?;
    Ok((manifest.generation, snap))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{PsPartState, RunHeader, WalkState};
    use std::borrow::Cow;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(name: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "fm_recover_{name}_{}_{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn snap(iter_next: u64) -> WalkSnapshot<'static> {
        WalkSnapshot {
            header: RunHeader {
                seed: 7,
                walkers: 4,
                steps_total: 16,
                config_tag: 1,
                graph_tag: 2,
            },
            state: Cow::Owned(WalkState {
                iter_next,
                steps_taken: iter_next * 4,
                per_partition_steps: vec![iter_next * 2, iter_next * 2],
                w: vec![1, 2, 3, 4],
                rows: vec![vec![0, 0, 0, 0]],
                ..WalkState::default()
            }),
            ps: vec![PsPartState {
                part: 0,
                buf: vec![1, 1].into(),
                cursor: vec![1, 0].into(),
            }],
            biblock: None,
        }
    }

    #[test]
    fn save_load_round_trip_latest_generation_wins() {
        let dir = temp_dir("roundtrip");
        let mut sink = CheckpointSink::new(&dir, None);
        sink.save(1, &snap(4).encode()).expect("save gen 1");
        sink.save(2, &snap(8).encode()).expect("save gen 2");
        let (generation, loaded) = load_latest(&dir).expect("load latest");
        assert_eq!(generation, 2);
        assert_eq!(loaded, snap(8));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_dir_reports_no_snapshot() {
        let dir = temp_dir("empty");
        fs::create_dir_all(&dir).expect("mkdir");
        assert!(matches!(
            load_latest(&dir),
            Err(RecoverError::NoSnapshot { .. })
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_snapshot_is_detected_by_manifest() {
        let dir = temp_dir("torn");
        let mut sink = CheckpointSink::new(&dir, None);
        sink.save(1, &snap(4).encode()).expect("save");
        // Simulate a torn write of the published snapshot: truncate it.
        let file = dir.join(CheckpointSink::snapshot_name(1));
        let bytes = fs::read(&file).expect("read back");
        fs::write(&file, &bytes[..bytes.len() / 2]).expect("truncate");
        assert!(matches!(
            load_latest(&dir),
            Err(RecoverError::Corrupt { .. })
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mixed_generation_is_detected() {
        let dir = temp_dir("mixed");
        let mut sink = CheckpointSink::new(&dir, None);
        sink.save(1, &snap(4).encode()).expect("save gen 1");
        sink.save(2, &snap(8).encode()).expect("save gen 2");
        // Overwrite generation 2's file with generation 1's bytes while
        // the manifest still claims generation 2: CRC must catch it.
        let g1 = fs::read(dir.join(CheckpointSink::snapshot_name(1))).expect("g1");
        fs::write(dir.join(CheckpointSink::snapshot_name(2)), g1).expect("swap");
        assert!(matches!(
            load_latest(&dir),
            Err(RecoverError::Corrupt { .. })
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transient_write_faults_are_retried_to_success() {
        let dir = temp_dir("transient");
        let mut sink = CheckpointSink::new(&dir, Some(FaultPolicy::transient(11, 0.4)));
        for generation in 1..=5 {
            sink.save(generation, &snap(generation * 2).encode())
                .expect("save survives transient faults");
        }
        assert!(sink.retries > 0, "faults at 40% must have caused retries");
        let (generation, loaded) = load_latest(&dir).expect("load");
        assert_eq!(generation, 5);
        assert_eq!(loaded, snap(10));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_write_fails_but_previous_generation_survives() {
        let dir = temp_dir("torn_write");
        let mut sink = CheckpointSink::new(&dir, None);
        sink.save(1, &snap(4).encode()).expect("save gen 1");
        let mut torn_sink = CheckpointSink::new(&dir, Some(FaultPolicy::torn_writes(13, 1.0)));
        let err = torn_sink
            .save(2, &snap(8).encode())
            .expect_err("torn write escalates");
        assert!(matches!(err, RecoverError::Io { .. }));
        // The previous generation is untouched and still loads.
        let (generation, loaded) = load_latest(&dir).expect("old generation intact");
        assert_eq!(generation, 1);
        assert_eq!(loaded, snap(4));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_manifest_is_detected() {
        let dir = temp_dir("badmanifest");
        let mut sink = CheckpointSink::new(&dir, None);
        sink.save(3, &snap(6).encode()).expect("save");
        let mpath = dir.join(MANIFEST_NAME);
        let mut bytes = fs::read(&mpath).expect("manifest bytes");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&mpath, bytes).expect("corrupt manifest");
        assert!(matches!(
            load_latest(&dir),
            Err(RecoverError::Corrupt { .. })
        ));
        fs::remove_dir_all(&dir).ok();
    }
}
