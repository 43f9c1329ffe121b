//! The input cache: each graph is generated once, published by
//! write-temp -> rename, and verified against its pinned fingerprint on
//! every run.  A mismatch fails the run; nothing is regenerated
//! silently, because a silently different graph would move every metric.

use std::fs::{self, File};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::process::Command;

use fm_graph::io;

use crate::workloads::{Fingerprint, Format, Scale, Workload, WORKLOADS};

/// The benchmark's own directory: `benchmark/` under the current
/// directory when run from a checkout's root (as the driver does),
/// otherwise where the package was built.
pub fn bench_dir() -> PathBuf {
    let local = Path::new("benchmark");
    if local.join("Cargo.toml").is_file() {
        local.to_path_buf()
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

pub fn default_cache_dir() -> PathBuf {
    bench_dir().join("target").join("benchmark-cache")
}

/// FNV-1a over the file's bytes taken as little-endian 64-bit words (the
/// tail zero-padded), then the length.  Word-wise so that verifying a
/// 190 MB input costs tens of milliseconds, not seconds.
pub fn file_fnv(path: &Path) -> std::io::Result<u64> {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut f = File::open(path)?;
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut len = 0u64;
    let mut buf = vec![0u8; 1 << 20];
    let mut filled = 0usize;
    loop {
        let n = f.read(&mut buf[filled..])?;
        filled += n;
        // Only a short read at end of file leaves a partial word.
        let whole = if n == 0 { filled } else { filled & !7 };
        let mut chunks = buf[..whole].chunks_exact(8);
        for c in &mut chunks {
            let word = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
            hash = (hash ^ word).wrapping_mul(PRIME);
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            hash = (hash ^ u64::from_le_bytes(last)).wrapping_mul(PRIME);
        }
        len += whole as u64;
        buf.copy_within(whole..filled, 0);
        filled -= whole;
        if n == 0 {
            break;
        }
    }
    Ok((hash ^ len).wrapping_mul(PRIME))
}

/// Generates `workload`'s input into `dir` (the body of the hidden
/// `gen-input` subcommand).  The file appears under its final name only
/// once it is complete.
pub fn generate(workload: &Workload, scale: Scale, dir: &Path) -> Result<PathBuf, String> {
    fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(workload.input_name(scale));
    let tmp = dir.join(format!(
        "{}.tmp.{}",
        workload.input_name(scale),
        std::process::id()
    ));
    let graph = workload.graph.analog(scale.analog());
    let written = match workload.format {
        Format::Fmg1 => io::save_binary(&graph, &tmp).map_err(|e| e.to_string()),
        Format::Text => File::create(&tmp).map_err(|e| e.to_string()).and_then(|f| {
            let mut w = BufWriter::new(f);
            io::write_edge_list(&graph, &mut w).map_err(|e| e.to_string())?;
            w.flush().map_err(|e| e.to_string())
        }),
    };
    written
        .and_then(|()| fs::rename(&tmp, &path).map_err(|e| e.to_string()))
        .map_err(|e| {
            let _ = fs::remove_file(&tmp);
            format!("write {}: {e}", path.display())
        })?;
    Ok(path)
}

/// Returns the cached input of `workload`, generating it first if it is
/// missing.  Generation runs in a child process so that the graph
/// generator's memory never shows in this process's `VmHWM`.
pub fn ensure(workload: &Workload, scale: Scale, dir: &Path) -> Result<PathBuf, String> {
    let path = dir.join(workload.input_name(scale));
    if path.is_file() {
        return Ok(path);
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = Command::new(exe)
        .args([
            "gen-input",
            workload.name,
            "--scale",
            scale.tag(),
            "--cache-dir",
        ])
        .arg(dir)
        .status()
        .map_err(|e| format!("spawn gen-input: {e}"))?;
    if !status.success() || !path.is_file() {
        return Err(format!("generating {} failed ({status})", path.display()));
    }
    Ok(path)
}

/// Checks the file half of the pinned fingerprint.  The `(|V|, |E|)`
/// half is checked against the graph a set-up actually loads.
pub fn verify_file(path: &Path, pinned: Fingerprint) -> Result<(), String> {
    let fnv = file_fnv(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    if fnv != pinned.fnv {
        return Err(format!(
            "{}: file hash {fnv:#018x} does not match the pinned {:#018x}; \
             delete the file to regenerate it, or re-pin in workloads.rs if the generator changed",
            path.display(),
            pinned.fnv
        ));
    }
    Ok(())
}

/// `fmbench fingerprints`: the table of pinned and cached fingerprints.
pub fn print_fingerprints(dir: &Path) -> bool {
    let mut ok = true;
    println!("| input | |V| | |E| | file FNV | pinned FNV | match |");
    println!("|---|---|---|---|---|---|");
    let mut seen: Vec<String> = Vec::new();
    for scale in [Scale::Bench, Scale::Test] {
        for w in &WORKLOADS {
            let name = w.input_name(scale);
            if seen.contains(&name) {
                continue;
            }
            seen.push(name.clone());
            let pinned = w.fingerprint(scale);
            let row = ensure(w, scale, dir).and_then(|path| {
                let fnv = file_fnv(&path).map_err(|e| e.to_string())?;
                let graph = crate::protocol::load_input(w, &path).map_err(|e| e.to_string())?;
                Ok((graph.vertex_count() as u64, graph.edge_count() as u64, fnv))
            });
            match row {
                Ok((v, e, fnv)) => {
                    let same = v == pinned.vertices && e == pinned.edges && fnv == pinned.fnv;
                    ok &= same;
                    println!(
                        "| {name} | {v} | {e} | {fnv:#018x} | {:#018x} | {} |",
                        pinned.fnv,
                        if same { "yes" } else { "NO" }
                    );
                }
                Err(e) => {
                    ok = false;
                    println!("| {name} | error: {e} |");
                }
            }
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_fnv_sees_every_byte_and_the_length() {
        let dir = default_cache_dir().join(format!("test-fnv-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blob");
        let mut seen = Vec::new();
        // Lengths around the word size and around the 1 MiB read buffer.
        for len in [0usize, 1, 7, 8, 9, (1 << 20) - 1, 1 << 20, (1 << 20) + 13] {
            let mut data: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            fs::write(&path, &data).unwrap();
            let base = file_fnv(&path).unwrap();
            assert!(!seen.contains(&base), "length {len} collides");
            seen.push(base);
            if len > 0 {
                for at in [0, len / 2, len - 1] {
                    data[at] ^= 1;
                    fs::write(&path, &data).unwrap();
                    assert_ne!(file_fnv(&path).unwrap(), base, "flip at {at} of {len}");
                    data[at] ^= 1;
                }
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
