//! Bounded little-endian encode/decode helpers.
//!
//! Encoding appends to a caller's buffer, each word slice as one copy of
//! its [`le_bytes`], each [`frame`] patched in place.
//!
//! Every read is bounds-checked and surfaces [`RecoverError::Corrupt`]
//! instead of panicking; vector lengths are validated against the bytes
//! actually remaining *before* any allocation, so a corrupt length field
//! can never trigger an over-allocation.

use std::borrow::Cow;
use std::path::{Path, PathBuf};

use crate::crc::crc32;
use crate::error::RecoverError;

mod sealed {
    pub trait Sealed {}
}

/// A word the wire format stores little-endian: `u32` in four bytes,
/// `u64` and `usize` in eight.  Sealed: [`le_bytes`] views these types'
/// memory as bytes, which is sound only for padding-free integers.
pub trait LeWord: Copy + sealed::Sealed {
    /// Bytes the word takes on the wire.
    const WIDTH: usize;
    /// The word as a `u64`, whose low `WIDTH` bytes are its wire bytes.
    fn wide(self) -> u64;
}

macro_rules! le_word {
    ($($t:ty: $width:literal),*) => {$(
        impl sealed::Sealed for $t {}
        impl LeWord for $t {
            const WIDTH: usize = $width;
            fn wide(self) -> u64 {
                self as u64
            }
        }
    )*};
}
le_word!(u32: 4, u64: 8, usize: 8);

/// `words` as the wire (and FMDISK1) stores them, little-endian: the
/// words' own bytes, borrowed, where the host's layout is the wire's (a
/// little-endian host, and a 64-bit one for `usize`); a converted copy
/// elsewhere.
pub fn le_bytes<T: LeWord>(words: &[T]) -> Cow<'_, [u8]> {
    if cfg!(target_endian = "little") && std::mem::size_of::<T>() == T::WIDTH {
        let (ptr, len) = (words.as_ptr().cast(), std::mem::size_of_val(words));
        // SAFETY: the pointer and byte length are those of `words`,
        // borrowed for the returned lifetime; `u8` has alignment 1 and
        // the sealed word types are integers without padding, so every
        // byte of the view is initialised.
        return Cow::Borrowed(unsafe { std::slice::from_raw_parts(ptr, len) });
    }
    let wire = |w: &T| w.wide().to_le_bytes().into_iter().take(T::WIDTH);
    Cow::Owned(words.iter().flat_map(wire).collect())
}

/// A `u64` length, then the words.
pub fn put_words<T: LeWord>(out: &mut Vec<u8>, words: &[T]) {
    out.extend_from_slice(&(words.len() as u64).to_le_bytes());
    out.extend_from_slice(&le_bytes(words));
}

/// A `u64` row count, then each row as [`put_words`] writes it.
pub fn put_rows(out: &mut Vec<u8>, rows: &[Vec<u32>]) {
    out.extend_from_slice(&(rows.len() as u64).to_le_bytes());
    for row in rows {
        put_words(out, row);
    }
}

/// Iteration-major `rows` as walker-major partial paths: a `u64` path
/// count (0 when `rows` is empty, else one a walker), then walker `k`'s
/// `done[k] + 1` vertices down `rows`, as [`put_words`] writes a row.
pub fn put_paths(out: &mut Vec<u8>, rows: &[Vec<u32>], done: &[u32]) {
    let paths = if rows.is_empty() { 0 } else { done.len() };
    out.extend_from_slice(&(paths as u64).to_le_bytes());
    for (k, &d) in done.iter().enumerate().take(paths) {
        let len = u64::from(d) + 1;
        out.extend_from_slice(&len.to_le_bytes());
        for (row, _) in rows.iter().zip(0..len) {
            out.extend_from_slice(&row[k].to_le_bytes());
        }
    }
}

/// Appends a frame built in place: `head`, a `u64` length word, what
/// `payload` writes, and a CRC32 of the frame from `crc_from` bytes into
/// `head` on.  The length word is patched once the payload is written,
/// so no payload is staged or copied.
pub fn frame(out: &mut Vec<u8>, head: &[u8], crc_from: usize, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(head);
    let len_at = out.len();
    out.extend_from_slice(&[0; 8]);
    payload(out);
    let len = (out.len() - len_at - 8) as u64;
    out[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&out[start + crc_from..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Splits the next frame, as [`frame`] writes it, off `data` at `pos`:
/// checks its `head` and its CRC from `crc_from` bytes into `head` on,
/// and returns its payload.
pub fn read_frame<'a>(
    data: &'a [u8],
    pos: &mut usize,
    head: &[u8],
    crc_from: usize,
    section: &'static str,
    path: &Path,
) -> Result<&'a [u8], RecoverError> {
    let corrupt = |detail: String| RecoverError::Corrupt {
        path: path.to_path_buf(),
        section: section.to_string(),
        detail,
    };
    let (start, body) = (*pos, *pos + head.len() + 8);
    if data.len() < body {
        return Err(corrupt("truncated frame header".into()));
    }
    if &data[start..start + head.len()] != head {
        return Err(corrupt(format!(
            "bad section tag {:?}",
            &data[start..start + head.len()]
        )));
    }
    let mut lb = [0u8; 8];
    lb.copy_from_slice(&data[body - 8..body]);
    let len = u64::from_le_bytes(lb);
    let len = usize::try_from(len)
        .ok()
        .filter(|&l| l <= data.len().saturating_sub(body + 4))
        .ok_or_else(|| corrupt(format!("impossible payload length {len}")))?;
    let payload_end = body + len;
    let mut cb = [0u8; 4];
    cb.copy_from_slice(&data[payload_end..payload_end + 4]);
    let stored = u32::from_le_bytes(cb);
    let computed = crc32(&data[start + crc_from..payload_end]);
    if stored != computed {
        return Err(corrupt(format!(
            "crc mismatch: stored {stored:#010x}, computed {computed:#010x}"
        )));
    }
    *pos = payload_end + 4;
    Ok(&data[body..payload_end])
}

/// Bounds-checked little-endian reader over one decoded section.
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
    /// Section name used in `Corrupt` errors.
    section: &'static str,
    /// File the bytes came from, for error context.
    path: PathBuf,
}

impl<'a> Reader<'a> {
    pub fn new(data: &'a [u8], section: &'static str, path: &Path) -> Self {
        Self {
            data,
            pos: 0,
            section,
            path: path.to_path_buf(),
        }
    }

    fn corrupt(&self, detail: impl Into<String>) -> RecoverError {
        RecoverError::Corrupt {
            path: self.path.clone(),
            section: self.section.to_string(),
            detail: detail.into(),
        }
    }

    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], RecoverError> {
        if n > self.remaining() {
            return Err(self.corrupt(format!(
                "need {n} bytes at offset {}, only {} remain",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, RecoverError> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, RecoverError> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(b))
    }

    pub fn u64(&mut self) -> Result<u64, RecoverError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a `u64` length prefix and validates that `len * elem_size`
    /// bytes remain before returning the element count.
    fn checked_len(&mut self, elem_size: usize) -> Result<usize, RecoverError> {
        let len = self.u64()?;
        let count = usize::try_from(len)
            .map_err(|_| self.corrupt(format!("impossible length field {len}")))?;
        let need = count
            .checked_mul(elem_size)
            .ok_or_else(|| self.corrupt(format!("impossible length field {len}")))?;
        if need > self.remaining() {
            return Err(self.corrupt(format!(
                "length field {len} needs {need} bytes, only {} remain",
                self.remaining()
            )));
        }
        Ok(count)
    }

    pub fn u32_vec(&mut self) -> Result<Vec<u32>, RecoverError> {
        let len = self.checked_len(4)?;
        let bytes = self.take(len * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("chunk is 4 bytes")))
            .collect())
    }

    pub fn u64_vec(&mut self) -> Result<Vec<u64>, RecoverError> {
        let len = self.checked_len(8)?;
        let bytes = self.take(len * 8)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunk is 8 bytes")))
            .collect())
    }

    /// A `u64` row count, then the rows: what [`put_rows`] writes.
    pub fn u32_rows(&mut self) -> Result<Vec<Vec<u32>>, RecoverError> {
        // Every row takes at least its eight-byte length.
        let count = self.checked_len(8)?;
        (0..count).map(|_| self.u32_vec()).collect()
    }

    /// What [`put_paths`] writes, back in rows: as many as the longest
    /// path, each a walker wide, zero past a walker's path.  A path
    /// count other than 0 or `done.len()`, or a walker's path of other
    /// than `done[k] + 1` vertices, is corrupt.  A row is allocated once
    /// a path's words for it are present, so the rows are bounded by the
    /// bytes, though not linearly: longest path × walkers words.
    pub fn u32_paths(&mut self, done: &[u32]) -> Result<Vec<Vec<u32>>, RecoverError> {
        let paths = self.u64()?;
        if paths != 0 && paths != done.len() as u64 {
            return Err(self.corrupt(format!("{paths} paths for {} walkers", done.len())));
        }
        let mut rows: Vec<Vec<u32>> = Vec::new();
        for (k, &d) in done.iter().enumerate().filter(|_| paths != 0) {
            let len = self.checked_len(4)?;
            if len as u64 != u64::from(d) + 1 {
                return Err(self.corrupt(format!("walker {k}'s path of {len} after {d} steps")));
            }
            for s in 0..len {
                if s == rows.len() {
                    rows.push(vec![0; done.len()]);
                }
                rows[s][k] = self.u32()?;
            }
        }
        Ok(rows)
    }

    pub fn bytes(&mut self) -> Result<&'a [u8], RecoverError> {
        let len = self.checked_len(1)?;
        self.take(len)
    }

    /// Fails unless every byte of the section was consumed.
    pub fn finish(self) -> Result<(), RecoverError> {
        if self.remaining() != 0 {
            return Err(self.corrupt(format!("{} trailing bytes", self.remaining())));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn le_bytes_are_the_words_in_file_order() {
        let words: [u32; 5] = [0x0403_0201, 0xDEAD_BEEF, 0, u32::MAX, 0x8000_0001];
        let want: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(le_bytes(&words)[..], want[..]);
        let longs = [0x0807_0605_0403_0201u64, u64::MAX, 0];
        let want: Vec<u8> = longs.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(le_bytes(&longs)[..], want[..]);
        let sizes = [0x0403_0201usize, usize::MAX, 0];
        let want: Vec<u8> = sizes
            .iter()
            .flat_map(|&w| (w as u64).to_le_bytes())
            .collect();
        assert_eq!(le_bytes(&sizes)[..], want[..]);
        // A little-endian host lends the words' own bytes.
        assert_eq!(
            matches!(le_bytes(&words), Cow::Borrowed(_)),
            cfg!(target_endian = "little")
        );
        assert!(le_bytes::<u32>(&[]).is_empty());
    }
}
