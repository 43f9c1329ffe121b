//! The workspace's foreign calls: huge-page advice for the engine's big
//! arrays, and [`FileMap`], the read-only file mapping the out-of-core
//! engine holds its blocks in.
//!
//! The sorted CSR, the filter, the walker lanes and the path rows are
//! read at random or streamed, tens to hundreds of MiB of them.  On
//! 4 KiB pages every fresh page costs a fault and every random access
//! past the TLB's reach a page walk; on 2 MiB pages both shrink 512-fold.
//! A kernel whose transparent huge pages are in `madvise` mode backs a
//! range with them only when asked, which is what [`advise_huge`] does.
//! The advice is a hint: it moves no byte, and a kernel that ignores it
//! (or a target that has no such call) leaves the arrays on small pages.
//!
//! The out-of-core engine's blocks are ranges of a file the page cache
//! already holds.  Copying one out (`read`) spends memory bandwidth on
//! bytes the kernel has; [`FileMap`] maps the range instead (`mmap`),
//! populates its page table up front (`madvise(MADV_POPULATE_READ)`)
//! so that reading it takes no fault, and unmaps it on drop (`munmap`).
//! Every call is behind its safe methods but the constructor, whose
//! contract is that the file does not change while it is mapped.

use std::fs::File;
use std::io;

/// Huge-page size on the x86-64 and arm64 kernels this advises.
const HUGE_PAGE: usize = 2 << 20;

/// Allocations smaller than this are left alone: their aligned interior
/// would be at most one huge page, and an array that small fits the
/// TLB's reach anyway.
pub const ADVISE_MIN_BYTES: usize = 4 << 20;

/// The 2 MiB-aligned interior `(start, len)` of `bytes` bytes at `addr`,
/// when the allocation is at least [`ADVISE_MIN_BYTES`] long and the
/// interior is not empty.  The head and tail outside it stay on small
/// pages, so the advice never reaches a neighbouring allocation.
fn interior(addr: usize, bytes: usize) -> Option<(usize, usize)> {
    if bytes < ADVISE_MIN_BYTES {
        return None;
    }
    let start = addr.checked_add(HUGE_PAGE - 1)? & !(HUGE_PAGE - 1);
    let end = addr.checked_add(bytes)? & !(HUGE_PAGE - 1);
    (end > start).then(|| (start, end - start))
}

#[cfg(target_os = "linux")]
mod sys {
    use std::ffi::{c_int, c_void};

    /// `MADV_HUGEPAGE` from `<sys/mman.h>`, the same on every Linux
    /// architecture.
    pub(super) const MADV_HUGEPAGE: c_int = 14;

    extern "C" {
        pub(super) fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
}

/// Asks the kernel to back `v`'s allocation with huge pages, and returns
/// how many bytes it advised (0 when it asked nothing).
///
/// Call it on a freshly allocated `Vec` before the first write: a page
/// that is already resident stays small until the kernel's background
/// collapse gets to it, if ever.  It covers the buffer's capacity, not
/// its length, so `Vec::with_capacity(n)` followed by this and then the
/// fill is the intended order.  Length, capacity and contents are left
/// as they are, nothing is allocated, and the call's result is ignored:
/// a kernel without transparent huge pages, or with them set to `never`,
/// refuses and the array stays on 4 KiB pages.  Below
/// [`ADVISE_MIN_BYTES`], for an empty buffer or a zero-sized type, and
/// off Linux, it does nothing.
pub fn advise_huge<T>(v: &Vec<T>) -> usize {
    let bytes = v.capacity().saturating_mul(std::mem::size_of::<T>());
    let Some((start, len)) = interior(v.as_ptr() as usize, bytes) else {
        return 0;
    };
    #[cfg(target_os = "linux")]
    {
        // Refusal is harmless, so the result is ignored.
        // SAFETY: `start .. start + len` is page-aligned and inside `v`'s
        // live allocation (`interior` rounds inward); MADV_HUGEPAGE changes
        // how the kernel backs it, never its contents or its mapping.
        unsafe {
            sys::madvise(start as *mut std::ffi::c_void, len, sys::MADV_HUGEPAGE);
        }
        len
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (start, len);
        0
    }
}

/// Where a [`FileMap`] starts its mapping: the offset it is given,
/// rounded down to a multiple of this.  64 KiB is a multiple of every
/// page size the kernels this maps on use (4, 16 and 64 KiB), so no
/// page-size query is needed.
pub const MAP_ALIGN: u64 = 64 << 10;

/// A run of little-endian `u32` words of a file, held read-only: a
/// private mapping of the page-cache pages the kernel already has,
/// populated up front so that reading the words takes no fault, and
/// unmapped on drop.
///
/// It maps on Linux, 64-bit, little-endian targets (x86-64 and arm64
/// among them), where the file's little-endian words are the host's
/// and `off_t` is 64 bits.  On every other target, and where the kernel
/// predates `MADV_POPULATE_READ` (Linux 5.14) and refuses it, the words
/// are read into an owned buffer instead: the same words, a copy's
/// cost.
pub struct FileMap {
    held: Held,
}

enum Held {
    #[cfg(all(
        target_os = "linux",
        target_pointer_width = "64",
        target_endian = "little"
    ))]
    Mapped(mapping::Mapping),
    Read(Vec<u32>),
}

impl FileMap {
    /// Holds the `words` words at byte `offset` of `file`.
    ///
    /// `offset` must be a multiple of 4 (`InvalidInput` otherwise).  A
    /// file shorter than `offset + 4 * words` is `UnexpectedEof`, as a
    /// short `read_exact` is; other errors are the kernel's.  No words
    /// is no mapping and no call.
    ///
    /// # Safety
    ///
    /// The range's bytes must not change, and the file must not shrink
    /// into it, while the returned map is alive: its words are the
    /// page-cache pages themselves, so a write would change a `&[u32]`
    /// under its borrow, and a truncation would make reading it raise
    /// `SIGBUS`.
    pub unsafe fn new(file: &File, offset: u64, words: usize) -> io::Result<Self> {
        if !offset.is_multiple_of(4) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "file words must start at a multiple of 4 bytes",
            ));
        }
        let bytes = (words as u64).checked_mul(4);
        let end = bytes.and_then(|b| b.checked_add(offset));
        let Some(end) = end else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "file word range overflows",
            ));
        };
        if words == 0 {
            return Ok(Self {
                held: Held::Read(Vec::new()),
            });
        }
        // A page the file only partly covers maps with a zeroed tail, so
        // a file cut short inside the range's last page would read
        // zeros: the length is checked here, and the populate below
        // refuses whole pages past the end.
        if file.metadata()?.len() < end {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "file ends inside the word range",
            ));
        }
        #[cfg(all(
            target_os = "linux",
            target_pointer_width = "64",
            target_endian = "little"
        ))]
        {
            // SAFETY: the caller's contract is `Mapping::new`'s.
            if let Some(m) = unsafe { mapping::Mapping::new(file, offset, words)? } {
                return Ok(Self {
                    held: Held::Mapped(m),
                });
            }
        }
        read_words(file, offset, words).map(|v| Self {
            held: Held::Read(v),
        })
    }

    /// The words.
    #[inline]
    pub fn words(&self) -> &[u32] {
        match &self.held {
            #[cfg(all(
                target_os = "linux",
                target_pointer_width = "64",
                target_endian = "little"
            ))]
            Held::Mapped(m) => m.words(),
            Held::Read(v) => v,
        }
    }

    /// Whether the words are mapped in place rather than copied out.
    pub fn is_mapped(&self) -> bool {
        !matches!(self.held, Held::Read(_))
    }
}

/// The copying load, where nothing maps: `words` little-endian words
/// at `offset`, in host order.
fn read_words(file: &File, offset: u64, words: usize) -> io::Result<Vec<u32>> {
    use std::io::{Read, Seek, SeekFrom};
    let len = words.checked_mul(4).ok_or(io::ErrorKind::OutOfMemory)?;
    let mut bytes = vec![0u8; len];
    let mut f = file;
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(&mut bytes)?;
    let word = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    Ok(bytes.chunks_exact(4).map(word).collect())
}

#[cfg(all(
    target_os = "linux",
    target_pointer_width = "64",
    target_endian = "little"
))]
mod mapping {
    use std::ffi::{c_int, c_void};
    use std::fs::File;
    use std::io;
    use std::os::fd::AsRawFd;

    use super::{sys, MAP_ALIGN};

    /// `MADV_POPULATE_READ` (Linux 5.14): fault the range's pages in
    /// readable, as reading each would, but fail instead of raising
    /// `SIGBUS` where the file has no page.
    const MADV_POPULATE_READ: c_int = 22;
    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;
    /// `mmap`'s failure value, `(void *) -1`.
    const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;
    const EFAULT: i32 = 14;
    const EINVAL: i32 = 22;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// A live `PROT_READ`, `MAP_PRIVATE` mapping of `len` bytes at
    /// `base`, whose words start `skip` bytes in.
    pub(super) struct Mapping {
        base: *mut c_void,
        len: usize,
        skip: usize,
        words: usize,
    }

    impl Mapping {
        /// Maps the `words` words at `offset` (a multiple of 4, inside
        /// a file at least that long) from `offset` rounded down to
        /// [`MAP_ALIGN`], and populates them; `None` when the kernel
        /// does not know `MADV_POPULATE_READ`.
        ///
        /// # Safety
        ///
        /// As [`super::FileMap::new`]: the range is not written and the
        /// file not shrunk while the mapping lives.
        pub(super) unsafe fn new(
            file: &File,
            offset: u64,
            words: usize,
        ) -> io::Result<Option<Self>> {
            let aligned = offset - offset % MAP_ALIGN;
            let skip = (offset - aligned) as usize;
            let at =
                i64::try_from(aligned).map_err(|_| io::Error::from(io::ErrorKind::InvalidInput))?;
            let len = skip + words * 4;
            // SAFETY: a fresh mapping at an address the kernel picks
            // touches no existing memory; `len` > 0 and `at` is a
            // multiple of every page size; the descriptor is `file`'s,
            // open for the call (the mapping keeps its own reference).
            let base = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    at,
                )
            };
            if base == MAP_FAILED {
                return Err(io::Error::last_os_error());
            }
            let m = Self {
                base,
                len,
                skip,
                words,
            };
            match m.populate() {
                Ok(()) => Ok(Some(m)),
                Err(e) if e.raw_os_error() == Some(EINVAL) => Ok(None),
                Err(e) => Err(e),
            }
        }

        /// Faults every page of the mapping in.  A page past the end
        /// of the file is `UnexpectedEof` (the kernel's `EFAULT`: the
        /// access would have raised `SIGBUS`).
        pub(super) fn populate(&self) -> io::Result<()> {
            // SAFETY: `base .. base + len` is this live mapping; populating
            // reads pages in and changes no byte of it.
            let rc = unsafe { sys::madvise(self.base, self.len, MADV_POPULATE_READ) };
            if rc == 0 {
                return Ok(());
            }
            let e = io::Error::last_os_error();
            if e.raw_os_error() == Some(EFAULT) {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "file ends inside the mapped range",
                ));
            }
            Err(e)
        }

        #[inline]
        pub(super) fn words(&self) -> &[u32] {
            // `base` is page-aligned and `skip` a multiple of 4 (both
            // `offset` and its 64 KiB floor are), and `skip + 4 * words`
            // is `len`.  Every bit pattern is a `u32`, in the host's
            // order on this little-endian target.
            // SAFETY: so the words are aligned and inside this mapping,
            // which is readable and populated while `&self` borrows it;
            // `new`'s contract keeps their bytes still.
            unsafe {
                let first = self.base.cast::<u8>().add(self.skip).cast::<u32>();
                std::slice::from_raw_parts(first, self.words)
            }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // Nothing to do if the kernel refuses: the range stays mapped
            // and unused.
            // SAFETY: `base .. base + len` is this mapping, and the
            // borrow checker has ended every `words()` slice into it.
            unsafe {
                munmap(self.base, self.len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_interior_is_the_aligned_middle() {
        let mib = 1 << 20;
        assert_eq!(interior(0, 4 * mib), Some((0, 4 * mib)));
        assert_eq!(interior(16, 4 * mib), Some((2 * mib, 2 * mib)));
        assert_eq!(interior(16, 6 * mib), Some((2 * mib, 4 * mib)));
        assert_eq!(interior(2 * mib - 1, 4 * mib), Some((2 * mib, 2 * mib)));
        // One byte short of the threshold, and an allocation whose
        // aligned interior is empty cannot happen above it.
        assert_eq!(interior(0, 4 * mib - 1), None);
        assert_eq!(interior(0, 0), None);
        // No overflow near the top of the address space.
        assert_eq!(interior(usize::MAX - mib, 4 * mib), None);
    }

    #[test]
    fn advice_leaves_length_capacity_and_contents_unchanged() {
        let n = (8 << 20) / std::mem::size_of::<u32>();
        let mut v: Vec<u32> = Vec::with_capacity(n);
        let advised = advise_huge(&v);
        assert_eq!(advised % HUGE_PAGE, 0);
        if cfg!(target_os = "linux") {
            assert!(advised >= 6 << 20, "{advised} bytes advised of 8 MiB");
        }
        assert_eq!((v.len(), v.capacity()), (0, n));
        v.extend((0..n as u32).map(|i| i.wrapping_mul(2_654_435_761)));
        let (ptr, cap) = (v.as_ptr(), v.capacity());
        assert_eq!(
            advise_huge(&v),
            advised,
            "advice depends on the allocation alone"
        );
        assert_eq!((v.as_ptr(), v.capacity(), v.len()), (ptr, cap, n));
        assert!(v
            .iter()
            .enumerate()
            .all(|(i, &x)| x == (i as u32).wrapping_mul(2_654_435_761)));
    }

    #[test]
    fn small_empty_and_zero_sized_buffers_are_left_alone() {
        let small: Vec<u64> = Vec::with_capacity(ADVISE_MIN_BYTES / 8 - 1);
        assert_eq!(advise_huge(&small), 0);
        assert_eq!(advise_huge(&Vec::<u64>::new()), 0);
        let units: Vec<()> = vec![(); 1 << 30];
        assert_eq!(advise_huge(&units), 0);
        assert_eq!(units.len(), 1 << 30);
    }

    /// A scratch file of `words` words, word `i` being `i * 2654435761`,
    /// little-endian.
    fn word_file(name: &str, words: usize) -> (std::path::PathBuf, Vec<u32>) {
        let path = std::env::temp_dir().join(format!("fm-mem-{}-{name}", std::process::id()));
        let vals: Vec<u32> = (0..words as u32)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect();
        let bytes: Vec<u8> = vals.iter().flat_map(|w| w.to_le_bytes()).collect();
        std::fs::write(&path, bytes).unwrap();
        (path, vals)
    }

    #[test]
    fn a_file_map_holds_the_words_at_any_offset() {
        let (path, vals) = word_file("words", 200_000);
        let file = File::open(&path).unwrap();
        let page = 4096 / 4;
        let align = MAP_ALIGN as usize / 4;
        for (first, count) in [
            (0, vals.len()),
            (1, 7),
            (page + 2, 3 * page),
            (align, 10),
            (2 * align + 3, vals.len() - 2 * align - 3),
            (vals.len() - 1, 1),
        ] {
            // SAFETY: the scratch file is this test's own and is not
            // written while mapped.
            let map = unsafe { FileMap::new(&file, 4 * first as u64, count) }.unwrap();
            assert_eq!(
                map.words(),
                &vals[first..first + count],
                "[{first}; {count}]"
            );
            let maps = cfg!(all(
                target_os = "linux",
                target_pointer_width = "64",
                target_endian = "little"
            ));
            assert!(maps || !map.is_mapped());
        }
        // SAFETY: as above.
        let empty = unsafe { FileMap::new(&file, 8, 0) }.unwrap();
        assert!(empty.words().is_empty() && !empty.is_mapped());
        // SAFETY: as above.
        let odd = unsafe { FileMap::new(&file, 6, 2) }.err().unwrap();
        assert_eq!(odd.kind(), io::ErrorKind::InvalidInput);
        // One word past the end, and a range wholly past it.
        for (offset, count) in [(4 * (vals.len() as u64 - 1), 2), (1 << 30, 1)] {
            // SAFETY: as above.
            let short = unsafe { FileMap::new(&file, offset, count) }.err().unwrap();
            assert_eq!(short.kind(), io::ErrorKind::UnexpectedEof);
        }
        std::fs::remove_file(path).ok();
    }

    /// The kernel half of truncation: pages past the end of the file do
    /// not populate, whether the mapping is fresh or was populated before
    /// the file shrank, and the refusal is `UnexpectedEof`, not `SIGBUS`.
    #[cfg(all(
        target_os = "linux",
        target_pointer_width = "64",
        target_endian = "little"
    ))]
    #[test]
    fn populating_past_the_end_of_the_file_is_unexpected_eof() {
        let (path, _) = word_file("trunc", 3 * MAP_ALIGN as usize / 4);
        let file = File::open(&path).unwrap();
        let whole = 3 * MAP_ALIGN as usize / 4;
        // SAFETY: nothing reads the words of these mappings; the file is
        // this test's own, and its truncation is what is under test.
        let Some(held) = unsafe { mapping::Mapping::new(&file, 0, whole) }.unwrap() else {
            return; // A kernel before MADV_POPULATE_READ copies instead.
        };
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(MAP_ALIGN)
            .unwrap();
        assert_eq!(
            held.populate().err().map(|e| e.kind()),
            Some(io::ErrorKind::UnexpectedEof)
        );
        drop(held);
        // SAFETY: as above.
        let fresh = unsafe { mapping::Mapping::new(&file, MAP_ALIGN, 1024) };
        assert_eq!(
            fresh.err().map(|e| e.kind()),
            Some(io::ErrorKind::UnexpectedEof)
        );
        std::fs::remove_file(path).ok();
    }
}
