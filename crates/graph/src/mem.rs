//! Huge-page advice for the engine's big arrays: the workspace's one
//! foreign call.
//!
//! The sorted CSR, the filter, the walker lanes and the path rows are
//! read at random or streamed, tens to hundreds of MiB of them.  On
//! 4 KiB pages every fresh page costs a fault and every random access
//! past the TLB's reach a page walk; on 2 MiB pages both shrink 512-fold.
//! A kernel whose transparent huge pages are in `madvise` mode backs a
//! range with them only when asked, which is what [`advise_huge`] does.
//! The advice is a hint: it moves no byte, and a kernel that ignores it
//! (or a target that has no such call) leaves the arrays on small pages.

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
}
