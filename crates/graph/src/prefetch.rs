//! The software-prefetch hint: the one place in the workspace that
//! names an architectural prefetch instruction (the `prefetch-intrinsic`
//! lint confines them to this file).  It lives at the bottom of the
//! crate graph so the filter build here and the walker ring in
//! `flashmob::sample::ring`, which re-exports it, share one wrapper.

/// Issues one software-prefetch hint for the cache line holding `*ptr`.
///
/// Portable wrapper over the architectural prefetch instruction: a pure
/// performance hint with no architectural effect, valid for *any*
/// address (including dangling ones — the hardware drops hints that
/// miss the TLB).  Falls back to a no-op on other targets.
#[inline(always)]
pub fn prefetch_read<T>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: PREFETCHT0 is a hint instruction; it never faults and has
    // no effect on architectural state, so any pointer value is sound.
    unsafe {
        core::arch::x86_64::_mm_prefetch(ptr as *const i8, core::arch::x86_64::_MM_HINT_T0);
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: PRFM PLDL1KEEP is a hint instruction; it never faults and
    // has no effect on architectural state, so any pointer value is
    // sound.  The asm touches no registers beyond the input operand.
    unsafe {
        core::arch::asm!(
            "prfm pldl1keep, [{0}]",
            in(reg) ptr as *const u8,
            options(nostack, preserves_flags, readonly)
        );
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = ptr;
}
