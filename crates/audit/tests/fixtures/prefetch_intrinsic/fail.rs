// Hand-rolled locality hint outside the graph prefetch module.
pub fn warm(p: *const u8) {
    // SAFETY: prefetch hints never fault and need no pointer validity.
    unsafe { core::arch::x86_64::_mm_prefetch(p as *const i8, 0) };
}
