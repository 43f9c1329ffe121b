// Violates unsafe-needs-safety, thread-discipline, raw-file-io,
// prefetch-intrinsic and the unwrap ratchet (no ratchet.toml exists
// here) in one file.
pub unsafe fn no_safety_doc(p: *const u8) -> u8 {
    unsafe { *p }
}

pub fn rogue_thread() {
    let h = std::thread::spawn(|| ());
    let _ = h.join();
}

pub fn rogue_io() {
    let _ = std::fs::File::create("out.bin");
}

pub fn panicky(v: Option<u32>) -> u32 {
    v.unwrap()
}

pub fn rogue_prefetch(p: *const u8) {
    // SAFETY: the hint never faults; this file is outside the ring module.
    unsafe { core::arch::x86_64::_mm_prefetch(p as *const i8, 0) };
}
