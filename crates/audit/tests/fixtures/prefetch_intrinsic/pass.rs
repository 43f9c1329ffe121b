// Locality hints must flow through fm_graph::prefetch::prefetch_read,
// which keeps the arch intrinsics (and their SAFETY story) in one place.
pub fn warm(_p: *const u8) {}
