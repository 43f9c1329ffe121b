//! CRC32 (IEEE 802.3 polynomial, reflected) — the frame guard of the
//! snapshot format.  Slicing-by-8 with tables generated at compile
//! time; no dependencies.  Checkpoints CRC every snapshot byte on the
//! walk's critical path, so the per-byte cost here bounds checkpoint
//! overhead directly.

/// Applies eight LFSR steps (one input byte's worth of shifting) to the
/// full CRC register.  For a byte value `b < 256` this *is* the classic
/// table entry `t0[b]`; for a full register it equals
/// `(x >> 8) ^ t0[x & 0xFF]`, which is how the higher slicing tables are
/// usually composed — computing them directly keeps this file free of
/// `as` casts (the fm-audit `narrowing-cast` lint), with no change to
/// any table value.
const fn bits8(mut c: u32) -> u32 {
    let mut k = 0;
    while k < 8 {
        c = if c & 1 != 0 {
            0xEDB8_8320 ^ (c >> 1)
        } else {
            c >> 1
        };
        k += 1;
    }
    c
}

const fn make_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    // Byte value mirrored into u32 in lockstep with the index, so the
    // loop needs no usize -> u32 cast.
    let mut b: u32 = 0;
    while i < 256 {
        t[0][i] = bits8(b);
        let mut j = 1;
        while j < 8 {
            t[j][i] = bits8(t[j - 1][i]);
            j += 1;
        }
        i += 1;
        b += 1;
    }
    t
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// CRC32 of `data` (IEEE, as used by zlib/PNG/Ethernet).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for ch in chunks.by_ref() {
        // Slicing-by-8: XOR the register into the first four message
        // bytes, then index each table by one byte.  Byte extraction
        // goes through `to_le_bytes` + `usize::from` — cast-free and
        // bit-identical to the usual shift-and-mask formulation.
        let r = c.to_le_bytes();
        c = TABLES[7][usize::from(ch[0] ^ r[0])]
            ^ TABLES[6][usize::from(ch[1] ^ r[1])]
            ^ TABLES[5][usize::from(ch[2] ^ r[2])]
            ^ TABLES[4][usize::from(ch[3] ^ r[3])]
            ^ TABLES[3][usize::from(ch[4])]
            ^ TABLES[2][usize::from(ch[5])]
            ^ TABLES[1][usize::from(ch[6])]
            ^ TABLES[0][usize::from(ch[7])];
    }
    for &b in chunks.remainder() {
        c = TABLES[0][usize::from(c.to_le_bytes()[0] ^ b)] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let base = b"the quick brown fox jumps over the lazy dog".to_vec();
        let reference = crc32(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut m = base.clone();
                m[i] ^= 1 << bit;
                assert_ne!(crc32(&m), reference, "flip at byte {i} bit {bit}");
            }
        }
    }
}
