//! CRC-32 (IEEE 802.3 polynomial, reflected) implemented from scratch.
//!
//! Every log record carries a CRC over its payload so that a torn write —
//! the failure mode the paper's fault-recovery guarantee must survive — is
//! detected on reopen instead of being replayed as garbage. Every append
//! (`record::encode`) and every replay (`record::read_record`, on open,
//! sealed-segment replay, compaction and the manifest) checksums its
//! bytes, so the kernel runs at close to memory speed.
//!
//! **Algorithm: slicing-by-16** (Kounavis & Berry, "A Systematic Approach
//! to Building High Performance Software-based CRC Generators", 2005).
//! `TABLES[0]` is the classic byte-at-a-time (Sarwate) table:
//! `TABLES[0][b]` is the CRC register after shifting the byte `b` through
//! eight polynomial steps. `TABLES[k][b]` is the same byte pushed through
//! `k` further zero bytes, i.e. `TABLES[k][b] = (TABLES[k-1][b] >> 8) ^
//! TABLES[0][TABLES[k-1][b] & 0xFF]`. The 16 tables of 256 `u32`s (16 KiB)
//! are built by `const fn` at compile time.
//!
//! Each step XORs the register into the first four bytes of a 16-byte
//! block and folds all 16 bytes at once: byte `j` of the block goes
//! through `TABLES[15 - j]`, since 15 − j bytes follow it in the block.
//! The 16 lookups are independent, so they overlap in the pipeline
//! instead of forming one chain of dependent loads per byte. The last
//! `len % 16` bytes go through `TABLES[0]` one at a time.
//!
//! **The output is unchanged.** CRC-32 is linear over GF(2): folding a
//! block through the shifted tables computes exactly the register the
//! byte loop reaches after the same 16 bytes. The polynomial, initial
//! value (`0xFFFF_FFFF`) and final XOR are the same as before, so every
//! record frame, manifest and shipped database verifies as it did.

/// Reflected IEEE polynomial (0x04C11DB7 bit-reversed).
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-16 lookup tables, built at compile time (see the module doc).
const TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Computes the CRC-32 of `data` in one shot.
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finish()
}

/// Incremental CRC-32 hasher for multi-part payloads.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Creates a hasher in its initial state.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut blocks = data.chunks_exact(16);
        for b in &mut blocks {
            let w0 = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) ^ crc;
            let w1 = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
            let w2 = u32::from_le_bytes([b[8], b[9], b[10], b[11]]);
            let w3 = u32::from_le_bytes([b[12], b[13], b[14], b[15]]);
            crc = t[15][(w0 & 0xFF) as usize]
                ^ t[14][((w0 >> 8) & 0xFF) as usize]
                ^ t[13][((w0 >> 16) & 0xFF) as usize]
                ^ t[12][(w0 >> 24) as usize]
                ^ t[11][(w1 & 0xFF) as usize]
                ^ t[10][((w1 >> 8) & 0xFF) as usize]
                ^ t[9][((w1 >> 16) & 0xFF) as usize]
                ^ t[8][(w1 >> 24) as usize]
                ^ t[7][(w2 & 0xFF) as usize]
                ^ t[6][((w2 >> 8) & 0xFF) as usize]
                ^ t[5][((w2 >> 16) & 0xFF) as usize]
                ^ t[4][(w2 >> 24) as usize]
                ^ t[3][(w3 & 0xFF) as usize]
                ^ t[2][((w3 >> 8) & 0xFF) as usize]
                ^ t[1][((w3 >> 16) & 0xFF) as usize]
                ^ t[0][(w3 >> 24) as usize];
        }
        for &b in blocks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// Finalizes and returns the checksum. The hasher may not be reused.
    pub fn finish(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data = b"hello crowdsourced world";
        for split in 0..data.len() {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), crc32(data), "split at {split}");
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let data = b"payload under test".to_vec();
        let baseline = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut tampered = data.clone();
                tampered[byte] ^= 1 << bit;
                assert_ne!(crc32(&tampered), baseline, "flip {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn detects_transposition() {
        assert_ne!(crc32(b"ab"), crc32(b"ba"));
        assert_ne!(crc32(b"task:1"), crc32(b"task:2"));
    }

    /// The byte-at-a-time (Sarwate) loop the store shipped with: the
    /// reference the sliced kernel must match on every input.
    fn reference(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&splitmix(&mut state).to_le_bytes());
        }
        out.truncate(len);
        out
    }

    fn sliced(parts: &[&[u8]]) -> u32 {
        let mut h = Crc32::new();
        for part in parts {
            h.update(part);
        }
        h.finish()
    }

    #[test]
    fn short_inputs_match_reference_at_every_split() {
        let data = seeded_bytes(0x5EED_0001, 64);
        for len in 0..=64 {
            let buf = &data[..len];
            let want = reference(buf);
            assert_eq!(crc32(buf), want, "len {len}");
            for split in 0..=len {
                assert_eq!(sliced(&[&buf[..split], &buf[split..]]), want, "len {len} split {split}");
            }
        }
    }

    #[test]
    fn long_inputs_match_reference_at_random_offsets_and_splits() {
        let backing = seeded_bytes(0x5EED_0002, (64 << 10) + 16);
        let mut rng = 0x5EED_0003u64;
        for case in 0..200 {
            // Every start offset 0..16 recurs, so blocks straddle every
            // alignment of the backing buffer.
            let start = case % 16;
            // Lengths up to 2^(case % 17) bytes: short records as often
            // as 64 KiB ones.
            let len = (splitmix(&mut rng) % ((1u64 << (case % 17)) + 1)) as usize;
            let buf = &backing[start..start + len];
            let want = reference(buf);
            let mut cuts: Vec<usize> = (0..splitmix(&mut rng) % 3)
                .map(|_| (splitmix(&mut rng) % (len as u64 + 1)) as usize)
                .collect();
            cuts.sort_unstable();
            let mut parts = Vec::new();
            let mut from = 0;
            for cut in cuts {
                parts.push(&buf[from..cut]);
                from = cut;
            }
            parts.push(&buf[from..]);
            assert_eq!(sliced(&parts), want, "case {case}: start {start} len {len}");
        }
    }

    #[test]
    fn pinned_one_mib_checksum() {
        // The byte loop's value: every database already written carries
        // checksums computed by it.
        let buf = seeded_bytes(0x5EED_0004, 1 << 20);
        assert_eq!(reference(&buf), 0x2091_0E5B);
        assert_eq!(crc32(&buf), 0x2091_0E5B);
    }
}
