//! Pins of the join's stream: one FNV-1a digest over every yielded
//! `(left, right, similarity bits)`, in stream order, plus the pair count,
//! for a fixed generated ER corpus. The values were computed by the
//! hash-index join this stream replaced; never re-record them.

use reprowd_datagen::{ErConfig, ErCorpus};
use reprowd_simjoin::join::{self_join_stream, JoinConfig};
use reprowd_simjoin::similarity::SetSimilarity;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// `(pair count, digest)` of the stream at `threshold`.
fn pin(records: &[String], threshold: f64) -> (usize, u64) {
    let cfg = JoinConfig::new(SetSimilarity::Jaccard, threshold);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut n = 0;
    for p in self_join_stream(records, &cfg) {
        fnv(&mut h, &(p.left as u64).to_le_bytes());
        fnv(&mut h, &(p.right as u64).to_le_bytes());
        fnv(&mut h, &p.similarity.to_bits().to_le_bytes());
        n += 1;
    }
    (n, h)
}

#[test]
fn stream_digest_is_pinned() {
    let records =
        ErCorpus::generate(&ErConfig { n_entities: 800, seed: 11, ..ErConfig::default() }).texts();
    assert_eq!(records.len(), 1601);
    assert_eq!(pin(&records, 0.3), (1787, 0x368f_6f2c_1f64_4357));
    assert_eq!(pin(&records, 0.5), (617, 0x63a8_b3f4_51af_7887));
}
