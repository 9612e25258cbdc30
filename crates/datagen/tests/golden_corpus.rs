//! Pins of generated ER corpora: one FNV-1a digest over every record's id,
//! entity and text, plus the record count. The benchmark's join workload
//! and the join experiments score against these exact corpora; the values
//! were computed by the generator as first written (one allocation per
//! token), so never re-record them.

use reprowd_datagen::{ErConfig, ErCorpus};

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// `(record count, digest)` of the corpus `config` generates.
fn pin(config: &ErConfig) -> (usize, u64) {
    let corpus = ErCorpus::generate(config);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in &corpus.records {
        fnv(&mut h, &(r.id as u64).to_le_bytes());
        fnv(&mut h, &(r.entity_id as u64).to_le_bytes());
        fnv(&mut h, &(r.text.len() as u64).to_le_bytes());
        fnv(&mut h, r.text.as_bytes());
    }
    (corpus.records.len(), h)
}

#[test]
fn default_corpus_is_pinned() {
    assert_eq!(pin(&ErConfig::default()), (197, 0x87a0_3e7b_c25f_b25e));
}

#[test]
fn high_noise_corpus_is_pinned() {
    let noisy = ErConfig {
        n_entities: 500,
        min_dups: 2,
        max_dups: 6,
        typo_p: 0.4,
        abbr_p: 0.3,
        drop_p: 0.3,
        shuffle_p: 0.6,
        seed: 99,
    };
    assert_eq!(pin(&noisy), (2083, 0x0f85_822f_5121_0307));
}

/// The corpus of the benchmark's `crowder_stream_mem` workload at seed 11.
#[test]
fn crowder_workload_corpus_is_pinned() {
    let config =
        ErConfig { n_entities: 4545, min_dups: 1, max_dups: 3, seed: 11, ..ErConfig::default() };
    assert_eq!(pin(&config), (9142, 0xe935_552e_4562_d10c));
}
