//! Criterion micro-benchmarks of the similarity-join substrate: the
//! prefix-filtered join against the brute-force oracle (the machine-pass
//! speedup CrowdER's cost model assumes), and the streamed join over the
//! corpus the `crowder_stream_mem` benchmark workload joins.

use criterion::{criterion_group, criterion_main, Criterion};
use reprowd_datagen::{ErConfig, ErCorpus};
use reprowd_simjoin::join::{brute_force_self_join, self_join, self_join_stream, JoinConfig};
use reprowd_simjoin::similarity::{edit_distance, SetSimilarity};

fn corpus(n_entities: usize, seed: u64) -> Vec<String> {
    ErCorpus::generate(&ErConfig {
        n_entities,
        min_dups: 1,
        max_dups: 3,
        seed,
        ..ErConfig::default()
    })
    .texts()
}

fn bench_simjoin(c: &mut Criterion) {
    let mut g = c.benchmark_group("simjoin");
    g.sample_size(15);

    let small = corpus(150, 1234); // ~300 records
    let cfg = JoinConfig::new(SetSimilarity::Jaccard, 0.4);

    g.bench_function("prefix_filtered_300rec", |b| {
        b.iter(|| std::hint::black_box(self_join(&small, &cfg)));
    });
    g.bench_function("brute_force_300rec", |b| {
        b.iter(|| std::hint::black_box(brute_force_self_join(&small, &cfg)));
    });

    let big = corpus(600, 1234); // ~1200 records: only the filtered join is viable
    g.bench_function("prefix_filtered_1200rec", |b| {
        b.iter(|| std::hint::black_box(self_join(&big, &cfg)));
    });

    // CrowdER's machine pass in the benchmark's `crowder_stream_mem`
    // workload: ~9.1k records at θ=0.3, 37,110 pairs.
    let crowder = corpus(4545, 11);
    let cfg03 = JoinConfig::new(SetSimilarity::Jaccard, 0.3);
    g.bench_function("stream_9k_theta03", |b| {
        b.iter(|| std::hint::black_box(self_join_stream(&crowder, &cfg03).count()));
    });

    g.bench_function("edit_distance_20x20", |b| {
        b.iter(|| {
            std::hint::black_box(edit_distance(
                "golden dragon palace",
                "goldn dragoon palaces",
            ))
        });
    });

    g.finish();
}

criterion_group!(benches, bench_simjoin);
criterion_main!(benches);
