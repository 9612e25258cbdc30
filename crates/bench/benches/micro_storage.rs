//! Criterion micro-benchmarks of the storage engine.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use reprowd_storage::crc::crc32;
use reprowd_storage::{Backend, Batch, DiskStore, MemoryStore, SyncPolicy};
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("reprowd-micro-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(name);
    let _ = std::fs::remove_file(&p);
    p
}

fn bench_storage(c: &mut Criterion) {
    let mut g = c.benchmark_group("storage");
    g.sample_size(20);

    g.bench_function("disk_set_1k", |b| {
        b.iter_batched(
            || DiskStore::open(tmp("set.rwlog"), SyncPolicy::Never).unwrap(),
            |store| {
                for i in 0..1000u32 {
                    store.set(&i.to_le_bytes(), b"value-payload").unwrap();
                }
            },
            BatchSize::LargeInput,
        );
    });

    g.bench_function("disk_batch_1k", |b| {
        b.iter_batched(
            || DiskStore::open(tmp("batch.rwlog"), SyncPolicy::Never).unwrap(),
            |store| {
                let mut batch = Batch::with_capacity(1000);
                for i in 0..1000u32 {
                    batch.set(i.to_le_bytes().to_vec(), b"value-payload".to_vec());
                }
                store.apply_batch(batch).unwrap();
            },
            BatchSize::LargeInput,
        );
    });

    let read_store = DiskStore::open(tmp("get.rwlog"), SyncPolicy::Never).unwrap();
    for i in 0..10_000u32 {
        read_store.set(&i.to_le_bytes(), b"value-payload").unwrap();
    }
    g.bench_function("disk_get_hit", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 7) % 10_000;
            std::hint::black_box(read_store.get(&i.to_le_bytes()).unwrap());
        });
    });

    let mem = MemoryStore::new();
    for i in 0..10_000u32 {
        mem.set(format!("task/{i:06}").as_bytes(), b"v").unwrap();
    }
    g.bench_function("memory_scan_prefix_10k", |b| {
        b.iter(|| std::hint::black_box(mem.scan_prefix(b"task/0001").unwrap()));
    });

    g.bench_function("recovery_replay_10k", |b| {
        let path = tmp("replay.rwlog");
        {
            let store = DiskStore::open(&path, SyncPolicy::Never).unwrap();
            for i in 0..10_000u32 {
                store.set(&i.to_le_bytes(), b"value-payload").unwrap();
            }
            store.flush().unwrap();
        }
        b.iter(|| {
            let store = DiskStore::open(&path, SyncPolicy::Never).unwrap();
            std::hint::black_box(store.stats().live_keys);
        });
    });

    // The log checksum every append and every replay runs: 16 MiB of
    // pseudo-random bytes, so bytes/s = 16 MiB / time.
    let blob: Vec<u8> =
        (0..16u32 << 20).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
    g.bench_function("crc32_16mb", |b| {
        b.iter(|| crc32(std::hint::black_box(&blob)));
    });

    g.finish();
}

criterion_group!(benches, bench_storage);
criterion_main!(benches);
