//! Property tests of the platform simulator's invariants: determinism,
//! redundancy exactness, worker-distinctness, and timestamp sanity — for
//! arbitrary pool sizes, task counts, and seeds.

use proptest::prelude::*;
use reprowd_platform::{
    AnswerModel, CrowdPlatform, SimConfig, SimPlatform, TaskSpec, WorkerPool,
};

fn spec(truth: usize, n: u32) -> TaskSpec {
    let model = AnswerModel::Label {
        truth,
        labels: vec!["Yes".into(), "No".into()],
        difficulty: 0.2,
    };
    TaskSpec { payload: model.embed(serde_json::json!({"i": truth})), n_assignments: n }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    #[test]
    fn simulation_invariants_hold(
        n_workers in 2usize..8,
        n_tasks in 1usize..20,
        redundancy in 1u32..4,
        seed in 0u64..10_000,
    ) {
        prop_assume!(redundancy as usize <= n_workers);
        let p = SimPlatform::quick(n_workers, 0.85, seed);
        let proj = p.create_project("prop").unwrap();
        let mut ids = Vec::new();
        for t in 0..n_tasks {
            ids.push(p.publish_task(proj, spec(t % 2, redundancy)).unwrap());
        }
        let task_ids: Vec<u64> = ids.iter().map(|t| t.id).collect();
        p.run_until_complete(&task_ids).unwrap();

        for task in &ids {
            let runs = p.fetch_runs(task.id).unwrap();
            // Exact redundancy.
            prop_assert_eq!(runs.len() as u32, redundancy);
            // Distinct workers.
            let workers: std::collections::HashSet<u64> =
                runs.iter().map(|r| r.worker_id).collect();
            prop_assert_eq!(workers.len(), runs.len());
            // Timestamp sanity.
            for r in &runs {
                prop_assert!(r.assigned_at >= task.published_at);
                prop_assert!(r.submitted_at > r.assigned_at);
            }
        }
    }

    #[test]
    fn same_seed_same_world(
        n_tasks in 1usize..15,
        seed in 0u64..10_000,
    ) {
        let world = |seed: u64| {
            let p = SimPlatform::quick(5, 0.8, seed);
            let proj = p.create_project("w").unwrap();
            let mut out = Vec::new();
            let mut ids = Vec::new();
            for t in 0..n_tasks {
                ids.push(p.publish_task(proj, spec(t % 2, 3)).unwrap().id);
            }
            p.run_until_complete(&ids).unwrap();
            for id in ids {
                out.push(p.fetch_runs(id).unwrap());
            }
            out
        };
        prop_assert_eq!(world(seed), world(seed));
    }

    #[test]
    fn per_worker_runs_never_overlap(
        n_tasks in 2usize..15,
        seed in 0u64..10_000,
    ) {
        let p = SimPlatform::quick(3, 0.9, seed);
        let proj = p.create_project("ser").unwrap();
        let mut ids = Vec::new();
        for t in 0..n_tasks {
            ids.push(p.publish_task(proj, spec(t % 2, 2)).unwrap().id);
        }
        p.run_until_complete(&ids).unwrap();
        // Collect all runs per worker, check intervals don't overlap.
        let mut by_worker: std::collections::HashMap<u64, Vec<(u64, u64)>> =
            std::collections::HashMap::new();
        for &id in &ids {
            for r in p.fetch_runs(id).unwrap() {
                by_worker.entry(r.worker_id).or_default().push((r.assigned_at, r.submitted_at));
            }
        }
        for (worker, mut intervals) in by_worker {
            intervals.sort_unstable();
            for w in intervals.windows(2) {
                prop_assert!(
                    w[1].0 >= w[0].1,
                    "worker {} overlaps: {:?} then {:?}",
                    worker,
                    w[0],
                    w[1]
                );
            }
        }
    }

    /// The determinism contract: a random publish/step/fetch sequence
    /// replayed on the same seed produces a bit-identical world — whether
    /// the crowd is driven one event at a time (`step`) or drained to
    /// quiescence (`run_until_complete`), and on every repetition.
    #[test]
    fn sharded_replay_is_bit_identical(
        n_workers in 4usize..24,
        n_first in 1usize..12,
        n_second in 0usize..12,
        mid_steps in 0usize..30,
        redundancy in 1u32..3,
        seed in 0u64..10_000,
    ) {
        let build = || SimPlatform::new(SimConfig::new(WorkerPool::uniform(n_workers, 0.85), seed));
        let world = |drain: bool| {
            let p = build();
            let proj = p.create_project("replay").unwrap();
            // Wave 1 in bulk, a burst of manual single steps mid-flight,
            // then wave 2 one task at a time onto the warm world.
            let mut ids: Vec<u64> = p
                .publish_tasks(
                    proj,
                    (0..n_first).map(|t| spec(t % 2, redundancy)).collect(),
                )
                .unwrap()
                .iter()
                .map(|t| t.id)
                .collect();
            for _ in 0..mid_steps {
                p.step().unwrap();
            }
            for t in 0..n_second {
                ids.push(p.publish_task(proj, spec(t % 2, redundancy)).unwrap().id);
            }
            if drain {
                p.run_until_complete(&ids).unwrap();
            } else {
                while p.step().unwrap() {}
            }
            let tasks: Vec<_> = ids.iter().map(|&id| p.task(id).unwrap()).collect();
            (tasks, p.fetch_runs_bulk(&ids).unwrap(), p.now(), p.events())
        };
        let drained = world(true);
        // Repeated runs agree…
        prop_assert_eq!(&drained, &world(true));
        // …and agree with the single-step driver.
        prop_assert_eq!(&drained, &world(false));
    }
}
