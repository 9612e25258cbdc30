//! The four workloads and the one operation each of them times.
//!
//! Every workload uses the default `ExecutionConfig` (batch 100, 4 batches
//! in flight), a seeded `SimPlatform::quick(7, ...)` crowd and redundancy
//! 3. The seed fixes both the generated inputs and the simulator.
//!
//! * `fig2_fresh_disk` — the image-label loop on a new `DiskStore`: an
//!   experiment's first run, the write path of every layer.
//! * `fig2_rerun_disk` — the same loop rerun against the database set-up
//!   built, reopen included: all read path, never touches the platform.
//! * `fig2_latency_mem` — the loop through `LatencyPlatform` (8 ms RTT) on
//!   a `MemoryStore`: wire-bound, round-trips overlapped by the pipeline.
//! * `crowder_stream_mem` — the streamed CrowdER join on a `MemoryStore`:
//!   the only workload on `pipeline::run_stream`, `simjoin` and
//!   `operators`.

use crate::trace::{CellKind, ClientEdge, EffectEdge, StoreEdge};
use reprowd_core::store::{Manifest, StoredResult, StoredTask};
use reprowd_core::value::canonical;
use reprowd_core::{CrowdContext, CrowdData, ExecutionConfig, Presenter, Value};
use reprowd_datagen::{ErConfig, ErCorpus, LabelConfig, LabelDataset};
use reprowd_operators::join::crowder::{crowder_join, CrowdErConfig};
use reprowd_operators::pairwise_prf;
use reprowd_platform::{CrowdPlatform, LatencyPlatform, SimPlatform};
use reprowd_simjoin::{self_join_stream, JoinConfig, SetSimilarity};
use reprowd_storage::{Backend, DiskStore, MemoryStore, SegmentPolicy, SyncPolicy};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Any failure inside an operation; reported, counted, never fatal.
pub type Error = Box<dyn std::error::Error + Send + Sync>;
/// Result of anything an operation does.
pub type Result<T> = std::result::Result<T, Error>;

/// Flush policy of both disk workloads. Not `Always`: with an fsync per
/// batch, the fresh loop waited on a disk shared with other tenants, and
/// that wait moved its throughput by ±30% from run to run on a shared
/// 2-core host.
const SYNC: SyncPolicy = SyncPolicy::Never;
/// Wire round-trip time of the latency-bound workload.
const RTT: Duration = Duration::from_millis(8);
/// Redundancy: distinct workers asked per task.
const REDUNDANCY: u32 = 3;
/// Simulated workers in the crowd.
const WORKERS: usize = 7;
/// Candidate threshold of the CrowdER machine pass.
const JOIN_THRESHOLD: f64 = 0.3;
const LABELS: [&str; 2] = ["Yes", "No"];

/// Which input size to run at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's stated size.
    Full,
    /// About 10³ input rows: for the benchmark's own tests.
    Tiny,
}

/// One workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Figure 2 loop, first run, on disk.
    Fig2FreshDisk,
    /// Figure 2 loop, fully cached rerun, on disk.
    Fig2RerunDisk,
    /// Figure 2 loop through an 8 ms wire, in memory.
    Fig2LatencyMem,
    /// Streamed CrowdER join, in memory.
    CrowderStreamMem,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig2FreshDisk,
        Workload::Fig2RerunDisk,
        Workload::Fig2LatencyMem,
        Workload::CrowderStreamMem,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig2FreshDisk => "fig2_fresh_disk",
            Workload::Fig2RerunDisk => "fig2_rerun_disk",
            Workload::Fig2LatencyMem => "fig2_latency_mem",
            Workload::CrowderStreamMem => "crowder_stream_mem",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Input size: rows of the Figure 2 loop, or entities of the join
    /// corpus (about two records each).
    pub fn size(self, size: Size) -> usize {
        match (self, size) {
            (Workload::Fig2FreshDisk | Workload::Fig2RerunDisk, Size::Full) => 20_000,
            (Workload::Fig2LatencyMem, Size::Full) => 10_000,
            (Workload::CrowderStreamMem, Size::Full) => 4_545,
            (Workload::CrowderStreamMem, Size::Tiny) => 450,
            (_, Size::Tiny) => 1_000,
        }
    }

    fn is_join(self) -> bool {
        self == Workload::CrowderStreamMem
    }
}

/// The inputs of one workload, generated from the seed.
pub enum Inputs {
    /// Image-label objects with their ground-truth label index.
    Labels { objects: Vec<Value>, truth: Vec<usize> },
    /// Entity-resolution records with their ground-truth entity.
    Corpus { records: Vec<String>, entities: Vec<usize>, truth_pairs: Vec<(usize, usize)> },
}

impl Inputs {
    /// Generates the inputs of `workload` at `size` from `seed`.
    pub fn generate(workload: Workload, size: Size, seed: u64) -> Inputs {
        let n = workload.size(size);
        if workload.is_join() {
            let corpus = ErCorpus::generate(&ErConfig {
                n_entities: n,
                min_dups: 1,
                max_dups: 3,
                seed,
                ..ErConfig::default()
            });
            return Inputs::Corpus {
                records: corpus.texts(),
                entities: corpus.truth_clusters(),
                truth_pairs: corpus.true_pairs(),
            };
        }
        let data = LabelDataset::generate(&LabelConfig {
            n_items: n,
            n_labels: LABELS.len(),
            priors: vec![],
            mean_difficulty: 0.2,
            seed,
        });
        let objects = (0..n)
            .map(|i| {
                // Two decimals keep the objects the size of the paper's
                // example rows.
                let difficulty = (data.difficulty[i] * 100.0).round() / 100.0;
                serde_json::json!({
                    "url": data.items[i],
                    "_sim": {
                        "kind": "label",
                        "truth": data.truth[i],
                        "labels": ["Yes", "No"],
                        "difficulty": difficulty,
                    },
                })
            })
            .collect();
        Inputs::Labels { objects, truth: data.truth }
    }

    /// Input rows one operation completes.
    pub fn rows(&self) -> usize {
        match self {
            Inputs::Labels { objects, .. } => objects.len(),
            Inputs::Corpus { records, .. } => records.len(),
        }
    }
}

/// A set-up workload: its inputs and the database its operations open.
pub struct Env {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Generated inputs.
    pub inputs: Inputs,
    /// Base path of the database the operation opens (disk workloads).
    pub db: PathBuf,
}

impl Env {
    /// Set-up: generates the inputs and constructs one context as an
    /// operation would; for the rerun workload, runs the loop on it to
    /// build the database the operations rerun (unless `existing_db`
    /// names one already built).
    pub fn setup(
        workload: Workload,
        size: Size,
        seed: u64,
        dir: &Path,
        existing_db: Option<&Path>,
    ) -> Result<Env> {
        let inputs = Inputs::generate(workload, size, seed);
        let db = match existing_db {
            Some(db) => db.to_path_buf(),
            None => dir.join("db").join("db.rwlog"),
        };
        let env = Env { workload, seed, inputs, db };
        let builds = workload == Workload::Fig2RerunDisk && existing_db.is_none();
        if workload == Workload::Fig2FreshDisk || builds {
            env.fresh_db_dir()?;
        }
        let session = env.open(false)?;
        if builds {
            fig2_loop(&session.cc, env.objects().to_vec(), &mut [0.0; 4])?;
        }
        Ok(env)
    }

    fn objects(&self) -> &[Value] {
        match &self.inputs {
            Inputs::Labels { objects, .. } => objects,
            Inputs::Corpus { .. } => &[],
        }
    }

    /// Removes any earlier database and creates its directory.
    fn fresh_db_dir(&self) -> Result<()> {
        let dir = self.db.parent().expect("database path has a directory");
        if dir.exists() {
            std::fs::remove_dir_all(dir)?;
        }
        std::fs::create_dir_all(dir)?;
        Ok(())
    }

    /// The platform stack of one operation: the simulator, and on top of it
    /// the effect edge (traced), the wire (latency workload), and the
    /// client edge (traced).
    fn platform(&self, traced: bool) -> Stack {
        let ability = if self.workload.is_join() { 0.95 } else { 0.9 };
        let sim = Arc::new(SimPlatform::quick(WORKERS, ability, self.seed));
        let effect = traced.then(|| Arc::new(EffectEdge::new(Arc::clone(&sim))));
        let below_wire: Arc<dyn CrowdPlatform> = match &effect {
            Some(e) => Arc::clone(e) as Arc<dyn CrowdPlatform>,
            None => Arc::clone(&sim) as Arc<dyn CrowdPlatform>,
        };
        let mut wire_round_trips: Box<dyn Fn() -> u64> = Box::new(|| 0);
        let platform = if self.workload == Workload::Fig2LatencyMem {
            match &effect {
                Some(e) => {
                    let wire = Arc::new(LatencyPlatform::new(Arc::clone(e), RTT));
                    let counter = Arc::clone(&wire);
                    wire_round_trips = Box::new(move || counter.round_trips());
                    wire as Arc<dyn CrowdPlatform>
                }
                None => Arc::new(LatencyPlatform::new(Arc::clone(&sim), RTT)),
            }
        } else {
            below_wire
        };
        let client = traced.then(|| Arc::new(ClientEdge::new(Arc::clone(&platform))));
        let platform = match &client {
            Some(c) => Arc::clone(c) as Arc<dyn CrowdPlatform>,
            None => platform,
        };
        Stack { platform, sim, effect, client, wire_round_trips }
    }

    /// Opens the database (timing just that) and builds the context of one
    /// operation.
    fn open(&self, traced: bool) -> Result<Session> {
        let stack = self.platform(traced);
        let start = Instant::now();
        let raw: Arc<dyn Backend> = match self.workload {
            Workload::Fig2FreshDisk | Workload::Fig2RerunDisk => {
                Arc::new(DiskStore::open_with(&self.db, SYNC, SegmentPolicy::default())?)
            }
            Workload::Fig2LatencyMem | Workload::CrowderStreamMem => Arc::new(MemoryStore::new()),
        };
        let open_s = start.elapsed().as_secs_f64();
        let store = traced.then(|| Arc::new(StoreEdge::new(Arc::clone(&raw))));
        let backend = match &store {
            Some(s) => Arc::clone(s) as Arc<dyn Backend>,
            None => Arc::clone(&raw),
        };
        let cc = CrowdContext::with_config(
            Arc::clone(&stack.platform),
            backend,
            ExecutionConfig::default(),
        )?;
        Ok(Session { cc, raw, stack, store, open_s })
    }

    /// Runs one operation — one whole loop or one whole join — on a fresh
    /// platform, timing only the operation, then checks and digests what
    /// it produced.
    pub fn run_op(&self, traced: bool) -> Result<Outcome> {
        let mut steps = [0.0; 4];
        if self.workload == Workload::Fig2FreshDisk {
            self.fresh_db_dir()?;
        }
        let objects = self.objects().to_vec();
        let mut start = Instant::now();
        let session = self.open(traced)?;
        // A rerun's operation includes reopening the database it reruns.
        if self.workload != Workload::Fig2RerunDisk {
            start = Instant::now();
        }
        let produced = match &self.inputs {
            Inputs::Labels { .. } => Produced::Loop(fig2_loop(&session.cc, objects, &mut steps)?),
            Inputs::Corpus { records, entities, .. } => {
                let decorate = |a: usize, b: usize, obj: &mut Value| {
                    obj["_sim"] = serde_json::json!({
                        "kind": "match",
                        "is_match": entities[a] == entities[b],
                        "ambiguity": 0.05,
                    });
                };
                let mut cfg = CrowdErConfig::new("perfbench-crowder");
                cfg.threshold = JOIN_THRESHOLD;
                Produced::Join(crowder_join(&session.cc, records, &cfg, decorate)?)
            }
        };
        let secs = start.elapsed().as_secs_f64();
        self.finish(session, secs, steps, produced)
    }

    fn finish(
        &self,
        session: Session,
        secs: f64,
        steps: [f64; 4],
        produced: Produced,
    ) -> Result<Outcome> {
        let Session { cc, raw, stack, store, open_s } = session;
        let crowd_calls = stack.sim.api_calls();
        let sim_events = stack.sim.events();
        let mut digest = Fnv::new();
        let (accuracy, stats) = match (&produced, &self.inputs) {
            (Produced::Loop(cd), Inputs::Labels { truth, .. }) => {
                let mut correct = 0usize;
                for row in cd.rows() {
                    digest.str(&row.hash);
                    let mv = row.derived.get("mv").cloned().unwrap_or(Value::Null);
                    if mv.as_str() == Some(LABELS[truth[row.index]]) {
                        correct += 1;
                    }
                    digest.str(&canonical(&mv));
                    for run in row.result.iter().flat_map(|r| &r.runs) {
                        for n in [run.task_id, run.worker_id, run.assigned_at, run.submitted_at] {
                            digest.u64(n);
                        }
                        digest.str(&canonical(&run.answer));
                    }
                }
                (correct as f64 / cd.len().max(1) as f64, cd.run_stats())
            }
            (Produced::Join(out), Inputs::Corpus { truth_pairs, .. }) => {
                digest.u64(out.n_candidates as u64);
                for &(a, b) in &out.matched {
                    digest.u64(a as u64);
                    digest.u64(b as u64);
                }
                (pairwise_prf(&out.matched, truth_pairs).2, out.stats)
            }
            _ => unreachable!("outputs match their inputs"),
        };
        let mut live_bytes = 0u64;
        for (k, v) in raw.scan_prefix(b"t/")? {
            live_bytes += (k.len() + v.len()) as u64;
            digest.bytes(&k);
            digest.bytes(&v);
        }
        let db_bytes = if self.workload == Workload::Fig2FreshDisk
            || self.workload == Workload::Fig2RerunDisk
        {
            dir_bytes(self.db.parent().expect("database path has a directory"))?
        } else {
            live_bytes
        };

        let layers = match (&stack.client, &stack.effect, &store) {
            (Some(client), Some(effect), Some(store)) => {
                let mut l = BTreeMap::new();
                let [data, publish, collect, aggregate] = steps;
                l.insert("crowddata.data_s", data);
                l.insert("crowddata.publish_s", publish);
                l.insert("crowddata.collect_s", collect);
                l.insert("crowddata.aggregate_s", aggregate);
                l.insert("crowder.join_s", if self.workload.is_join() { secs } else { 0.0 });
                let log_bytes = raw.stats().log_bytes;
                l.insert("storage.get_s", store.get.secs());
                l.insert("storage.batch_s", store.batch.secs());
                l.insert("storage.scan_s", store.scan.secs());
                l.insert("storage.open_s", open_s);
                l.insert("storage.get_calls", store.get.calls() as f64);
                l.insert("storage.batch_calls", store.batch.calls() as f64);
                l.insert("storage.read_bytes", store.read_bytes() as f64);
                l.insert("storage.write_bytes", store.write_bytes() as f64);
                l.insert("storage.log_bytes", log_bytes as f64);
                // A fresh database starts empty and a rerun appends
                // nothing, so the log is entirely this operation's writes.
                let amp = if store.write_bytes() == 0 || self.workload == Workload::Fig2RerunDisk {
                    0.0
                } else {
                    log_bytes as f64 / store.write_bytes() as f64
                };
                l.insert("storage.write_amp", amp);
                let bm = cc.batch_metrics();
                l.insert("exec.round_trips", bm.round_trips() as f64);
                l.insert(
                    "exec.rows_per_call",
                    ratio(bm.publish_rows + bm.fetch_rows, bm.round_trips()),
                );
                l.insert("exec.probe_calls", bm.probe_calls as f64);
                let reused = stats.tasks_reused + stats.results_reused;
                let paid = stats.tasks_published + stats.results_collected;
                l.insert("cache.hit_ratio", ratio(reused, reused + paid));
                l.insert("platform.publish_s", client.publish.secs());
                l.insert("platform.probe_s", client.probe.secs());
                l.insert("platform.fetch_s", client.fetch.secs());
                l.insert("platform.wait_s", client.wait.secs());
                l.insert("platform.calls", crowd_calls as f64);
                l.insert("platform.effect_s", effect.effect.secs());
                l.insert("platform.gate_wire_s", client.total_secs() - effect.effect.secs());
                l.insert("platform.wire_round_trips", (stack.wire_round_trips)() as f64);
                l.insert("sim.events", sim_events as f64);
                l.insert("sim.drain_s", effect.drain.secs());
                let peak = match &produced {
                    Produced::Join(out) => out.peak_inflight_pairs as f64,
                    Produced::Loop(_) => 0.0,
                };
                l.insert("pipeline.peak_inflight_pairs", peak);
                Some(Traced { layers: l, cells: store.take_cells() })
            }
            _ => None,
        };
        drop(cc);
        let candidates = match &produced {
            Produced::Join(out) => out.n_candidates,
            Produced::Loop(_) => 0,
        };
        Ok(Outcome {
            secs,
            rows: self.inputs.rows(),
            digest: digest.finish(),
            crowd_calls,
            sim_events,
            accuracy,
            db_bytes,
            candidates,
            traced: layers,
        })
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The paper's Figure 2 program, one timed step at a time: data (with the
/// presenter), publish, collect, aggregate.
fn fig2_loop(cc: &CrowdContext, objects: Vec<Value>, steps: &mut [f64; 4]) -> Result<CrowdData> {
    let mut lap = Instant::now();
    let mut split = |i: usize| {
        steps[i] = lap.elapsed().as_secs_f64();
        lap = Instant::now();
    };
    let cd = cc
        .crowddata("perfbench-fig2")?
        .data(objects)?
        .presenter(Presenter::image_label("Is this a cat?", &LABELS))?;
    split(0);
    let cd = cd.publish(REDUNDANCY)?;
    split(1);
    let cd = cd.collect()?;
    split(2);
    let cd = cd.majority_vote()?;
    split(3);
    Ok(cd)
}

/// Bytes of every file in `dir`: the database's file family.
fn dir_bytes(dir: &Path) -> Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

struct Stack {
    platform: Arc<dyn CrowdPlatform>,
    sim: Arc<SimPlatform>,
    effect: Option<Arc<EffectEdge>>,
    client: Option<Arc<ClientEdge>>,
    wire_round_trips: Box<dyn Fn() -> u64>,
}

struct Session {
    cc: CrowdContext,
    raw: Arc<dyn Backend>,
    stack: Stack,
    store: Option<Arc<StoreEdge>>,
    /// Seconds opening the database took.
    open_s: f64,
}

enum Produced {
    Loop(CrowdData),
    Join(reprowd_operators::join::crowder::CrowdErResult),
}

/// What one operation produced.
pub struct Outcome {
    /// Wall time of the operation.
    pub secs: f64,
    /// Input rows it completed.
    pub rows: usize,
    /// FNV-1a over the result columns (or matched pairs) and every raw
    /// stored cell.
    pub digest: u64,
    /// `CrowdPlatform::api_calls` the operation issued.
    pub crowd_calls: u64,
    /// Simulator events the operation caused.
    pub sim_events: u64,
    /// Majority-vote accuracy, or the join's pairwise F1.
    pub accuracy: f64,
    /// Bytes of the database after the operation: its file family on disk,
    /// or the live cells of a memory store.
    pub db_bytes: u64,
    /// Machine-pass candidates of the join (0 for the loop).
    pub candidates: usize,
    /// Per-layer values, on a traced operation.
    pub traced: Option<Traced>,
}

/// What the decorators saw during one traced operation.
pub struct Traced {
    /// Per-layer metric values, by name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Every cell value that crossed the store edge.
    pub cells: Vec<(CellKind, Vec<u8>)>,
}

/// Replays, outside any timed operation, the work two layers did inside
/// one: content hashing over the objects of the task cells, and the codec
/// over the exact cell bytes. Fails if re-encoding a decoded cell does not
/// give back its bytes.
pub fn replay_codec_and_hash(
    cells: &[(CellKind, Vec<u8>)],
    out: &mut BTreeMap<&'static str, f64>,
) -> Result<()> {
    fn roundtrip<T: serde::Serialize + serde::de::DeserializeOwned>(
        bytes: &[u8],
        decode_s: &mut f64,
        encode_s: &mut f64,
    ) -> Result<T> {
        let start = Instant::now();
        let cell: T = serde_json::from_slice(bytes)?;
        let mid = Instant::now();
        let again = serde_json::to_vec(&cell)?;
        *encode_s += mid.elapsed().as_secs_f64();
        *decode_s += (mid - start).as_secs_f64();
        if again != bytes {
            return Err("codec replay: re-encoding a decoded cell changed its bytes".into());
        }
        Ok(cell)
    }
    let (mut decode_s, mut encode_s, mut bytes) = (0.0, 0.0, 0u64);
    let mut objects = Vec::new();
    for (kind, cell) in cells {
        bytes += cell.len() as u64;
        match kind {
            CellKind::Manifest => {
                roundtrip::<Manifest>(cell, &mut decode_s, &mut encode_s)?;
            }
            CellKind::Task => {
                let task: StoredTask = roundtrip(cell, &mut decode_s, &mut encode_s)?;
                objects.push(task.object);
            }
            CellKind::Result => {
                roundtrip::<StoredResult>(cell, &mut decode_s, &mut encode_s)?;
            }
        }
    }
    out.insert("codec.decode_s", decode_s);
    out.insert("codec.encode_s", encode_s);
    out.insert("codec.cells", cells.len() as f64);
    out.insert("codec.bytes", bytes as f64);

    let mut hash_bytes = 0u64;
    let start = Instant::now();
    let mut sink = 0u64;
    for object in &objects {
        sink ^= reprowd_core::hash::hash_value(std::hint::black_box(object));
    }
    let hash_s = start.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    for object in &objects {
        hash_bytes += canonical(object).len() as u64;
    }
    out.insert("hash.s", hash_s);
    out.insert("hash.bytes", hash_bytes as f64);
    Ok(())
}

/// Replays the join's machine pass on its own: candidate count and time.
/// Zero for the loop workloads, which never enter `simjoin`.
pub fn replay_simjoin(env: &Env, out: &mut BTreeMap<&'static str, f64>) {
    let (secs, candidates) = match &env.inputs {
        Inputs::Corpus { records, .. } => {
            let cfg = JoinConfig::new(SetSimilarity::Jaccard, JOIN_THRESHOLD);
            let start = Instant::now();
            let n = self_join_stream(records, &cfg).count();
            (start.elapsed().as_secs_f64(), n)
        }
        Inputs::Labels { .. } => (0.0, 0),
    };
    out.insert("simjoin.s", secs);
    out.insert("simjoin.candidates", candidates as f64);
}

/// FNV-1a (64-bit), length-prefixing each field so that concatenations
/// cannot collide.
pub struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn raw(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, n: u64) {
        self.raw(&n.to_le_bytes());
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        self.raw(bytes);
    }

    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}
