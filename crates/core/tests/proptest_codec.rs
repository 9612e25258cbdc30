//! Differential property tests of the cell codec.
//!
//! The oracle is the tree encoder the codec replaced: `Value`'s old
//! `Display`, which walked a `BTreeMap`-ordered tree and escaped through
//! `fmt::Formatter`. Over random `Value` trees and random typed cells
//! (`StoredTask`, `StoredResult`, `Manifest`, `CellLineage`,
//! `AnswerModel`), the tests assert:
//!
//! 1. the writer's bytes equal the oracle's, and `hash_value` is FNV-1a of
//!    exactly those bytes;
//! 2. reading what was written gives the value back;
//! 3. typed decoding of a messy document — keys permuted, unknown keys
//!    added, decoy values under repeated keys (the last one wins), `null`
//!    fields left out, whitespace everywhere — equals the cell, and equals
//!    decoding the same document through `Value`;
//! 4. every truncation of a valid document, and nesting 129 levels deep,
//!    is an `Err` and never a panic.

use proptest::prelude::*;
use reprowd_core::hash::{fnv1a, hash_value};
use reprowd_core::lineage::{CellLineage, Derivation};
use reprowd_core::store::{Manifest, StoredResult, StoredTask, TaskCell};
use reprowd_core::value::Value;
use reprowd_platform::types::{Task, TaskRun, TaskStatus};
use reprowd_platform::AnswerModel;
use serde::de::DeserializeOwned;
use serde::Serialize;
use serde_json::{json, Map, Number};
use std::fmt::{self, Debug};

// ------------------------------------------------------------------ oracle

/// The replaced tree encoder, verbatim but for its receiver.
struct Oracle<'a>(&'a Value);

impl fmt::Display for Oracle<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Number(n) => oracle_number(f, n),
            Value::String(s) => oracle_escaped(f, s),
            Value::Array(a) => {
                f.write_str("[")?;
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}", Oracle(v))?;
                }
                f.write_str("]")
            }
            Value::Object(m) => {
                f.write_str("{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    oracle_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{}", Oracle(v))?;
                }
                f.write_str("}")
            }
        }
    }
}

fn oracle_number(f: &mut fmt::Formatter<'_>, n: &Number) -> fmt::Result {
    match *n {
        Number::I64(n) => write!(f, "{n}"),
        Number::U64(n) => write!(f, "{n}"),
        Number::F64(n) => {
            let s = n.to_string();
            if s.contains(['.', 'e', 'E']) {
                f.write_str(&s)
            } else {
                write!(f, "{s}.0")
            }
        }
    }
}

fn oracle_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            '\u{8}' => f.write_str("\\b")?,
            '\u{c}' => f.write_str("\\f")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

fn oracle(v: &Value) -> String {
    Oracle(v).to_string()
}

// --------------------------------------------------------------- generator

/// SplitMix64: a whole case grows from one proptest-drawn seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn coin(&mut self) -> bool {
        self.below(2) == 0
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }

    fn string(&mut self) -> String {
        const CHARS: &[char] = &[
            'a', 'k', 'z', 'Q', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{8}', '\u{c}',
            '\u{0}', '\u{1}', '\u{1f}', '\u{7f}', 'é', '—', '€', '😀', '\u{ffff}', '\u{10ffff}',
        ];
        (0..self.below(9)).map(|_| self.pick(CHARS)).collect()
    }

    fn float(&mut self) -> f64 {
        match self.below(3) {
            0 => self.pick(&[0.23, 1e16, 1e300, -0.0, 0.0, 0.5, 1e-7, -4e17, 123_456_789.125]),
            1 => (self.next() as i64 as f64) / 1024.0,
            _ => loop {
                let f = f64::from_bits(self.next());
                if f.is_finite() {
                    break f;
                }
            },
        }
    }

    fn number(&mut self) -> Value {
        match self.below(5) {
            0 => Value::from(self.next() as i64),
            1 => Value::from(self.below(100) as i64 - 50),
            2 => Value::from(self.next() | 1 << 63),
            _ => Value::from_f64(self.float()),
        }
    }

    fn value(&mut self, depth: u32) -> Value {
        let kinds = if depth == 0 { 4 } else { 6 };
        match self.below(kinds) {
            0 => Value::Null,
            1 => Value::Bool(self.coin()),
            2 => self.number(),
            3 => Value::String(self.string()),
            4 => Value::Array((0..self.below(4)).map(|_| self.value(depth - 1)).collect()),
            _ => {
                let mut m = Map::new();
                for _ in 0..self.below(5) {
                    m.insert(self.string(), self.value(depth - 1));
                }
                Value::Object(m)
            }
        }
    }

    fn opt<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> Option<T> {
        if self.coin() {
            Some(f(self))
        } else {
            None
        }
    }

    fn task(&mut self) -> Task {
        Task {
            id: self.next(),
            project_id: self.below(1000),
            payload: self.value(3),
            n_assignments: self.below(10) as u32,
            published_at: self.next() >> 20,
            status: if self.coin() { TaskStatus::Open } else { TaskStatus::Completed },
        }
    }

    fn run(&mut self) -> TaskRun {
        TaskRun {
            task_id: self.next(),
            worker_id: self.below(50),
            answer: self.value(2),
            assigned_at: self.below(1 << 40),
            submitted_at: self.below(1 << 40),
        }
    }

    fn runs(&mut self) -> Vec<TaskRun> {
        (0..self.below(4)).map(|_| self.run()).collect()
    }

    fn stored_task(&mut self) -> StoredTask {
        StoredTask { task: self.task(), object: self.value(3), n_assignments: self.below(9) as u32 }
    }

    fn manifest(&mut self) -> Manifest {
        Manifest {
            name: self.string(),
            version: self.below(3) as u32,
            presenter_fingerprint: self.opt(Gen::string),
            project_id: self.opt(Gen::next),
            n_assignments: self.opt(|g| g.below(9) as u32),
        }
    }

    fn lineage(&mut self) -> CellLineage {
        let derivation = match self.below(5) {
            0 => Derivation::Source,
            1 => Derivation::Published { task: self.task() },
            2 => Derivation::Collected { runs: self.runs() },
            3 => Derivation::Aggregated {
                method: self.string(),
                inputs: self.runs(),
                output: self.value(2),
            },
            _ => Derivation::Mapped { column: self.string(), output: self.value(2) },
        };
        CellLineage {
            experiment: self.string(),
            row: self.below(1 << 20) as usize,
            row_hash: self.string(),
            object: self.value(2),
            column: self.string(),
            derivation,
        }
    }

    fn answer_model(&mut self) -> AnswerModel {
        match self.below(4) {
            0 => AnswerModel::Label {
                truth: self.below(4) as usize,
                labels: (0..self.below(4)).map(|_| self.string()).collect(),
                difficulty: self.float(),
            },
            1 => AnswerModel::Compare { p_first: self.float() },
            2 => AnswerModel::Match { is_match: self.coin(), ambiguity: self.float() },
            _ => AnswerModel::Fixed { value: self.value(2) },
        }
    }
}

// ------------------------------------------- trees the old derive would build

fn task_tree(t: &Task) -> Value {
    json!({
        "id": t.id,
        "project_id": t.project_id,
        "payload": t.payload.clone(),
        "n_assignments": t.n_assignments,
        "published_at": t.published_at,
        "status": if t.status == TaskStatus::Open { "Open" } else { "Completed" },
    })
}

fn run_tree(r: &TaskRun) -> Value {
    json!({
        "task_id": r.task_id,
        "worker_id": r.worker_id,
        "answer": r.answer.clone(),
        "assigned_at": r.assigned_at,
        "submitted_at": r.submitted_at,
    })
}

fn runs_tree(runs: &[TaskRun]) -> Value {
    Value::Array(runs.iter().map(run_tree).collect())
}

fn stored_task_tree(c: &StoredTask) -> Value {
    json!({"task": task_tree(&c.task), "object": c.object.clone(), "n_assignments": c.n_assignments})
}

fn manifest_tree(m: &Manifest) -> Value {
    json!({
        "name": m.name,
        "version": m.version,
        "presenter_fingerprint": m.presenter_fingerprint.clone().map_or(Value::Null, Value::from),
        "project_id": m.project_id.map_or(Value::Null, Value::from),
        "n_assignments": m.n_assignments.map_or(Value::Null, Value::from),
    })
}

fn lineage_tree(l: &CellLineage) -> Value {
    let derivation = match &l.derivation {
        Derivation::Source => json!({"kind": "source"}),
        Derivation::Published { task } => json!({"kind": "published", "task": task_tree(task)}),
        Derivation::Collected { runs } => json!({"kind": "collected", "runs": runs_tree(runs)}),
        Derivation::Aggregated { method, inputs, output } => json!({
            "kind": "aggregated",
            "method": method,
            "inputs": runs_tree(inputs),
            "output": output.clone(),
        }),
        Derivation::Mapped { column, output } => {
            json!({"kind": "mapped", "column": column, "output": output.clone()})
        }
    };
    json!({
        "experiment": l.experiment,
        "row": l.row,
        "row_hash": l.row_hash,
        "object": l.object.clone(),
        "column": l.column,
        "derivation": derivation,
    })
}

fn answer_model_tree(m: &AnswerModel) -> Value {
    match m {
        AnswerModel::Label { truth, labels, difficulty } => json!({
            "kind": "label",
            "truth": truth,
            "labels": Value::Array(labels.iter().map(|l| Value::from(l.as_str())).collect()),
            "difficulty": difficulty,
        }),
        AnswerModel::Compare { p_first } => json!({"kind": "compare", "p_first": p_first}),
        AnswerModel::Match { is_match, ambiguity } => {
            json!({"kind": "match", "is_match": is_match, "ambiguity": ambiguity})
        }
        AnswerModel::Fixed { value } => json!({"kind": "fixed", "value": value.clone()}),
    }
}

// ------------------------------------------------------------ messy writer

/// Renders `v` as a valid document that must decode to the same thing:
/// whitespace between tokens, keys in random order, decoy values under
/// repeated keys ahead of the real one, and — inside objects that decode
/// into a struct (`typed(path)`) — unknown keys added and `null` fields
/// left out. `Value` subtrees get no unknown keys: they would be content.
fn messy(v: &Value, path: &str, typed: &dyn Fn(&str) -> bool, g: &mut Gen, out: &mut String) {
    let ws = |g: &mut Gen, out: &mut String| out.push_str(g.pick(&["", "", " ", "\n  ", "\t"]));
    match v {
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(g, out);
                messy(item, &format!("{path}.*"), typed, g, out);
                ws(g, out);
            }
            out.push(']');
        }
        Value::Object(m) => {
            let is_typed = typed(path);
            let mut entries: Vec<(String, String)> = Vec::new();
            for (k, child) in m {
                if is_typed && child.is_null() && g.coin() {
                    continue;
                }
                let mut text = String::new();
                let child_path = if path.is_empty() { k.clone() } else { format!("{path}.{k}") };
                messy(child, &child_path, typed, g, &mut text);
                entries.push((k.clone(), text));
            }
            // Fisher–Yates.
            for i in (1..entries.len()).rev() {
                entries.swap(i, g.below(i as u64 + 1) as usize);
            }
            let mut decoys: Vec<(String, String)> = Vec::new();
            for (k, _) in &entries {
                if g.below(3) == 0 {
                    decoys.push((k.clone(), oracle(&g.value(2))));
                }
            }
            if is_typed {
                for i in 0..g.below(3) {
                    decoys.push((format!("unknown_{i}"), oracle(&g.value(2))));
                }
            }
            out.push('{');
            for (i, (k, text)) in decoys.iter().chain(&entries).enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(g, out);
                out.push_str(&oracle(&Value::from(k.as_str())));
                ws(g, out);
                out.push(':');
                ws(g, out);
                out.push_str(text);
                ws(g, out);
            }
            out.push('}');
        }
        scalar => out.push_str(&oracle(scalar)),
    }
}

// ------------------------------------------------------------- properties

/// Checks one typed cell against its old-derive tree; returns the error.
fn check_cell<T>(cell: &T, tree: &Value, typed: &dyn Fn(&str) -> bool, g: &mut Gen) -> Result<(), String>
where
    T: Serialize + DeserializeOwned + PartialEq + Debug,
{
    let expected = oracle(tree);
    let written = serde_json::to_string(cell).map_err(|e| e.to_string())?;
    if written != expected {
        return Err(format!("writer drifted:\n  new: {written}\n  old: {expected}"));
    }
    let back: T = serde_json::from_str(&written).map_err(|e| format!("{e} reading {written}"))?;
    if &back != cell {
        return Err(format!("read(write(x)) != x for {written}"));
    }
    for _ in 0..3 {
        let mut doc = String::new();
        messy(tree, "", typed, g, &mut doc);
        let typed_read: T = serde_json::from_str(&doc).map_err(|e| format!("{e} reading {doc}"))?;
        let through_value: T =
            serde_json::from_str(&Value::parse(&doc).map_err(|e| e.to_string())?.to_string())
                .map_err(|e| e.to_string())?;
        if &typed_read != cell || typed_read != through_value {
            return Err(format!("messy document decoded differently: {doc}"));
        }
    }
    let bytes = written.as_bytes();
    if let Some(cut) = (0..bytes.len()).find(|&cut| serde_json::from_slice::<T>(&bytes[..cut]).is_ok())
    {
        return Err(format!("truncation to {cut} bytes decoded: {written}"));
    }
    Ok(())
}

fn run_typed(seed: u64) -> Result<(), String> {
    let mut g = Gen(seed);
    let cell = g.stored_task();
    check_cell(&cell, &stored_task_tree(&cell), &|p| p.is_empty() || p == "task", &mut g)?;
    let cell = StoredResult { runs: g.runs() };
    let tree = json!({"runs": runs_tree(&cell.runs)});
    check_cell(&cell, &tree, &|p| p.is_empty() || p == "runs.*", &mut g)?;
    let cell = g.manifest();
    check_cell(&cell, &manifest_tree(&cell), &|p| p.is_empty(), &mut g)?;
    let cell = g.lineage();
    let typed = |p: &str| {
        ["", "derivation", "derivation.task", "derivation.runs.*", "derivation.inputs.*"]
            .contains(&p)
    };
    check_cell(&cell, &lineage_tree(&cell), &typed, &mut g)?;
    let cell = g.answer_model();
    check_cell(&cell, &answer_model_tree(&cell), &|p| p.is_empty(), &mut g)
}

fn run_value(seed: u64) -> Result<(), String> {
    let mut g = Gen(seed);
    let v = g.value(4);
    let expected = oracle(&v);
    let written = serde_json::to_string(&v).map_err(|e| e.to_string())?;
    if written != expected {
        return Err(format!("writer drifted:\n  new: {written}\n  old: {expected}"));
    }
    let displayed = v.to_string();
    if displayed != expected || serde_json::to_vec(&v).unwrap() != expected.as_bytes() {
        return Err(format!("Display or to_vec drifted from {expected}"));
    }
    if hash_value(&v) != fnv1a(expected.as_bytes()) {
        return Err(format!("streamed hash differs from FNV-1a of {expected}"));
    }
    if Value::parse(&written).map_err(|e| e.to_string())? != v {
        return Err(format!("read(write(x)) != x for {written}"));
    }
    let mut doc = String::new();
    messy(&v, "", &|_| false, &mut g, &mut doc);
    if Value::parse(&doc).map_err(|e| format!("{e} reading {doc}"))? != v {
        return Err(format!("messy document parsed differently: {doc}"));
    }
    // A bare number's prefixes can be numbers too; containers and strings
    // have no valid proper prefix.
    if matches!(v, Value::Array(_) | Value::Object(_) | Value::String(_)) {
        let bytes = written.as_bytes();
        for cut in 0..bytes.len() {
            if serde_json::from_slice::<Value>(&bytes[..cut]).is_ok() {
                return Err(format!("truncation to {cut} bytes parsed: {written}"));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, .. ProptestConfig::default() })]

    #[test]
    fn values_match_the_tree_encoder_and_roundtrip(seed in any::<u64>()) {
        if let Err(e) = run_value(seed) {
            prop_assert!(false, "{}", e);
        }
    }

    #[test]
    fn typed_cells_match_the_old_derive_and_decode_like_value(seed in any::<u64>()) {
        if let Err(e) = run_typed(seed) {
            prop_assert!(false, "{}", e);
        }
    }
}

/// A task cell as a row holds it: its header is the cell's task id and
/// redundancy, its bytes are the cell's encoding, and it decodes to the
/// cell. The header reader gets the same header out of a messy document.
fn run_task_cell(seed: u64) -> Result<(), String> {
    let mut g = Gen(seed);
    let cell = g.stored_task();
    let header = (cell.task.id, cell.n_assignments);
    let encoded = TaskCell::encode(&cell);
    let bytes = serde_json::to_vec(&cell).map_err(|e| e.to_string())?;
    if (encoded.id(), encoded.n_assignments()) != header || encoded.bytes() != &bytes[..] {
        return Err(format!("encode drifted from the cell {cell:?}"));
    }
    if encoded.decode().map_err(|e| e.to_string())? != cell {
        return Err(format!("decode(encode(x)) != x for {cell:?}"));
    }
    let read = TaskCell::from_bytes(bytes).map_err(|e| e.to_string())?;
    if read != encoded {
        return Err(format!("header read of the stored bytes differs for {cell:?}"));
    }
    let mut doc = String::new();
    messy(&stored_task_tree(&cell), "", &|p| p.is_empty() || p == "task", &mut g, &mut doc);
    let read =
        TaskCell::from_bytes(doc.clone().into_bytes()).map_err(|e| format!("{e} reading {doc}"))?;
    if (read.id(), read.n_assignments()) != header || read.decode().ok() != Some(cell) {
        return Err(format!("messy document read differently: {doc}"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, .. ProptestConfig::default() })]

    #[test]
    fn task_cells_keep_their_bytes_and_read_their_header(seed in any::<u64>()) {
        if let Err(e) = run_task_cell(seed) {
            prop_assert!(false, "{}", e);
        }
    }
}

#[test]
fn nesting_beyond_128_levels_is_an_error() {
    let nested = |depth: usize| format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
    assert!(Value::parse(&nested(128)).is_ok());
    assert!(Value::parse(&nested(129)).is_err());
    // Inside a cell the limit counts the cell's own object: its `object`
    // field may hold 127 more levels, not 128.
    let cell = |depth: usize| {
        format!(
            r#"{{"n_assignments":1,"object":{},"task":{{"id":1,"n_assignments":1,"payload":null,"project_id":1,"published_at":0,"status":"Open"}}}}"#,
            nested(depth)
        )
    };
    assert!(serde_json::from_str::<StoredTask>(&cell(127)).is_ok());
    assert!(serde_json::from_str::<StoredTask>(&cell(128)).is_err());
    // Unknown keys are checked too, so depth counts there as well.
    let unknown = format!(r#"{{"runs":[],"extra":{}}}"#, nested(128));
    assert!(serde_json::from_str::<StoredResult>(&unknown).is_err());
}
