//! Golden pins of the cell codec: the exact bytes every stored cell type
//! encodes to, the presenter fingerprints that prefix every cache key, and
//! `hash_value` of three objects.
//!
//! A shared database file is only reusable if a later build encodes the
//! same cells to the same bytes and derives the same keys from them, so
//! these strings were recorded once and must never change. Every fixture
//! must also decode and re-encode to exactly its pinned bytes.

use reprowd_core::hash::{fnv1a, hash_value};
use reprowd_core::lineage::{CellLineage, Derivation};
use reprowd_core::presenter::Presenter;
use reprowd_core::store::{Manifest, StoredResult, StoredTask, TaskCell};
use reprowd_core::value::Value;
use reprowd_platform::types::{Task, TaskRun, TaskStatus};
use reprowd_platform::AnswerModel;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::fmt::Debug;

/// `1e300` as the codec prints it: every digit, then `.0`.
fn e300() -> String {
    format!("1{}.0", "0".repeat(300))
}

/// An object exercising floats, escapes, non-ASCII text and a `u64`
/// above `i64::MAX`.
fn tricky_object() -> Value {
    serde_json::json!({
        "url": "img7.jpg",
        "floats": [0.23, 1e16, 1e300, -0.0],
        "text": "quote\" newline\n tab\t ctl\u{1} backslash\\",
        "unicode": "café — 😀",
        "big": 18_446_744_073_709_551_615u64,
        "neg": -42,
        "_sim": {"kind": "label", "truth": 1, "labels": ["Yes", "No"], "difficulty": 0.23},
    })
}

fn task() -> Task {
    let object = tricky_object();
    Task {
        id: 9_223_372_036_854_775_808,
        project_id: 3,
        payload: Presenter::image_label("Is this a cat?", &["Yes", "No"]).render(&object),
        n_assignments: 3,
        published_at: 1_234,
        status: TaskStatus::Open,
    }
}

fn run(worker_id: u64, answer: &str, at: u64) -> TaskRun {
    TaskRun {
        task_id: 17,
        worker_id,
        answer: serde_json::json!(answer),
        assigned_at: at,
        submitted_at: at + 950,
    }
}

fn runs() -> Vec<TaskRun> {
    vec![run(4, "Yes", 10), run(2, "No", 20), run(9, "Yes", 35)]
}

/// Asserts `value` encodes to `expected`, and that `expected` decodes to
/// `value` and re-encodes to itself.
fn pin<T: Serialize + DeserializeOwned + PartialEq + Debug>(value: &T, expected: &str) {
    let encoded = serde_json::to_string(value).unwrap();
    assert_eq!(encoded, expected, "encoded bytes drifted");
    let back: T = serde_json::from_str(expected).unwrap();
    assert_eq!(&back, value, "pinned bytes decode to a different value");
    assert_eq!(serde_json::to_vec(&back).unwrap(), expected.as_bytes(), "re-encode drifted");
}

#[test]
fn stored_task_bytes() {
    let cell = StoredTask { task: task(), object: tricky_object(), n_assignments: 3 };
    let e = e300();
    let object = format!(
        r#"{{"_sim":{{"difficulty":0.23,"kind":"label","labels":["Yes","No"],"truth":1}},"big":18446744073709551615,"floats":[0.23,10000000000000000.0,{e},-0.0],"neg":-42,"text":"quote\" newline\n tab\t ctl\u0001 backslash\\","unicode":"café — 😀","url":"img7.jpg"}}"#
    );
    let expected = format!(
        r#"{{"n_assignments":3,"object":{object},"task":{{"id":9223372036854775808,"n_assignments":3,"payload":{{"_sim":{{"difficulty":0.23,"kind":"label","labels":["Yes","No"],"truth":1}},"object":{object},"ui":{{"kind":{{"kind":"single_choice","labels":["Yes","No"]}},"presenter":"image_label","question":"Is this a cat?"}}}},"project_id":3,"published_at":1234,"status":"Open"}}}}"#
    );
    pin(&cell, &expected);
}

/// The header reader over the cell `stored_task_bytes` pins gets its id
/// (above `i64::MAX`) and redundancy, and keeps the bytes as they are.
#[test]
fn task_cell_header_of_the_pinned_cell() {
    let cell = StoredTask { task: task(), object: tricky_object(), n_assignments: 3 };
    let bytes = serde_json::to_vec(&cell).unwrap();
    let read = TaskCell::from_bytes(bytes.clone()).unwrap();
    assert_eq!((read.id(), read.n_assignments()), (9_223_372_036_854_775_808, 3));
    assert_eq!(read.bytes(), &bytes[..]);
    assert_eq!(read.decode().unwrap(), cell);
}

#[test]
fn stored_result_bytes() {
    pin(
        &StoredResult { runs: runs() },
        r#"{"runs":[{"answer":"Yes","assigned_at":10,"submitted_at":960,"task_id":17,"worker_id":4},{"answer":"No","assigned_at":20,"submitted_at":970,"task_id":17,"worker_id":2},{"answer":"Yes","assigned_at":35,"submitted_at":985,"task_id":17,"worker_id":9}]}"#,
    );
}

#[test]
fn manifest_bytes() {
    pin(
        &Manifest::new("fig2"),
        r#"{"n_assignments":null,"name":"fig2","presenter_fingerprint":null,"project_id":null,"version":1}"#,
    );
    let mut full = Manifest::new("fig2");
    full.presenter_fingerprint = Some("00ff".into());
    full.project_id = Some(7);
    full.n_assignments = Some(3);
    pin(
        &full,
        r#"{"n_assignments":3,"name":"fig2","presenter_fingerprint":"00ff","project_id":7,"version":1}"#,
    );
}

#[test]
fn lineage_record_bytes() {
    let lineage = CellLineage {
        experiment: "fig2".into(),
        row: 4,
        row_hash: "3ce5a0c4c2bd4c69".into(),
        object: serde_json::json!({"url": "img4.jpg"}),
        column: "mv".into(),
        derivation: Derivation::Aggregated {
            method: "mv".into(),
            inputs: runs(),
            output: serde_json::json!("Yes"),
        },
    };
    pin(
        &lineage,
        r#"{"column":"mv","derivation":{"inputs":[{"answer":"Yes","assigned_at":10,"submitted_at":960,"task_id":17,"worker_id":4},{"answer":"No","assigned_at":20,"submitted_at":970,"task_id":17,"worker_id":2},{"answer":"Yes","assigned_at":35,"submitted_at":985,"task_id":17,"worker_id":9}],"kind":"aggregated","method":"mv","output":"Yes"},"experiment":"fig2","object":{"url":"img4.jpg"},"row":4,"row_hash":"3ce5a0c4c2bd4c69"}"#,
    );
    pin(&Derivation::Source, r#"{"kind":"source"}"#);
    pin(
        &Derivation::Mapped { column: "upper".into(), output: serde_json::json!(["A", 1.5]) },
        r#"{"column":"upper","kind":"mapped","output":["A",1.5]}"#,
    );
}

#[test]
fn answer_model_bytes() {
    pin(
        &AnswerModel::Label { truth: 1, labels: vec!["Yes".into(), "No".into()], difficulty: 0.23 },
        r#"{"difficulty":0.23,"kind":"label","labels":["Yes","No"],"truth":1}"#,
    );
    pin(
        &AnswerModel::Match { is_match: true, ambiguity: 0.05 },
        r#"{"ambiguity":0.05,"is_match":true,"kind":"match"}"#,
    );
    pin(
        &AnswerModel::Fixed { value: serde_json::json!({"b": null, "a": [true]}) },
        r#"{"kind":"fixed","value":{"a":[true],"b":null}}"#,
    );
}

#[test]
fn presenter_fingerprints() {
    let cases = [
        (Presenter::image_label("Is this a cat?", &["Yes", "No"]), "8a73e947a64ac0a5"),
        (Presenter::pair_compare("Which is larger?"), "cd2e09febd7a7ecd"),
        (Presenter::match_pair("Same entity?"), "3342e7f74611ffbc"),
        (Presenter::free_text("Describe it"), "fb8155a28842d3ae"),
    ];
    for (presenter, expected) in cases {
        assert_eq!(presenter.fingerprint(), expected, "{presenter:?}");
    }
}

#[test]
fn pinned_object_hashes() {
    let cases = [
        (serde_json::json!({"url": "img1.jpg"}), 0x2173_0551_9295_55f3),
        (tricky_object(), 0x9e73_2aa1_1a08_0b3a),
        (serde_json::json!([null, false, -1, 2.5, "x", {}]), 0x3962_f0c1_16a8_f20e),
    ];
    for (object, expected) in cases {
        assert_eq!(hash_value(&object), expected, "{object}");
        assert_eq!(expected, fnv1a(serde_json::to_string(&object).unwrap().as_bytes()));
    }
}
