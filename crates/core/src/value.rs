//! Cell values and canonical encoding.
//!
//! CrowdData cells hold JSON values (`serde_json::Value`): the database file
//! a researcher ships must be self-describing, and JSON is what the
//! original system stored in SQLite. The codec writes every object with its
//! keys in ascending order — a `Value`'s map keeps its entries sorted by
//! key in one vector, and derived structs sort their fields at compile
//! time — so equal values encode to one *canonical* byte string, which is
//! what makes content-hashed cache keys stable across runs and machines.

/// The cell/object type of CrowdData tables.
pub type Value = serde_json::Value;

/// Builds a [`Value`] literal (re-export of `serde_json::json!` under a
/// domain name, used throughout examples and the paper's Figure 2 port).
#[macro_export]
macro_rules! val {
    ($($t:tt)*) => {
        ::serde_json::json!($($t)*)
    };
}

/// Canonical string encoding of a value: sorted object keys, no
/// whitespace, floats always with a `.` or exponent, strings escaping only
/// `"`, `\` and control characters. Equal values encode equally. These are
/// the bytes stored cells hold and [`hash_value`](crate::hash::hash_value)
/// hashes (it streams them through FNV-1a without building this string),
/// so they must never change.
pub fn canonical(value: &Value) -> String {
    serde_json::to_string(value).expect("serde_json::Value serialization is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_sorts_object_keys() {
        let a: Value = serde_json::from_str(r#"{"b":1,"a":2}"#).unwrap();
        let b: Value = serde_json::from_str(r#"{"a":2,"b":1}"#).unwrap();
        assert_eq!(canonical(&a), canonical(&b));
        assert_eq!(canonical(&a), r#"{"a":2,"b":1}"#);
    }

    #[test]
    fn canonical_distinguishes_values() {
        assert_ne!(canonical(&val!(1)), canonical(&val!("1")));
        assert_ne!(canonical(&val!([1, 2])), canonical(&val!([2, 1])));
        assert_ne!(canonical(&val!(null)), canonical(&val!(0)));
    }

    #[test]
    fn val_macro_builds_values() {
        let v = val!({"url": "img1.jpg", "n": 3});
        assert_eq!(v["url"], "img1.jpg");
        assert_eq!(v["n"], 3);
        assert_eq!(val!("x"), Value::String("x".into()));
    }
}
