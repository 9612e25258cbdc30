//! Crowdsourced join algorithms — the two the paper re-implemented.

pub mod crowder;
pub mod transitive;

use reprowd_core::error::{Error, Result};
use reprowd_core::value::Value;

/// The question both joins pose for every pair they send to the crowd.
pub(crate) const MATCH_QUESTION: &str = "Do these two records refer to the same entity?";

/// Recovers the `(i, j)` indices a [`pair_object`] was built from — how
/// streaming operators map a collected row back to its pair without
/// keeping a side table of in-flight pairs.
pub(crate) fn pair_from_object(object: &Value) -> Result<(usize, usize)> {
    let at = |k: usize| {
        object["pair"][k]
            .as_u64()
            .map(|v| v as usize)
            .ok_or_else(|| Error::State("pair object lost its indices".into()))
    };
    Ok((at(0)?, at(1)?))
}

/// Builds the pair object sent to the crowd for records `i` and `j`,
/// applying the caller's `decorate` hook (the simulation seam).
pub(crate) fn pair_object(
    left_idx: usize,
    right_idx: usize,
    left: &str,
    right: &str,
    decorate: &impl Fn(usize, usize, &mut Value),
) -> Value {
    let mut obj = serde_json::json!({
        "left": left,
        "right": right,
        "pair": [left_idx, right_idx],
    });
    decorate(left_idx, right_idx, &mut obj);
    obj
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_object_carries_indices_and_decoration() {
        let obj = pair_object(3, 7, "rec a", "rec b", &|l, r, o| {
            o["_sim"] = serde_json::json!({"l": l, "r": r});
        });
        assert_eq!(obj["pair"][0], 3);
        assert_eq!(obj["pair"][1], 7);
        assert_eq!(obj["left"], "rec a");
        assert_eq!(obj["_sim"]["l"], 3);
    }
}
