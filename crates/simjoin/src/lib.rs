//! # reprowd-simjoin
//!
//! String-similarity functions and a prefix-filter similarity join.
//!
//! CrowdER (Wang et al., PVLDB 2012) — one of the two crowdsourced join
//! algorithms the Reprowd paper re-implements — is a *hybrid* human/machine
//! algorithm: a cheap machine pass prunes the `O(n²)` pair space down to the
//! pairs whose similarity clears a threshold, and only those survivors are
//! sent to the crowd. This crate is that machine pass, built from scratch:
//!
//! * [`tokenize`] — normalization and word tokens.
//! * [`similarity`] — Jaccard, Dice, cosine, and overlap.
//! * [`prefix`] — the filters: prefix filtering with a global
//!   rare-token-first order, PPJoin's positional filter and suffix bound,
//!   over one flat token arena and a per-length table of required overlaps.
//! * [`join`] — the self-join, one lazy stream ([`self_join_stream`]) over
//!   a dense, count-based prefix index that [`self_join`] collects and
//!   sorts (there is no R×S join), plus a brute-force oracle proving the
//!   filters lose no true match.
//!
//! ```
//! use reprowd_simjoin::join::{self_join, JoinConfig};
//! use reprowd_simjoin::similarity::SetSimilarity;
//!
//! let records = vec![
//!     "iphone 6s plus 64gb".to_string(),
//!     "apple iphone 6s plus 64 gb".to_string(),
//!     "galaxy s7 edge".to_string(),
//! ];
//! let pairs = self_join(&records, &JoinConfig::new(SetSimilarity::Jaccard, 0.4));
//! assert_eq!(pairs.len(), 1);
//! assert_eq!((pairs[0].left, pairs[0].right), (0, 1));
//! ```

pub mod join;
pub mod prefix;
pub mod similarity;
pub mod tokenize;

pub use join::{self_join, self_join_stream, JoinConfig, SelfJoinStream, SimPair};
pub use similarity::SetSimilarity;
