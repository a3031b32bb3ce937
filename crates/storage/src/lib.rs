//! In-memory database storage with an inverted index over the base data.
//!
//! The ValueNet architecture (paper Fig. 5) takes "access to the content of
//! the database, e.g. via an inverted index" as an input. This crate supplies
//! that substrate: row storage typed by a [`valuenet_schema::DbSchema`], plus
//! an [`InvertedIndex`] supporting the three lookups the value-candidate
//! pipeline needs —
//!
//! 1. *exact* value lookup (candidate validation, Section IV-B3),
//! 2. *token* lookup (question/schema hints, Section III-A),
//! 3. *similarity* lookup via Damerau–Levenshtein distance (candidate
//!    generation, Section IV-B2).
//!
//! The similarity lookup blocks, as the paper's record-linkage sources do,
//! so that few values reach the distance computation. The index stores each
//! distinct value's lowercased characters once, with a 64-bit set of the
//! characters in it, in buckets keyed by that lowercased length. A query
//! visits only the buckets within its distance cap of its own lowercased
//! length, skips a value whose character set differs from its own in more
//! than twice the cap (one edit changes at most two bits), and computes the
//! distance of the rest with a Damerau–Levenshtein that stops once a whole
//! row exceeds the cap. [`damerau_levenshtein`] is the uncapped reference
//! the tests and `valuenet-verify` compare it with.

mod database;
mod datum;
mod distance;
mod index;

pub use database::Database;
pub use datum::Datum;
pub use distance::damerau_levenshtein;
pub use index::{like_match, InvertedIndex, SimilarValue, ValueLocation};
