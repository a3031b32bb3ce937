//! Verification layer: differential oracle, deterministic fuzzing and
//! gradient checking.
//!
//! ValueNet's headline metric is Execution Accuracy, so the whole chain
//! SemQL 2.0 → actions → SQL → execution is only as trustworthy as its
//! weakest link. This crate actively hunts divergences in that chain:
//!
//! * [`schema_gen`] samples random schemas — tables, foreign-key trees,
//!   typed columns — and populates them with rows (including NULLs, floats
//!   and dangling foreign keys), generalising the single hard-coded `pets`
//!   schema of the integration property tests.
//! * [`tree_gen`] samples grammar-valid SemQL 2.0 trees over a generated
//!   schema, together with the resolved values their `V` pointers need.
//! * [`oracle`] is a naive reference SQL interpreter (straight nested
//!   loops, no indexes, no caches) executed side by side with
//!   `valuenet-exec`; results are compared under the paper's Execution
//!   Accuracy semantics ([`valuenet_exec::ResultSet::result_eq`]).
//! * [`gradcheck`] sweeps analytic gradients of `valuenet-nn` modules
//!   against central finite differences.
//! * [`fuzz`] ties the generators and the oracle into deterministic seed
//!   streams with bit-identical `--replay`, and [`shrink`] greedily
//!   minimises failing cases before they are reported.
//! * [`kernel_fuzz`] checks the packed inference matmul against the scalar
//!   blocked matmul, bit for bit, at every SIMD level the host supports.
//! * [`lookup_fuzz`] checks the inverted index's blocked similarity search
//!   against a scan with no blocking, and the executor's LIKE matcher
//!   against the oracle's recursive one, on seeded random strings.
//! * [`serve_fault`] turns the same seed-stream discipline on the serving
//!   engine: seeded worker panics, stage stalls, overload bursts and
//!   malformed protocol frames against a live `valuenet-serve` socket,
//!   asserting recovery, quarantine, zero worker leaks and bit-identical
//!   responses versus the single-process pipeline.
//!
//! The `vn-fuzz` binary is a thin CLI over [`fuzz::run_fuzz`] (and, with
//! `--serve N`, over [`serve_fault::run_serve_fuzz`]; with `--kernel N`,
//! over [`kernel_fuzz::run_kernel_fuzz`]; with `--lookup N`, over
//! [`lookup_fuzz::run_lookup_fuzz`]).

pub mod fuzz;
pub mod gradcheck;
pub mod kernel_fuzz;
pub mod lookup_fuzz;
pub mod oracle;
pub mod schema_gen;
pub mod serve_fault;
pub mod shrink;
pub mod tree_gen;

pub use fuzz::{case_seed, run_case, run_fuzz, CaseOutcome, FuzzConfig, FuzzReport};
pub use serve_fault::{
    run_serve_case, run_serve_fuzz, ServeFixture, ServeFuzzConfig, ServeFuzzReport,
};
pub use gradcheck::{grad_check, GradCheckConfig, GradReport};
pub use kernel_fuzz::{run_kernel_case, run_kernel_fuzz, KernelFuzzReport};
pub use lookup_fuzz::{gen_lookup_case, reference_find_similar, run_lookup_fuzz};
pub use oracle::{reference_execute, reference_like_match, OracleError};
pub use schema_gen::gen_database;
pub use shrink::{shrink_case, Case};
pub use tree_gen::gen_semql;
