//! `valuenet-serve` — a fault-tolerant NL-to-SQL serving engine.
//!
//! ValueNet's pipeline (ICDE 2021) is built and evaluated as a batch
//! system; this crate turns a loaded [`Pipeline`](valuenet_core::Pipeline)
//! into a long-lived service with the failure behaviour a production
//! deployment needs:
//!
//! * **Admission control** ([`admission`]) — a bounded queue that *sheds*
//!   excess load with a typed `overload` rejection instead of stalling
//!   every client behind an unbounded backlog.
//! * **Per-request deadlines** — enforced when a request is dequeued and
//!   again at every pipeline stage boundary (preprocess → value lookup →
//!   encode/decode → post-process → execute), so an expired request stops
//!   consuming compute mid-flight.
//! * **Panic isolation** ([`engine`]) — a worker runs one request per
//!   attempt, the whole pipeline under one `catch_unwind`; a panicking
//!   worker is replaced and the request is requeued once, after a fixed
//!   10 ms backoff, for a degraded retry on a fresh inference tape (no
//!   recycled tape, no packed weights). A request that kills a second
//!   worker is *quarantined* — one poisoned input cannot take the pool
//!   down.
//! * **A line-delimited JSON protocol** ([`protocol`], [`server`]) over a
//!   Unix domain socket, with a closed error taxonomy and a `stats` verb
//!   exposing queue depth, panic counters, one rejection counter per error
//!   kind and per-stage latency percentiles. Malformed frames are answered,
//!   not fatal, and a frame is bounded in bytes, so no client can make the
//!   server buffer without limit.
//! * **Deterministic fault injection** ([`fault`]) — requests may carry a
//!   [`FaultSpec`] (panic at stage N times / delay a stage) when the
//!   server opts in, which is how `vn-fuzz --serve` replays seeded fault
//!   scenarios bit-for-bit.
//!
//! The JSON layer is `valuenet-obs`'s own writer/parser; the whole crate
//! sticks to `std` — no new dependencies.

pub mod admission;
pub mod engine;
pub mod fault;
pub mod protocol;
pub mod server;

pub use admission::{AdmissionPolicy, Deadline};
pub use engine::{Engine, EngineStats, ServeConfig, TranslateJob};
pub use fault::FaultSpec;
pub use protocol::{ErrorKind, Request, Response, ServeError, TraceSummary, Translated};
pub use server::{serve_unix, translate_frame, verb_frame, Client, MAX_FRAME_BYTES};
