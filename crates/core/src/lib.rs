//! The ValueNet neural model and end-to-end NL-to-SQL pipeline.
//!
//! This crate assembles the paper's architecture (Sections III and IV):
//!
//! 1. **Input building** ([`input`]): the question tokens with their hint
//!    classes, every schema column/table with its schema-hint class, and the
//!    value candidates *encoded together with their locations* (Fig. 8).
//! 2. **Encoder** ([`encoder`]): word + hint-type embeddings; each
//!    multi-token column/table/value summarised by a Bi-LSTM; the joint
//!    sequence contextualised by multi-head self-attention blocks — the
//!    from-scratch substitute for the paper's pretrained BERT (`DESIGN.md`).
//! 3. **Decoder** ([`decoder`]): an LSTM over SemQL actions with attention
//!    over the question and three pointer networks selecting columns,
//!    tables and value candidates; the output distribution is masked to the
//!    grammar-valid actions of the
//!    [`TransitionSystem`](valuenet_semql::TransitionSystem).
//! 4. **Training** ([`trainer`]): teacher-forced cross-entropy with Adam and
//!    the paper's three learning-rate groups (encoder / decoder /
//!    connection parameters).
//! 5. **Pipeline** ([`pipeline`]): pre-processing → encoding/decoding →
//!    SemQL-to-SQL post-processing → execution, instrumented per stage for
//!    the paper's Table II. Two operating modes: **ValueNet light** (gold
//!    value options provided) and **ValueNet** (candidates extracted,
//!    generated and validated from the database), plus the `NoValue`
//!    placeholder baseline the paper attributes to Exact-Match-era systems.

mod decoder;
mod encoder;
mod evaluate;
mod heuristic;
mod input;
mod model;
mod pipeline;
mod trainer;
mod vocab;

pub use decoder::Decoder;
pub use encoder::{Encoder, Encodings};
pub use evaluate::{evaluate, evaluate_with_threads, EvalStats, SampleEval};
pub use heuristic::HeuristicBaseline;
pub use input::{build_input, build_input_opts, InputOptions, ItemTokens, ModelInput};
pub use model::{ModelConfig, ValueNetModel};
pub use pipeline::{
    assemble_candidates, Pipeline, PipelineError, PreparedRequest, Prediction, Stage,
    StageTimings, ValueMode,
};
pub use trainer::{train, TrainConfig, TrainReport};
pub use vocab::Vocab;
