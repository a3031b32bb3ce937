//! The assembled ValueNet model: encoder + decoder + parameters.

use crate::decoder::Decoder;
use crate::encoder::{Encoder, Encodings};
use crate::input::{InputOptions, ModelInput};
use crate::vocab::Vocab;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use valuenet_nn::ParamStore;
use valuenet_semql::Action;
use valuenet_tensor::{Graph, Var};

/// Model hyper-parameters. The defaults are laptop-scale versions of the
/// paper's setup (the paper uses BERT-Base with 300-dimensional LSTM
/// summarisers; we train from scratch, so smaller is both sufficient and
/// necessary for CPU training).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Shared model dimension.
    pub d_model: usize,
    /// Hidden size of the Bi-LSTM item summariser (output is twice this).
    pub summary_hidden: usize,
    /// Attention heads per transformer block.
    pub heads: usize,
    /// Number of transformer blocks.
    pub encoder_layers: usize,
    /// Transformer feed-forward inner size.
    pub ffn_inner: usize,
    /// Action-embedding dimension.
    pub action_dim: usize,
    /// Decoder LSTM hidden size.
    pub decoder_hidden: usize,
    /// Dropout probability (question embeddings, training only).
    pub dropout: f32,
    /// Decoding step budget.
    pub max_decode_steps: usize,
    /// Beam width for decoding (`1` = greedy). With a width above one the
    /// pipeline performs execution-guided selection: the best-scoring
    /// hypothesis whose SQL actually executes wins.
    pub beam_width: usize,
    /// Feed question/schema hints to the encoder (ablation knob).
    pub use_hints: bool,
    /// Encode value candidates with their table/column location (Fig. 8;
    /// ablation knob).
    pub encode_value_location: bool,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            d_model: 64,
            summary_hidden: 32,
            heads: 4,
            encoder_layers: 2,
            ffn_inner: 128,
            action_dim: 48,
            decoder_hidden: 128,
            dropout: 0.1,
            max_decode_steps: 80,
            beam_width: 1,
            use_hints: true,
            encode_value_location: true,
        }
    }
}

impl ModelConfig {
    /// An even smaller configuration for fast unit tests.
    pub fn tiny() -> Self {
        ModelConfig {
            d_model: 32,
            summary_hidden: 16,
            heads: 2,
            encoder_layers: 1,
            ffn_inner: 48,
            action_dim: 24,
            decoder_hidden: 48,
            dropout: 0.0,
            max_decode_steps: 80,
            beam_width: 1,
            use_hints: true,
            encode_value_location: true,
        }
    }
}

/// Serialised model (config + vocabulary + weights).
#[derive(Serialize, Deserialize)]
struct SavedModel {
    config: ModelConfig,
    vocab: Vocab,
    params: String,
}

thread_local! {
    /// When set, inference runs on a fresh scalar tape (no packed weights,
    /// no int8, no recycled tape) — see [`ValueNetModel::with_scalar_fallback`].
    static FORCE_SCALAR: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The complete ValueNet neural model.
pub struct ValueNetModel {
    /// Hyper-parameters.
    pub config: ModelConfig,
    /// Word vocabulary.
    pub vocab: Vocab,
    /// All trainable weights.
    pub params: ParamStore,
    encoder: Encoder,
    decoder: Decoder,
}

impl ValueNetModel {
    /// Builds a freshly initialised model.
    pub fn new(config: ModelConfig, vocab: Vocab, seed: u64) -> Self {
        let mut ps = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(seed);
        let encoder = Encoder::new(&mut ps, &mut rng, &config, vocab.len());
        let decoder = Decoder::new(&mut ps, &mut rng, &config);
        ValueNetModel { config, vocab, params: ps, encoder, decoder }
    }

    /// Number of scalar weights.
    pub fn num_weights(&self) -> usize {
        self.params.num_weights()
    }

    /// The input-construction options implied by this configuration.
    pub fn input_options(&self) -> InputOptions {
        InputOptions {
            use_hints: self.config.use_hints,
            encode_value_location: self.config.encode_value_location,
        }
    }

    /// Encodes an input (training mode when `dropout_rng` is provided).
    pub fn encode(
        &self,
        g: &mut Graph,
        input: &ModelInput,
        dropout_rng: Option<&mut SmallRng>,
    ) -> Encodings {
        let _span = valuenet_obs::span("model.encode");
        self.encoder.forward(g, &self.params, input, self.config.dropout, dropout_rng)
    }

    /// Teacher-forced loss of one sample; returns the graph's loss node.
    pub fn loss(
        &self,
        g: &mut Graph,
        input: &ModelInput,
        gold_actions: &[Action],
        dropout_rng: Option<&mut SmallRng>,
    ) -> Var {
        let enc = self.encode(g, input, dropout_rng);
        self.decoder.loss(g, &self.params, &enc, gold_actions)
    }

    /// Runs `f` with this thread forced onto the scalar tape path:
    /// [`ValueNetModel::predict`] / [`ValueNetModel::predict_beam`] inside
    /// `f` use a fresh non-inference tape, bypassing the packed-weight and
    /// int8 caches entirely. This is the serving engine's degradation
    /// ladder — when a packed/quantized kernel panics, the request is
    /// retried once on this path before failing. The flag is restored even
    /// if `f` unwinds.
    pub fn with_scalar_fallback<R>(f: impl FnOnce() -> R) -> R {
        struct Restore(bool);
        impl Drop for Restore {
            fn drop(&mut self) {
                FORCE_SCALAR.with(|c| c.set(self.0));
            }
        }
        let _restore = FORCE_SCALAR.with(|c| Restore(c.replace(true)));
        f()
    }

    /// Whether [`ValueNetModel::with_scalar_fallback`] is active on this
    /// thread.
    pub fn scalar_fallback_active() -> bool {
        FORCE_SCALAR.with(|c| c.get())
    }

    /// Runs `f` on a thread-local recycled tape (capacity and, through the
    /// buffer pool, every tensor from the previous query survive), or on a
    /// fresh tape when the execution rework is toggled off — the pre-rework
    /// behaviour the speed benchmark's baseline arm measures. Under
    /// [`ValueNetModel::with_scalar_fallback`] the recycled inference tape
    /// (and with it every packed/quantized fast path) is bypassed.
    fn with_inference_tape<R>(f: impl FnOnce(&mut Graph) -> R) -> R {
        if valuenet_tensor::fusion_enabled() && !Self::scalar_fallback_active() {
            thread_local! {
                static TAPE: std::cell::RefCell<Graph> = std::cell::RefCell::new(Graph::new());
            }
            TAPE.with(|tape| {
                let mut g = tape.borrow_mut();
                g.reset();
                // Inference tape: layers may evaluate parameter applications
                // off-tape against the packed-weight cache (bit-identical on
                // the f32 path; int8 when the store is set quantized).
                g.set_inference(true);
                f(&mut g)
            })
        } else {
            f(&mut Graph::new())
        }
    }

    /// Grammar-constrained prediction for a batch of inputs at beam `width`
    /// (at least 1; `1` = greedy): every input is encoded on one inference tape, then all
    /// of them decode together through [`Decoder::decode`], whose live
    /// hypotheses ride the same fused LSTM/attention/pointer kernels, one
    /// pass per search step. Returns, per input, up to `width` completed
    /// action sequences, best first, with their summed log-probabilities;
    /// each is bit-identical to predicting that input alone.
    pub fn predict_batch(
        &self,
        inputs: &[&ModelInput],
        width: usize,
    ) -> Vec<Vec<(Vec<Action>, f32)>> {
        Self::with_inference_tape(|g| {
            let encs: Vec<Encodings> =
                inputs.iter().map(|input| self.encode(g, input, None)).collect();
            self.decoder.decode(g, &self.params, &encs, self.config.max_decode_steps, width)
        })
    }

    /// Greedy grammar-constrained prediction: [`ValueNetModel::predict_batch`]
    /// at width 1 on a batch of one.
    ///
    /// # Errors
    /// When the derivation does not complete within `max_decode_steps`.
    pub fn predict(&self, input: &ModelInput) -> Result<Vec<Action>, String> {
        let best = self.predict_batch(&[input], 1).remove(0).pop();
        best.map(|(actions, _)| actions).ok_or_else(|| {
            format!("decoding did not complete within {} steps", self.config.max_decode_steps)
        })
    }

    /// Beam-search prediction: [`ValueNetModel::predict_batch`] at
    /// `config.beam_width` on a batch of one.
    pub fn predict_beam(&self, input: &ModelInput) -> Vec<(Vec<Action>, f32)> {
        self.predict_batch(&[input], self.config.beam_width.max(1)).remove(0)
    }

    /// Beam-search prediction through the per-hypothesis reference decoder
    /// ([`Decoder::decode_beam_unbatched`]). Bit-identical to
    /// [`ValueNetModel::predict_beam`]; kept as the differential oracle and
    /// the baseline arm of the speed benchmark.
    pub fn predict_beam_unbatched(&self, input: &ModelInput) -> Vec<(Vec<Action>, f32)> {
        let mut g = Graph::new();
        let enc = self.encode(&mut g, input, None);
        self.decoder.decode_beam_unbatched(
            &mut g,
            &self.params,
            &enc,
            self.config.max_decode_steps,
            self.config.beam_width.max(1),
        )
    }

    /// Replaces the model's weights with a store restored from a checkpoint,
    /// after checking that it matches this architecture parameter-for-
    /// parameter (count, names and shapes).
    ///
    /// # Errors
    /// Describes the first mismatch; the model is left unchanged.
    pub fn load_params(&mut self, params: ParamStore) -> Result<(), String> {
        if params.len() != self.params.len() {
            return Err(format!(
                "checkpoint has {} parameters, architecture expects {}",
                params.len(),
                self.params.len()
            ));
        }
        for (new, old) in params.ids().zip(self.params.ids()) {
            if params.name(new) != self.params.name(old) {
                return Err(format!(
                    "parameter {} is named `{}` in the checkpoint, `{}` in the architecture",
                    old.index(),
                    params.name(new),
                    self.params.name(old)
                ));
            }
            if params.shape(new) != self.params.shape(old) {
                return Err(format!(
                    "parameter `{}` has shape {:?} in the checkpoint, {:?} in the architecture",
                    params.name(new),
                    params.shape(new),
                    self.params.shape(old)
                ));
            }
        }
        self.params = params;
        Ok(())
    }

    /// Serialises config, vocabulary and weights to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(&SavedModel {
            config: self.config.clone(),
            vocab: self.vocab.clone(),
            params: self.params.to_json(),
        })
        .expect("model serialisation cannot fail")
    }

    /// Restores a model saved with [`ValueNetModel::to_json`].
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        let saved: SavedModel = serde_json::from_str(json)?;
        let mut model = ValueNetModel::new(saved.config, saved.vocab, 0);
        let params = ParamStore::from_json(&saved.params)?;
        assert_eq!(
            params.len(),
            model.params.len(),
            "saved parameter count does not match the architecture"
        );
        model.params = params;
        Ok(model)
    }
}
