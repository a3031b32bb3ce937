//! The assembled ValueNet model: encoder + decoder + parameters.

use crate::decoder::Decoder;
use crate::encoder::{Encoder, Encodings};
use crate::input::{InputOptions, ModelInput};
use crate::vocab::Vocab;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use valuenet_nn::{read_checkpoint, write_checkpoint, Checkpoint, CheckpointError, ParamStore};
use valuenet_obs::json::Json;
use valuenet_semql::Action;
use valuenet_tensor::{Graph, Var};

/// Model hyper-parameters. The defaults are laptop-scale versions of the
/// paper's setup (the paper uses BERT-Base with 300-dimensional LSTM
/// summarisers; we train from scratch, so smaller is both sufficient and
/// necessary for CPU training).
#[derive(Debug, Clone)]
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
    /// The config as the model file's `config` field.
    pub fn to_json(&self) -> Json {
        let n = |v: usize| Json::uint(v as u64);
        Json::obj(vec![
            ("d_model", n(self.d_model)),
            ("summary_hidden", n(self.summary_hidden)),
            ("heads", n(self.heads)),
            ("encoder_layers", n(self.encoder_layers)),
            ("ffn_inner", n(self.ffn_inner)),
            ("action_dim", n(self.action_dim)),
            ("decoder_hidden", n(self.decoder_hidden)),
            ("dropout", Json::Num(self.dropout as f64)),
            ("max_decode_steps", n(self.max_decode_steps)),
            ("beam_width", n(self.beam_width)),
            ("use_hints", Json::Bool(self.use_hints)),
            ("encode_value_location", Json::Bool(self.encode_value_location)),
        ])
    }

    /// Reads the fields [`ModelConfig::to_json`] writes; each one is
    /// required.
    ///
    /// # Errors
    /// Names the first missing or ill-typed field, or a head count that does
    /// not divide `d_model` (the attention layers could not be built).
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let flag = |key| v.field(key, "a boolean", Json::as_bool);
        let config = ModelConfig {
            d_model: v.usize_field("d_model")?,
            summary_hidden: v.usize_field("summary_hidden")?,
            heads: v.usize_field("heads")?,
            encoder_layers: v.usize_field("encoder_layers")?,
            ffn_inner: v.usize_field("ffn_inner")?,
            action_dim: v.usize_field("action_dim")?,
            decoder_hidden: v.usize_field("decoder_hidden")?,
            dropout: v.field("dropout", "a number", Json::as_f64)? as f32,
            max_decode_steps: v.usize_field("max_decode_steps")?,
            beam_width: v.usize_field("beam_width")?,
            use_hints: flag("use_hints")?,
            encode_value_location: flag("encode_value_location")?,
        };
        if config.heads == 0 || !config.d_model.is_multiple_of(config.heads) {
            return Err(format!(
                "`d_model` {} is not divisible by `heads` {}",
                config.d_model, config.heads
            ));
        }
        Ok(config)
    }

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

thread_local! {
    /// When set, inference runs on a fresh tape with dense weights (no
    /// packed panels, no recycled tape) — see
    /// [`ValueNetModel::with_tape_fallback`].
    static FRESH_TAPE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
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

    /// Runs `f` with this thread's inference on a fresh tape:
    /// [`ValueNetModel::predict`] / [`ValueNetModel::predict_beam`] inside
    /// `f` use a new non-inference tape with dense weights
    /// ([`Graph::set_dense_weights`]) instead of the recycled one, and so
    /// bypass the packed panels. Kernels still dispatch at
    /// `simd::level()`. This is the serving engine's degraded retry: a
    /// request whose attempt killed a worker runs once more on this path
    /// before it is quarantined. The flag is restored even if `f` unwinds.
    pub fn with_tape_fallback<R>(f: impl FnOnce() -> R) -> R {
        struct Restore(bool);
        impl Drop for Restore {
            fn drop(&mut self) {
                FRESH_TAPE.with(|c| c.set(self.0));
            }
        }
        let _restore = FRESH_TAPE.with(|c| Restore(c.replace(true)));
        f()
    }

    /// Runs `f` on a thread-local recycled tape (capacity and, through the
    /// buffer pool, every tensor from the previous query survive). Under
    /// [`ValueNetModel::with_tape_fallback`] it runs on a fresh
    /// non-inference tape with dense weights instead, bypassing the packed
    /// panels.
    fn with_inference_tape<R>(f: impl FnOnce(&mut Graph) -> R) -> R {
        if !FRESH_TAPE.with(std::cell::Cell::get) {
            thread_local! {
                static TAPE: std::cell::RefCell<Graph> = std::cell::RefCell::new(Graph::new());
            }
            TAPE.with(|tape| {
                let mut g = tape.borrow_mut();
                g.reset();
                // Inference tape: weights come as `W` panels alone and no
                // use records a gradient node.
                g.set_inference(true);
                f(&mut g)
            })
        } else {
            let mut g = Graph::new();
            g.set_dense_weights(true);
            f(&mut g)
        }
    }

    /// Grammar-constrained prediction at beam `width` (at least 1; `1` =
    /// greedy): encodes `input` and decodes it through [`Decoder::decode`]
    /// on this thread's inference tape. Returns up to `width` completed
    /// action sequences, best first, with their summed log-probabilities.
    fn decode(&self, input: &ModelInput, width: usize) -> Vec<(Vec<Action>, f32)> {
        Self::with_inference_tape(|g| {
            let enc = self.encode(g, input, None);
            self.decoder.decode(g, &self.params, &enc, self.config.max_decode_steps, width)
        })
    }

    /// Greedy grammar-constrained prediction (beam width 1).
    ///
    /// # Errors
    /// When the derivation does not complete within `max_decode_steps`.
    pub fn predict(&self, input: &ModelInput) -> Result<Vec<Action>, String> {
        let best = self.decode(input, 1).pop();
        best.map(|(actions, _)| actions).ok_or_else(|| {
            format!("decoding did not complete within {} steps", self.config.max_decode_steps)
        })
    }

    /// Beam-search prediction at `config.beam_width`: up to that many
    /// completed action sequences, best first, with their summed
    /// log-probabilities.
    pub fn predict_beam(&self, input: &ModelInput) -> Vec<(Vec<Action>, f32)> {
        self.decode(input, self.config.beam_width.max(1))
    }

    /// Beam-search prediction through the per-hypothesis reference decoder
    /// ([`Decoder::decode_beam_unbatched`]) on a fresh inference tape.
    /// Bit-identical to [`ValueNetModel::predict_beam`]; kept as the
    /// differential oracle.
    pub fn predict_beam_unbatched(&self, input: &ModelInput) -> Vec<(Vec<Action>, f32)> {
        let mut g = Graph::new();
        g.set_inference(true);
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

    /// The model file: checkpoint text whose meta record carries the
    /// `config` and `vocab` fields and then `extra`.
    ///
    /// # Errors
    /// [`CheckpointError::NonFinite`] when a weight is NaN or infinite.
    pub fn to_checkpoint(&self, extra: Vec<(&str, Json)>) -> Result<String, CheckpointError> {
        let mut meta = vec![("config", self.config.to_json()), ("vocab", self.vocab.to_json())];
        meta.extend(extra);
        write_checkpoint(&self.params, meta)
    }

    /// Rebuilds the model a checkpoint describes: its `config` and `vocab`
    /// meta fields fix the architecture, and [`ValueNetModel::load_params`]
    /// checks the weights against it.
    ///
    /// # Errors
    /// [`CheckpointError::Corrupt`] for a missing or malformed field,
    /// [`CheckpointError::Mismatch`] for weights of another architecture.
    pub fn from_checkpoint(ck: Checkpoint) -> Result<Self, CheckpointError> {
        let config = ck.meta_field("config", ModelConfig::from_json)?;
        let vocab = ck.meta_field("vocab", Vocab::from_json)?;
        let mut model = ValueNetModel::new(config, vocab, 0);
        model.load_params(ck.params).map_err(CheckpointError::Mismatch)?;
        Ok(model)
    }

    /// The model file with no extra fields (see
    /// [`ValueNetModel::to_checkpoint`]).
    ///
    /// # Panics
    /// When a weight is NaN or infinite; such a model cannot be saved.
    pub fn to_json(&self) -> String {
        self.to_checkpoint(Vec::new()).unwrap_or_else(|e| panic!("model cannot be saved: {e}"))
    }

    /// Restores a model from model-file text (see
    /// [`ValueNetModel::from_checkpoint`]).
    pub fn from_json(text: &str) -> Result<Self, CheckpointError> {
        Self::from_checkpoint(read_checkpoint(text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_model() -> ValueNetModel {
        let vocab = Vocab::build(["how many pets are there"].into_iter());
        ValueNetModel::new(ModelConfig::tiny(), vocab, 5)
    }

    #[test]
    fn model_file_reloads_bit_identically_and_resaves_byte_identically() {
        let m = tiny_model();
        let text = m.to_json();
        let back = ValueNetModel::from_json(&text).unwrap();
        assert_eq!(back.config.to_json(), m.config.to_json());
        assert_eq!(back.vocab.to_json(), m.vocab.to_json());
        let bits = |ps: &ParamStore| -> Vec<u32> {
            ps.ids().flat_map(|id| ps.data(id)).map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&back.params), bits(&m.params), "weights changed on reload");
        assert_eq!(back.to_json(), text, "the reloaded model saves different bytes");
    }

    #[test]
    fn malformed_model_files_are_typed_errors_not_panics() {
        let m = tiny_model();
        let text = m.to_json();
        let load = |from: &str, to: &str| {
            let bad = text.replacen(from, to, 1);
            assert_ne!(bad, text, "{from} is not in the model file");
            match ValueNetModel::from_json(&bad) {
                Err(e) => e,
                Ok(_) => panic!("{from} -> {to}: the model loaded"),
            }
        };
        for (from, to, field) in [
            ("\"d_model\":32,", "", "d_model"),
            ("\"use_hints\":true", "\"use_hints\":\"yes\"", "use_hints"),
            ("\"d_model\":32,", "\"d_model\":32.5,", "d_model"),
            ("\"beam_width\":1", "\"beam_width\":-1", "beam_width"),
            ("\"heads\":2,", "\"heads\":3,", "heads"),
            ("\"vocab\":[\"<unk>\"", "\"vocab\":[7", "vocab"),
        ] {
            match load(from, to) {
                CheckpointError::Corrupt(msg) => assert!(msg.contains(field), "{to}: {msg}"),
                e => panic!("{from} -> {to}: expected Corrupt, got {e:?}"),
            }
        }
        let first = m.params.name(m.params.ids().next().unwrap());
        for (from, to) in [
            ("\"encoder_layers\":1", "\"encoder_layers\":2".to_string()),
            (&format!("\"name\":\"{first}\""), format!("\"name\":\"{first}_renamed\"")),
            ("\"decoder_hidden\":48", "\"decoder_hidden\":40".to_string()),
        ] {
            match load(from, &to) {
                CheckpointError::Mismatch(_) => {}
                e => panic!("{from} -> {to}: expected Mismatch, got {e:?}"),
            }
        }
    }
}
