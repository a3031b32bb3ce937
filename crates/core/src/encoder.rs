//! The joint encoder (paper Section III-B1 and Fig. 8).

use crate::input::{ModelInput, NUM_COLUMN_TYPES, NUM_QUESTION_HINTS, NUM_SCHEMA_HINTS};
use crate::model::ModelConfig;
use rand::rngs::SmallRng;
use valuenet_nn::{dropout_mask, BiLstm, Embedding, Linear, ParamStore, TransformerBlock};
use valuenet_tensor::{Graph, Var};

/// Parameter groups, mirroring the paper's three learning rates.
pub const GROUP_ENCODER: usize = 0;
/// Decoder parameters.
pub const GROUP_DECODER: usize = 1;
/// Connection parameters between encoder and decoder.
pub const GROUP_CONNECT: usize = 2;

/// Contextual encodings of one input.
pub struct Encodings {
    /// Question token encodings `[Tq, d]`.
    pub question: Var,
    /// Column encodings `[C, d]`.
    pub columns: Var,
    /// Table encodings `[T, d]`.
    pub tables: Var,
    /// Value-candidate encodings `[V, d]` (`None` when no candidates).
    pub values: Option<Var>,
    /// Mean-pooled question representation `[1, d]` (decoder init).
    pub pooled: Var,
}

/// The ValueNet encoder: word + hint embeddings, Bi-LSTM item summaries, and
/// a transformer stack over the joint question ⊕ schema ⊕ value sequence.
pub struct Encoder {
    word_emb: Embedding,
    qhint_emb: Embedding,
    shint_col_emb: Embedding,
    shint_tab_emb: Embedding,
    ctype_emb: Embedding,
    item_lstm: BiLstm,
    item_proj: Linear,
    blocks: Vec<TransformerBlock>,
    d: usize,
}

impl Encoder {
    /// Builds the encoder's parameters.
    pub fn new(ps: &mut ParamStore, rng: &mut SmallRng, cfg: &ModelConfig, vocab_size: usize) -> Self {
        let d = cfg.d_model;
        let word_emb = Embedding::new(ps, rng, "enc.word", GROUP_ENCODER, vocab_size, d);
        let qhint_emb =
            Embedding::new(ps, rng, "enc.qhint", GROUP_ENCODER, NUM_QUESTION_HINTS, d);
        let shint_col_emb =
            Embedding::new(ps, rng, "enc.shint_col", GROUP_ENCODER, NUM_SCHEMA_HINTS, d);
        let shint_tab_emb =
            Embedding::new(ps, rng, "enc.shint_tab", GROUP_ENCODER, NUM_SCHEMA_HINTS, d);
        let ctype_emb =
            Embedding::new(ps, rng, "enc.ctype", GROUP_ENCODER, NUM_COLUMN_TYPES, d);
        let item_lstm =
            BiLstm::new(ps, rng, "enc.item_lstm", GROUP_ENCODER, d, cfg.summary_hidden);
        let item_proj = Linear::new(
            ps,
            rng,
            "enc.item_proj",
            GROUP_CONNECT,
            2 * cfg.summary_hidden,
            d,
        );
        let blocks = (0..cfg.encoder_layers)
            .map(|i| {
                TransformerBlock::new(
                    ps,
                    rng,
                    &format!("enc.block{i}"),
                    GROUP_ENCODER,
                    d,
                    cfg.heads,
                    cfg.ffn_inner,
                )
            })
            .collect();
        Encoder {
            word_emb,
            qhint_emb,
            shint_col_emb,
            shint_tab_emb,
            ctype_emb,
            item_lstm,
            item_proj,
            blocks,
            d,
        }
    }

    /// Model dimensionality.
    pub fn dim(&self) -> usize {
        self.d
    }

    /// Summarises one multi-token item with the shared Bi-LSTM and projects
    /// it to the model dimension: the oracle [`Encoder::summarize_items`] is
    /// tested against.
    #[cfg(test)]
    fn summarize_item(
        &self,
        g: &mut Graph,
        ps: &ParamStore,
        word_ids: &[usize],
    ) -> Var {
        let embs = self.word_emb.forward(g, ps, word_ids);
        let summary = self.item_lstm.summarize(g, ps, embs);
        self.item_proj.forward(g, ps, summary)
    }

    /// Summarises every item in one length-bucketed batch per token count.
    ///
    /// All schema items (columns, tables, value candidates) share the same
    /// Bi-LSTM and projection, so instead of one tiny per-item LSTM run this
    /// stacks every item of equal token length into rows and drives them
    /// through [`BiLstm::summarize_steps`] — a handful of `[N, ·]` matmuls
    /// per step instead of hundreds of matvecs per sample. Row `i` of the
    /// result is bit-identical to `summarize_item(items[i])` (row-wise ops,
    /// per-row-independent kernels; pinned by the unit test below).
    fn summarize_items(&self, g: &mut Graph, ps: &ParamStore, items: &[&[usize]]) -> Vec<Var> {
        // Bucket item indices by token count; BTreeMap keeps bucket order
        // deterministic (ascending length).
        let mut buckets: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (i, ids) in items.iter().enumerate() {
            assert!(!ids.is_empty(), "summarize_items: empty item");
            buckets.entry(ids.len()).or_default().push(i);
        }
        let mut out: Vec<Option<Var>> = vec![None; items.len()];
        for (&t_len, members) in &buckets {
            // Step t of the batch gathers token t of every member item.
            let steps: Vec<Var> = (0..t_len)
                .map(|t| {
                    let ids: Vec<usize> = members.iter().map(|&i| items[i][t]).collect();
                    self.word_emb.forward(g, ps, &ids)
                })
                .collect();
            let summaries = self.item_lstm.summarize_steps(g, ps, &steps);
            let projected = self.item_proj.forward(g, ps, summaries);
            for (row, &i) in members.iter().enumerate() {
                out[i] = Some(g.slice_rows(projected, row, row + 1));
            }
        }
        out.into_iter().map(|v| v.expect("every item summarised")).collect()
    }

    /// Encodes one input. `dropout_rng` enables training-time dropout.
    pub fn forward(
        &self,
        g: &mut Graph,
        ps: &ParamStore,
        input: &ModelInput,
        dropout: f32,
        mut dropout_rng: Option<&mut SmallRng>,
    ) -> Encodings {
        // Question tokens: word + hint embeddings.
        let q_words = self.word_emb.forward(g, ps, &input.question_ids);
        let q_hints = self.qhint_emb.forward(g, ps, &input.question_hints);
        let mut question = g.add(q_words, q_hints);
        if let Some(rng) = dropout_rng.take() {
            if dropout > 0.0 {
                let mask = dropout_mask(rng, g.value(question).len(), dropout);
                question = g.dropout(question, mask);
            }
        }

        // Schema items: Bi-LSTM summaries + hint/type embeddings. Columns,
        // tables and value candidates all share the summariser, so they go
        // through one length-bucketed batch.
        let item_ids: Vec<&[usize]> = input
            .columns
            .iter()
            .chain(&input.tables)
            .chain(&input.values)
            .map(|item| item.word_ids.as_slice())
            .collect();
        let summaries = self.summarize_items(g, ps, &item_ids);
        let (col_sums, rest) = summaries.split_at(input.columns.len());
        let (tab_sums, value_rows) = rest.split_at(input.tables.len());

        let mut col_rows = Vec::with_capacity(input.columns.len());
        for (i, &base) in col_sums.iter().enumerate() {
            let hint = self.shint_col_emb.forward(g, ps, &[input.column_hints[i]]);
            let ty = self.ctype_emb.forward(g, ps, &[input.column_types[i]]);
            let a = g.add(base, hint);
            col_rows.push(g.add(a, ty));
        }
        let columns = g.concat_rows(&col_rows);

        let mut tab_rows = Vec::with_capacity(input.tables.len());
        for (i, &base) in tab_sums.iter().enumerate() {
            let hint = self.shint_tab_emb.forward(g, ps, &[input.table_hints[i]]);
            tab_rows.push(g.add(base, hint));
        }
        let tables = g.concat_rows(&tab_rows);

        // Joint contextualisation.
        let mut parts = vec![question, columns, tables];
        if !value_rows.is_empty() {
            parts.push(g.concat_rows(value_rows));
        }
        let mut joint = g.concat_rows(&parts);
        for block in &self.blocks {
            joint = block.forward(g, ps, joint, None);
        }

        // Slice the joint sequence back apart.
        let tq = input.question_ids.len();
        let nc = input.columns.len();
        let nt = input.tables.len();
        let nv = input.values.len();
        let question = g.slice_rows(joint, 0, tq);
        let columns = g.slice_rows(joint, tq, tq + nc);
        let tables = g.slice_rows(joint, tq + nc, tq + nc + nt);
        let values = if nv > 0 {
            Some(g.slice_rows(joint, tq + nc + nt, tq + nc + nt + nv))
        } else {
            None
        };
        // Mean-pool the question for the decoder's initial context.
        let ones = g.input(valuenet_tensor::Tensor::full(1, tq, 1.0 / tq as f32));
        let pooled = g.matmul(ones, question);
        Encodings { question, columns, tables, values, pooled }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn bits(g: &Graph, v: Var) -> Vec<u32> {
        g.value(v).as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// Forward values are exactly reproducible: every op involved is row-wise
    /// with per-row-independent accumulation. (Parameter gradients are not
    /// compared bitwise — batching legitimately reorders the scatter-add
    /// accumulation across gather nodes; the valuenet-verify gradient
    /// checker covers them.)
    #[test]
    fn batched_item_summaries_match_per_item_exactly() {
        // Schema-like items of mixed token lengths ("stu id", "name", "home
        // country", a located value ...), interleaved so every bucket has
        // several members whose rows must scatter back to item order.
        let items: [&[usize]; 9] =
            [&[1, 2], &[3], &[4], &[5, 6], &[1, 2], &[7, 3], &[8], &[9], &[10, 8, 5, 6]];
        for seed in [5u64, 19, 33] {
            let mut ps = ParamStore::new();
            let mut rng = SmallRng::seed_from_u64(seed);
            let encoder = Encoder::new(&mut ps, &mut rng, &ModelConfig::tiny(), 11);
            let mut g = Graph::new();
            let batched = encoder.summarize_items(&mut g, &ps, &items);
            for (i, ids) in items.iter().enumerate() {
                let single = encoder.summarize_item(&mut g, &ps, ids);
                assert_eq!(bits(&g, batched[i]), bits(&g, single), "seed {seed}: item {i} differs");
            }
        }
    }
}
