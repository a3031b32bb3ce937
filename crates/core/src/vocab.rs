//! Word vocabulary.

use std::collections::HashMap;
use valuenet_obs::json::Json;

/// A word-level vocabulary with an `<unk>` fallback, built from the training
/// questions, all schema names and the database content the candidates draw
/// from. Lookup is case-insensitive.
#[derive(Debug, Clone)]
pub struct Vocab {
    words: HashMap<String, usize>,
    size: usize,
}

/// Id of the unknown token.
pub const UNK: usize = 0;

impl Vocab {
    /// Builds the vocabulary from an iterator of texts (each is split on
    /// whitespace and lowercased).
    pub fn build<'a>(texts: impl Iterator<Item = &'a str>) -> Self {
        let mut words = HashMap::new();
        words.insert("<unk>".to_string(), UNK);
        for text in texts {
            for w in text.split_whitespace() {
                let w = normalize(w);
                if w.is_empty() {
                    continue;
                }
                let next = words.len();
                words.entry(w).or_insert(next);
            }
        }
        let size = words.len();
        Vocab { words, size }
    }

    /// Vocabulary size (including `<unk>`).
    pub fn len(&self) -> usize {
        self.size
    }

    /// Whether only `<unk>` is present.
    pub fn is_empty(&self) -> bool {
        self.size <= 1
    }

    /// Id of a word (`UNK` when out of vocabulary).
    pub fn id(&self, word: &str) -> usize {
        self.words.get(&normalize(word)).copied().unwrap_or(UNK)
    }

    /// The words in id order (ids are dense, `0..len`), the model file's
    /// `vocab` field.
    pub fn to_json(&self) -> Json {
        let mut by_id = vec![""; self.size];
        for (w, &id) in &self.words {
            by_id[id] = w;
        }
        Json::Arr(by_id.into_iter().map(|w| Json::Str(w.to_string())).collect())
    }

    /// Reads the word list [`Vocab::to_json`] writes; each word's id is its
    /// position.
    ///
    /// # Errors
    /// When `v` is not an array of distinct strings.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let list = v.as_arr().ok_or("expected an array of words")?;
        let mut words = HashMap::with_capacity(list.len());
        for (id, w) in list.iter().enumerate() {
            let w = w.as_str().ok_or_else(|| format!("word {id} is not a string"))?;
            if words.insert(w.to_string(), id).is_some() {
                return Err(format!("word `{w}` is listed twice"));
            }
        }
        Ok(Vocab { size: words.len(), words })
    }

    /// Ids of every whitespace-separated word of `text`. Always returns at
    /// least one id (an `<unk>` for empty text), so downstream LSTMs never
    /// see an empty sequence.
    pub fn ids(&self, text: &str) -> Vec<usize> {
        let ids: Vec<usize> = text.split_whitespace().map(|w| self.id(w)).collect();
        if ids.is_empty() {
            vec![UNK]
        } else {
            ids
        }
    }
}

fn normalize(w: &str) -> String {
    w.chars()
        .filter(|c| c.is_alphanumeric() || *c == '-' || *c == '/' || *c == '_' || *c == '.')
        .collect::<String>()
        .to_lowercase()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_lookup() {
        let texts = ["How many pets", "pets from France"];
        let v = Vocab::build(texts.iter().copied());
        assert!(v.len() >= 6);
        assert_eq!(v.id("Pets"), v.id("pets"));
        assert_ne!(v.id("pets"), UNK);
        assert_eq!(v.id("zebra"), UNK);
    }

    #[test]
    fn punctuation_stripped() {
        let v = Vocab::build(["France?"].iter().copied());
        assert_eq!(v.id("France"), v.id("france?"));
    }

    #[test]
    fn ids_never_empty() {
        let v = Vocab::build(["a"].iter().copied());
        assert_eq!(v.ids(""), vec![UNK]);
        assert_eq!(v.ids("a a").len(), 2);
    }

    #[test]
    fn json_round_trip() {
        let v = Vocab::build(["hello world", "Hello again"].iter().copied());
        let text = v.to_json().render();
        let v2 = Vocab::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(v2.words, v.words);
        assert_eq!(v2.len(), v.len());
        assert_eq!(v2.to_json().render(), text, "the word list is written in id order");
        let dup = Json::parse(r#"["<unk>","a","a"]"#).unwrap();
        assert_eq!(Vocab::from_json(&dup).unwrap_err(), "word `a` is listed twice");
    }
}
