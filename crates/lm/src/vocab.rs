//! Token vocabulary: opaque `u64` keys ↔ dense internal ids.
//!
//! KAMEL's Tokenization module emits hexagonal cell ids as tokens (§3); the
//! language models need dense contiguous ids. The first five ids are BERT's
//! special tokens.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A bidirectional mapping between token keys and dense ids.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Vocab {
    forward: HashMap<u64, u32>,
    backward: Vec<u64>,
}

impl Vocab {
    /// Padding token id.
    pub const PAD: u32 = 0;
    /// Mask token id (the slot to predict).
    pub const MASK: u32 = 1;
    /// Sequence-start marker.
    pub const CLS: u32 = 2;
    /// Sequence-end marker.
    pub const SEP: u32 = 3;
    /// Out-of-vocabulary token id.
    pub const UNK: u32 = 4;
    /// First id assigned to a regular token.
    pub const FIRST_REGULAR: u32 = 5;

    /// An empty vocabulary (only special tokens).
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a vocabulary from its regular keys in id order (what
    /// [`Vocab::keys`] hands out); a repeated key is an error.
    pub fn from_keys(keys: Vec<u64>) -> Result<Self, String> {
        if keys.len() > (u32::MAX - Self::FIRST_REGULAR) as usize {
            return Err(format!("{} keys exceed the id space", keys.len()));
        }
        let mut forward = HashMap::with_capacity(keys.len());
        for (i, &key) in keys.iter().enumerate() {
            let id = Self::FIRST_REGULAR + i as u32;
            if forward.insert(key, id).is_some() {
                return Err(format!("vocabulary repeats key {key}"));
            }
        }
        Ok(Self {
            forward,
            backward: keys,
        })
    }

    /// The regular keys, in id order starting at [`Vocab::FIRST_REGULAR`].
    pub fn keys(&self) -> &[u64] {
        &self.backward
    }

    /// Returns the id for `key`, inserting it if unseen.
    pub fn get_or_insert(&mut self, key: u64) -> u32 {
        if let Some(&id) = self.forward.get(&key) {
            return id;
        }
        let id = Self::FIRST_REGULAR + self.backward.len() as u32;
        self.forward.insert(key, id);
        self.backward.push(key);
        id
    }

    /// The id of `key`, or [`Vocab::UNK`] when unknown.
    pub fn id_of(&self, key: u64) -> u32 {
        self.forward.get(&key).copied().unwrap_or(Self::UNK)
    }

    /// The key behind a regular id; `None` for specials or out-of-range ids.
    pub fn key_of(&self, id: u32) -> Option<u64> {
        if id < Self::FIRST_REGULAR {
            return None;
        }
        self.backward.get((id - Self::FIRST_REGULAR) as usize).copied()
    }

    /// Number of regular (non-special) tokens.
    pub fn regular_len(&self) -> usize {
        self.backward.len()
    }

    /// Total id space, including special tokens — the model's vocab size.
    pub fn total_len(&self) -> usize {
        Self::FIRST_REGULAR as usize + self.backward.len()
    }

    /// Half-open range of regular ids, for random-replacement masking.
    pub fn regular_range(&self) -> (u32, u32) {
        (Self::FIRST_REGULAR, self.total_len() as u32)
    }

    /// True when no regular tokens have been registered.
    pub fn is_empty(&self) -> bool {
        self.backward.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_is_idempotent_and_dense() {
        let mut v = Vocab::new();
        let a = v.get_or_insert(1000);
        let b = v.get_or_insert(2000);
        let a2 = v.get_or_insert(1000);
        assert_eq!(a, a2);
        assert_eq!(a, Vocab::FIRST_REGULAR);
        assert_eq!(b, Vocab::FIRST_REGULAR + 1);
        assert_eq!(v.regular_len(), 2);
        assert_eq!(v.total_len(), 7);
    }

    #[test]
    fn unknown_keys_map_to_unk() {
        let v = Vocab::new();
        assert_eq!(v.id_of(12345), Vocab::UNK);
    }

    #[test]
    fn key_of_rejects_specials() {
        let mut v = Vocab::new();
        v.get_or_insert(42);
        assert_eq!(v.key_of(Vocab::PAD), None);
        assert_eq!(v.key_of(Vocab::MASK), None);
        assert_eq!(v.key_of(Vocab::FIRST_REGULAR), Some(42));
        assert_eq!(v.key_of(Vocab::FIRST_REGULAR + 1), None);
    }

    #[test]
    fn from_keys_rebuilds_the_same_mapping_and_rejects_repeats() {
        let mut v = Vocab::new();
        for key in [9u64, 3, 77, 0] {
            v.get_or_insert(key);
        }
        let back = Vocab::from_keys(v.keys().to_vec()).expect("distinct keys");
        for &key in v.keys() {
            assert_eq!(back.id_of(key), v.id_of(key));
            assert_eq!(back.key_of(v.id_of(key)), Some(key));
        }
        assert_eq!(back.total_len(), v.total_len());
        assert!(Vocab::from_keys(vec![1, 2, 1]).is_err());
    }

    #[test]
    fn roundtrip_many_keys() {
        let mut v = Vocab::new();
        for key in (0..500u64).map(|i| i * 7919) {
            let id = v.get_or_insert(key);
            assert_eq!(v.key_of(id), Some(key));
            assert_eq!(v.id_of(key), id);
        }
        assert_eq!(v.regular_len(), 500);
    }
}
