//! Offline stand-in for `serde`, just wide enough for this workspace.
//!
//! The data model is a tree: every `Serialize` type renders itself into a
//! [`Value`] and every `Deserialize` type rebuilds itself from one. The
//! `Serializer`/`Deserializer` traits keep the published crate's generic
//! shape (`fn serialize<S: Serializer>(&self, s: S)`), so hand-written
//! `#[serde(with = "...")]` modules compile unchanged, but each has a single
//! method that hands the whole tree over.

pub mod de;
pub mod ser;
mod value;

pub use de::{Deserialize, Deserializer};
pub use ser::{Serialize, Serializer};
pub use serde_derive::{Deserialize, Serialize};
pub use value::Value;

/// The error both directions report: a message.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(pub String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl ser::Error for Error {
    fn custom<T: std::fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

impl de::Error for Error {
    fn custom<T: std::fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

/// Renders any serializable value into the tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    value.serialize(ser::ValueSerializer)
}

/// Rebuilds a value from the tree.
pub fn from_value<T: for<'de> Deserialize<'de>>(value: Value) -> Result<T, Error> {
    T::deserialize(value)
}

/// Support code the derive macros expand to. Not a public interface.
#[doc(hidden)]
pub mod __private {
    use crate::de::{Deserialize, Deserializer, Error as DeError};
    use crate::ser::{Error as SerError, Serialize};
    use crate::Value;

    /// Field serialization inside a derived `serialize`, with the error
    /// converted to the caller's serializer error.
    pub fn field_value<T: Serialize + ?Sized, E: SerError>(value: &T) -> Result<Value, E> {
        crate::to_value(value).map_err(E::custom)
    }

    /// The object a derived struct (or struct variant) deserializes from.
    pub struct Fields {
        name: &'static str,
        entries: Vec<(String, Value)>,
    }

    impl Fields {
        pub fn from_deserializer<'de, D: Deserializer<'de>>(
            d: D,
            name: &'static str,
        ) -> Result<Self, D::Error> {
            Self::from_value(d.take()?, name)
        }

        pub fn from_value<E: DeError>(value: Value, name: &'static str) -> Result<Self, E> {
            match value {
                Value::Object(entries) => Ok(Fields { name, entries }),
                other => Err(E::custom(format!(
                    "invalid type: {}, expected struct {name}",
                    other.kind()
                ))),
            }
        }

        /// Removes and returns a field's value; unknown fields are simply
        /// never asked for, so they are ignored like the published crate
        /// does by default.
        pub fn take(&mut self, key: &str) -> Option<Value> {
            self.entries
                .iter_mut()
                .find(|(k, _)| k == key)
                .map(|(_, v)| std::mem::replace(v, Value::Null))
        }

        fn decode<T: for<'de> Deserialize<'de>, E: DeError>(
            &self,
            key: &str,
            value: Value,
        ) -> Result<T, E> {
            T::deserialize(value).map_err(|e| E::custom(format!("{}.{key}: {e}", self.name)))
        }

        /// A required field. A missing `Option` field reads as `None`.
        pub fn required<T: for<'de> Deserialize<'de>, E: DeError>(
            &mut self,
            key: &str,
        ) -> Result<T, E> {
            match self.take(key) {
                Some(v) => self.decode(key, v),
                None => T::deserialize(Value::Null)
                    .map_err(|_| E::custom(format!("missing field `{key}` in {}", self.name))),
            }
        }

        /// A `#[serde(default)]` / `#[serde(default = "path")]` field.
        pub fn or_else<T: for<'de> Deserialize<'de>, E: DeError>(
            &mut self,
            key: &str,
            default: impl FnOnce() -> T,
        ) -> Result<T, E> {
            match self.take(key) {
                Some(v) => self.decode(key, v),
                None => Ok(default()),
            }
        }

        /// A `#[serde(with = "module")]` field.
        pub fn with<T, E: DeError>(
            &mut self,
            key: &str,
            f: impl FnOnce(Value) -> Result<T, crate::Error>,
        ) -> Result<T, E> {
            let v = self
                .take(key)
                .ok_or_else(|| E::custom(format!("missing field `{key}` in {}", self.name)))?;
            f(v).map_err(|e| E::custom(format!("{}.{key}: {e}", self.name)))
        }
    }

    /// An enum's wire form: `"Variant"` or `{"Variant": payload}`.
    pub fn variant<'de, D: Deserializer<'de>>(
        d: D,
        name: &'static str,
    ) -> Result<(String, Option<Value>), D::Error> {
        match d.take()? {
            Value::String(tag) => Ok((tag, None)),
            Value::Object(mut entries) if entries.len() == 1 => {
                let (tag, payload) = entries.pop().expect("length checked");
                Ok((tag, Some(payload)))
            }
            other => Err(D::Error::custom(format!(
                "invalid type: {}, expected enum {name}",
                other.kind()
            ))),
        }
    }

    pub fn payload<E: DeError>(payload: Option<Value>, variant: &str) -> Result<Value, E> {
        payload.ok_or_else(|| E::custom(format!("variant `{variant}` needs a payload")))
    }

    pub fn unknown_variant<E: DeError>(tag: &str, name: &str) -> E {
        E::custom(format!("unknown variant `{tag}` of enum {name}"))
    }

    pub fn decode<T: for<'de> Deserialize<'de>, E: DeError>(value: Value) -> Result<T, E> {
        T::deserialize(value).map_err(E::custom)
    }

    /// Elements of a tuple struct with more than one field.
    pub fn tuple<'de, D: Deserializer<'de>>(
        d: D,
        len: usize,
        name: &'static str,
    ) -> Result<std::vec::IntoIter<Value>, D::Error> {
        match d.take()? {
            Value::Array(items) if items.len() == len => Ok(items.into_iter()),
            other => Err(D::Error::custom(format!(
                "invalid type: {}, expected tuple struct {name} of {len} elements",
                other.kind()
            ))),
        }
    }
}
