//! The tree every value passes through.

use crate::de::{Deserialize, Deserializer};
use crate::ser::{Serialize, Serializer};

/// A self-describing value. Objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    /// Only produced by serializing an `f32`, so that it prints with the
    /// shortest digits that round-trip an `f32`; parsers produce `F64`.
    F32(f32),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    /// What the value is, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::U64(_) | Value::I64(_) => "an integer",
            Value::F64(_) | Value::F32(_) => "a floating point number",
            Value::String(_) => "a string",
            Value::Array(_) => "a sequence",
            Value::Object(_) => "a map",
        }
    }
}

impl Serialize for Value {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.put(self.clone())
    }
}

impl<'de> Deserialize<'de> for Value {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.take()
    }
}

impl<'de> Deserializer<'de> for Value {
    type Error = crate::Error;

    fn take(self) -> Result<Value, crate::Error> {
        Ok(self)
    }
}
