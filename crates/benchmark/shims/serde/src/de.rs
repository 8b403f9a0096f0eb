//! Deserialization half: types rebuild themselves from a [`Value`].

use crate::Value;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Display;
use std::hash::{BuildHasher, Hash};

/// Errors a deserializer can raise.
pub trait Error: Sized + Display {
    fn custom<T: Display>(msg: T) -> Self;
}

/// Hands over the parsed tree.
pub trait Deserializer<'de>: Sized {
    type Error: Error;

    fn take(self) -> Result<Value, Self::Error>;
}

/// A type that can rebuild itself.
pub trait Deserialize<'de>: Sized {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

/// A type that borrows nothing from its input.
pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}

fn invalid<E: Error>(got: &Value, expected: &str) -> E {
    E::custom(format!("invalid type: {}, expected {expected}", got.kind()))
}

fn child<T: DeserializeOwned, E: Error>(value: Value) -> Result<T, E> {
    T::deserialize(value).map_err(E::custom)
}

macro_rules! integer {
    ($($ty:ty),*) => {$(
        impl<'de> Deserialize<'de> for $ty {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                let v = d.take()?;
                let converted = match v {
                    Value::U64(n) => <$ty>::try_from(n).ok(),
                    Value::I64(n) => <$ty>::try_from(n).ok(),
                    _ => return Err(invalid(&v, stringify!($ty))),
                };
                converted.ok_or_else(|| {
                    D::Error::custom(format!("integer out of range for {}", stringify!($ty)))
                })
            }
        }
    )*};
}

integer!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float {
    ($($ty:ty),*) => {$(
        impl<'de> Deserialize<'de> for $ty {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                match d.take()? {
                    Value::F64(x) => Ok(x as $ty),
                    Value::F32(x) => Ok(x as $ty),
                    Value::U64(n) => Ok(n as $ty),
                    Value::I64(n) => Ok(n as $ty),
                    other => Err(invalid(&other, stringify!($ty))),
                }
            }
        }
    )*};
}

float!(f32, f64);

impl<'de> Deserialize<'de> for bool {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.take()? {
            Value::Bool(b) => Ok(b),
            other => Err(invalid(&other, "a boolean")),
        }
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.take()? {
            Value::String(s) => Ok(s),
            other => Err(invalid(&other, "a string")),
        }
    }
}

impl<'de, T: DeserializeOwned> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.take()? {
            Value::Null => Ok(None),
            other => child(other).map(Some),
        }
    }
}

impl<'de, T: DeserializeOwned> Deserialize<'de> for Box<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        T::deserialize(d).map(Box::new)
    }
}

fn elements<'de, D: Deserializer<'de>>(d: D) -> Result<Vec<Value>, D::Error> {
    match d.take()? {
        Value::Array(items) => Ok(items),
        other => Err(invalid(&other, "a sequence")),
    }
}

impl<'de, T: DeserializeOwned> Deserialize<'de> for Vec<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        elements(d)?.into_iter().map(child).collect()
    }
}

impl<'de, T, H> Deserialize<'de> for HashSet<T, H>
where
    T: DeserializeOwned + Eq + Hash,
    H: BuildHasher + Default,
{
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        elements(d)?.into_iter().map(child).collect()
    }
}

macro_rules! tuple {
    ($len:literal: $($name:ident),+) => {
        impl<'de, $($name: DeserializeOwned),+> Deserialize<'de> for ($($name,)+) {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                let items = elements(d)?;
                if items.len() != $len {
                    return Err(D::Error::custom(format!(
                        "expected a tuple of {} elements, got {}", $len, items.len()
                    )));
                }
                let mut items = items.into_iter();
                Ok(($(child::<$name, D::Error>(items.next().expect("length checked"))?,)+))
            }
        }
    };
}

tuple!(2: A, B);

/// Object keys arrive as strings; a key type that is not a string is read
/// from the integer the digits spell.
fn map_key<K: DeserializeOwned, E: Error>(key: String) -> Result<K, E> {
    let numeric = if let Ok(n) = key.parse::<u64>() {
        Some(Value::U64(n))
    } else {
        key.parse::<i64>().ok().map(Value::I64)
    };
    if let Some(k) = numeric.and_then(|n| K::deserialize(n).ok()) {
        return Ok(k);
    }
    child(Value::String(key))
}

fn entries<'de, D: Deserializer<'de>>(d: D) -> Result<Vec<(String, Value)>, D::Error> {
    match d.take()? {
        Value::Object(entries) => Ok(entries),
        other => Err(invalid(&other, "a map")),
    }
}

impl<'de, K, V, H> Deserialize<'de> for HashMap<K, V, H>
where
    K: DeserializeOwned + Eq + Hash,
    V: DeserializeOwned,
    H: BuildHasher + Default,
{
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        entries(d)?
            .into_iter()
            .map(|(k, v)| Ok((map_key(k)?, child(v)?)))
            .collect()
    }
}

impl<'de, K: DeserializeOwned + Ord, V: DeserializeOwned> Deserialize<'de> for BTreeMap<K, V> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        entries(d)?
            .into_iter()
            .map(|(k, v)| Ok((map_key(k)?, child(v)?)))
            .collect()
    }
}
