//! Serialization half: types render themselves into a [`Value`].

use crate::Value;
use std::collections::{HashMap, HashSet};
use std::fmt::Display;

/// Errors a serializer can raise.
pub trait Error: Sized + Display {
    fn custom<T: Display>(msg: T) -> Self;
}

/// Receives the rendered tree.
pub trait Serializer: Sized {
    type Ok;
    type Error: Error;

    fn put(self, value: Value) -> Result<Self::Ok, Self::Error>;
}

/// A type that can render itself.
pub trait Serialize {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

/// The serializer whose output is the tree itself.
pub struct ValueSerializer;

impl Serializer for ValueSerializer {
    type Ok = Value;
    type Error = crate::Error;

    fn put(self, value: Value) -> Result<Value, crate::Error> {
        Ok(value)
    }
}

fn child<T: Serialize + ?Sized, E: Error>(value: &T) -> Result<Value, E> {
    crate::to_value(value).map_err(E::custom)
}

macro_rules! scalar {
    ($variant:ident as $wide:ty: $($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                s.put(Value::$variant(*self as $wide))
            }
        }
    )*};
}

scalar!(U64 as u64: u8, u16, u32, u64, usize);
scalar!(I64 as i64: i8, i16, i32, i64, isize);
scalar!(F64 as f64: f64);
scalar!(F32 as f32: f32);
scalar!(Bool as bool: bool);

impl Serialize for str {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.put(Value::String(self.to_string()))
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.put(Value::String(self.clone()))
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(s)
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(s)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        match self {
            Some(v) => v.serialize(s),
            None => s.put(Value::Null),
        }
    }
}

fn sequence<'a, T: Serialize + 'a, S: Serializer>(
    items: impl Iterator<Item = &'a T>,
    s: S,
) -> Result<S::Ok, S::Error> {
    let items = items.map(child).collect::<Result<Vec<_>, S::Error>>()?;
    s.put(Value::Array(items))
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        sequence(self.iter(), s)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        sequence(self.iter(), s)
    }
}

impl<T: Serialize, H> Serialize for HashSet<T, H> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        sequence(self.iter(), s)
    }
}

macro_rules! tuple {
    ($($name:ident . $idx:tt),+) => {
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                s.put(Value::Array(vec![$(child(&self.$idx)?),+]))
            }
        }
    };
}

tuple!(A.0, B.1);

/// JSON object keys are strings: integer keys (and newtypes over them)
/// print as their decimal digits, as the published `serde_json` does.
fn map_key<K: Serialize, E: Error>(key: &K) -> Result<String, E> {
    match child::<K, E>(key)? {
        Value::String(s) => Ok(s),
        Value::U64(n) => Ok(n.to_string()),
        Value::I64(n) => Ok(n.to_string()),
        other => Err(E::custom(format!(
            "map key must be a string or integer, not {}",
            other.kind()
        ))),
    }
}

fn map<'a, K: Serialize + 'a, V: Serialize + 'a, S: Serializer>(
    entries: impl Iterator<Item = (&'a K, &'a V)>,
    s: S,
) -> Result<S::Ok, S::Error> {
    let entries = entries
        .map(|(k, v)| Ok((map_key(k)?, child(v)?)))
        .collect::<Result<Vec<_>, S::Error>>()?;
    s.put(Value::Object(entries))
}

impl<K: Serialize, V: Serialize, H> Serialize for HashMap<K, V, H> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        map(self.iter(), s)
    }
}
