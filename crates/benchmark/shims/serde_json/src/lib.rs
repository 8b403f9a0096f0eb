//! Offline stand-in for `serde_json`: compact writer, strict parser, the
//! `json!` macro. Floats print with the shortest digits that round-trip
//! (`f32` fields as `f32`) and parse correctly rounded, which is what the
//! workspace's `float_roundtrip` feature asks of the published crate.

mod read;
mod write;

pub use serde::Value;

/// Parse or conversion failure.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.0)
    }
}

pub type Result<T> = std::result::Result<T, Error>;

pub fn to_value<T: serde::Serialize>(value: T) -> Result<Value> {
    Ok(serde::to_value(&value)?)
}

pub fn from_value<T: serde::de::DeserializeOwned>(value: Value) -> Result<T> {
    Ok(serde::from_value(value)?)
}

pub fn to_vec<T: serde::Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    write::write_value(&serde::to_value(value)?, &mut out);
    Ok(out)
}

pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(String::from_utf8(to_vec(value)?).expect("the writer emits UTF-8"))
}

pub fn from_slice<T: serde::de::DeserializeOwned>(bytes: &[u8]) -> Result<T> {
    from_value(read::parse(bytes)?)
}

pub fn from_str<T: serde::de::DeserializeOwned>(text: &str) -> Result<T> {
    from_slice(text.as_bytes())
}

/// Builds a [`Value`] from JSON-like syntax. Keys are string literals;
/// values are `null`, nested `[...]`/`{...}`, or any serializable
/// expression.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($items:tt)* ]) => {{
        #[allow(unused_mut)]
        let mut items: ::std::vec::Vec<$crate::Value> = ::std::vec::Vec::new();
        $crate::json_items!(items $($items)*);
        $crate::Value::Array(items)
    }};
    ({ $($entries:tt)* }) => {{
        #[allow(unused_mut)]
        let mut entries: ::std::vec::Vec<(::std::string::String, $crate::Value)> =
            ::std::vec::Vec::new();
        $crate::json_entries!(entries $($entries)*);
        $crate::Value::Object(entries)
    }};
    ($value:expr) => { $crate::to_value(&$value).expect("json! value serializes") };
}

#[doc(hidden)]
#[macro_export]
macro_rules! json_items {
    ($out:ident) => {};
    ($out:ident null $(, $($rest:tt)*)?) => {
        $out.push($crate::Value::Null); $crate::json_items!($out $($($rest)*)?);
    };
    ($out:ident [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $out.push($crate::json!([ $($inner)* ])); $crate::json_items!($out $($($rest)*)?);
    };
    ($out:ident { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $out.push($crate::json!({ $($inner)* })); $crate::json_items!($out $($($rest)*)?);
    };
    ($out:ident $value:expr , $($rest:tt)*) => {
        $out.push($crate::json!($value)); $crate::json_items!($out $($rest)*);
    };
    ($out:ident $value:expr) => { $out.push($crate::json!($value)); };
}

#[doc(hidden)]
#[macro_export]
macro_rules! json_entries {
    ($out:ident) => {};
    ($out:ident $key:literal : null $(, $($rest:tt)*)?) => {
        $out.push(($key.to_string(), $crate::Value::Null)); $crate::json_entries!($out $($($rest)*)?);
    };
    ($out:ident $key:literal : [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $out.push(($key.to_string(), $crate::json!([ $($inner)* ])));
        $crate::json_entries!($out $($($rest)*)?);
    };
    ($out:ident $key:literal : { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $out.push(($key.to_string(), $crate::json!({ $($inner)* })));
        $crate::json_entries!($out $($($rest)*)?);
    };
    ($out:ident $key:literal : $value:expr , $($rest:tt)*) => {
        $out.push(($key.to_string(), $crate::json!($value))); $crate::json_entries!($out $($rest)*);
    };
    ($out:ident $key:literal : $value:expr) => {
        $out.push(($key.to_string(), $crate::json!($value)));
    };
}
