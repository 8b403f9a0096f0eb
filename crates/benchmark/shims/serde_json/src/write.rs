//! Compact JSON writer.

use serde::Value;
use std::io::Write;

pub fn write_value(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Null => out.extend_from_slice(b"null"),
        Value::Bool(b) => out.extend_from_slice(if *b { b"true" } else { b"false" }),
        Value::U64(n) => write!(out, "{n}").expect("writing to a Vec cannot fail"),
        Value::I64(n) => write!(out, "{n}").expect("writing to a Vec cannot fail"),
        // `{:?}` prints the shortest digits that parse back to the same
        // float, with a `.0` or an exponent so it stays a JSON number.
        Value::F64(x) if x.is_finite() => {
            write!(out, "{x:?}").expect("writing to a Vec cannot fail")
        }
        Value::F32(x) if x.is_finite() => {
            write!(out, "{x:?}").expect("writing to a Vec cannot fail")
        }
        // JSON has no NaN or infinity; the published crate writes null.
        Value::F64(_) | Value::F32(_) => out.extend_from_slice(b"null"),
        Value::String(s) => write_string(s, out),
        Value::Array(items) => {
            out.push(b'[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                write_value(item, out);
            }
            out.push(b']');
        }
        Value::Object(entries) => {
            out.push(b'{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                write_string(key, out);
                out.push(b':');
                write_value(item, out);
            }
            out.push(b'}');
        }
    }
}

fn write_string(s: &str, out: &mut Vec<u8>) {
    out.push(b'"');
    for &b in s.as_bytes() {
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            0..=0x1f => write!(out, "\\u{b:04x}").expect("writing to a Vec cannot fail"),
            _ => out.push(b),
        }
    }
    out.push(b'"');
}
