// Included (`include!`) by the thread-invariance tests in
// `tests/parallel_determinism.rs` and `crates/core/src/partition.rs`.

/// Re-emits a JSON document with every object's members sorted by key.
/// Trained state holds `HashMap`s (n-gram counts, vocabularies, the
/// trajectory store), whose members serialize in iteration order — and
/// two equal maps iterate differently — so equal state is compared
/// through this form, never through raw `to_string` output.
fn canonical_json(json: &str) -> String {
    fn skip_ws(s: &[u8], i: &mut usize) {
        while s.get(*i).is_some_and(|b| b.is_ascii_whitespace()) {
            *i += 1;
        }
    }
    /// Copies the token at `i` (a string literal, or a scalar up to the
    /// next delimiter) verbatim.
    fn token(s: &[u8], i: &mut usize) -> String {
        let start = *i;
        if s[*i] == b'"' {
            *i += 1;
            while s[*i] != b'"' {
                *i += if s[*i] == b'\\' { 2 } else { 1 };
            }
            *i += 1;
        } else {
            while *i < s.len() && !b",]} \t\r\n".contains(&s[*i]) {
                *i += 1;
            }
        }
        String::from_utf8(s[start..*i].to_vec()).expect("JSON is UTF-8")
    }
    fn value(s: &[u8], i: &mut usize) -> String {
        skip_ws(s, i);
        let (open, close) = match s[*i] {
            b'{' => ('{', b'}'),
            b'[' => ('[', b']'),
            _ => return token(s, i),
        };
        *i += 1;
        let mut items = Vec::new();
        loop {
            skip_ws(s, i);
            match s[*i] {
                b if b == close => break,
                b',' => *i += 1,
                _ if open == '{' => {
                    let key = token(s, i);
                    skip_ws(s, i);
                    assert_eq!(s[*i], b':', "malformed object at byte {}", *i);
                    *i += 1;
                    items.push(format!("{key}:{}", value(s, i)));
                }
                _ => items.push(value(s, i)),
            }
        }
        *i += 1;
        if open == '{' {
            items.sort_unstable();
        }
        format!("{open}{}{}", items.join(","), close as char)
    }
    value(json.as_bytes(), &mut 0)
}
