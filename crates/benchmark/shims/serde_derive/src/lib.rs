//! Offline stand-in for `serde_derive`, written against `proc_macro` alone
//! (no `syn`/`quote`, which need the registry too).
//!
//! Supported shapes are the ones this workspace derives on: non-generic
//! structs with named fields, tuple structs, and enums whose variants are
//! unit, newtype or struct-like. Supported field attributes: `default`,
//! `default = "path"`, `skip`, `skip_serializing_if = "path"`,
//! `with = "module"`. Anything else is a compile error, not a silent
//! difference.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Default)]
struct FieldAttrs {
    default: Option<String>,
    skip: bool,
    skip_serializing_if: Option<String>,
    with: Option<String>,
}

struct Field {
    name: String,
    attrs: FieldAttrs,
}

enum Shape {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Body {
    Struct(Shape),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    body: Body,
}

/// Reads one `#[...]` attribute body if `tokens[*i]` starts one.
fn attribute(tokens: &[TokenTree], i: &mut usize) -> Option<TokenStream> {
    match (tokens.get(*i), tokens.get(*i + 1)) {
        (Some(TokenTree::Punct(p)), Some(TokenTree::Group(g)))
            if p.as_char() == '#' && g.delimiter() == Delimiter::Bracket =>
        {
            *i += 2;
            Some(g.stream())
        }
        _ => None,
    }
}

fn unquote(literal: &str) -> Result<String, String> {
    literal
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("expected a string literal, got {literal}"))
}

/// Folds one attribute into `attrs` when it is `#[serde(...)]`.
fn serde_attribute(attr: TokenStream, attrs: &mut FieldAttrs) -> Result<(), String> {
    let tokens: Vec<TokenTree> = attr.into_iter().collect();
    let args = match tokens.as_slice() {
        [TokenTree::Ident(name), TokenTree::Group(g)] if name.to_string() == "serde" => g.stream(),
        _ => return Ok(()),
    };
    let args: Vec<TokenTree> = args.into_iter().collect();
    for arg in args.split(|t| matches!(t, TokenTree::Punct(p) if p.as_char() == ',')) {
        let key = match arg.first() {
            Some(TokenTree::Ident(key)) => key.to_string(),
            Some(other) => return Err(format!("unsupported serde attribute `{other}`")),
            None => continue,
        };
        let value = match arg {
            [_] => None,
            [_, TokenTree::Punct(eq), TokenTree::Literal(lit)] if eq.as_char() == '=' => {
                Some(unquote(&lit.to_string())?)
            }
            _ => return Err(format!("unsupported form of serde attribute `{key}`")),
        };
        match (key.as_str(), value) {
            ("default", None) => attrs.default = Some("::core::default::Default::default".into()),
            ("default", Some(path)) => attrs.default = Some(path),
            ("skip", None) => attrs.skip = true,
            ("skip_serializing_if", Some(path)) => attrs.skip_serializing_if = Some(path),
            ("with", Some(module)) => attrs.with = Some(module),
            (other, _) => return Err(format!("unsupported serde attribute `{other}`")),
        }
    }
    Ok(())
}

fn skip_visibility(tokens: &[TokenTree], i: &mut usize) {
    if matches!(tokens.get(*i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        *i += 1;
        if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *i += 1;
        }
    }
}

/// Advances past one type (or discriminant), up to a top-level comma.
fn skip_to_comma(tokens: &[TokenTree], i: &mut usize) {
    let mut angle = 0i32;
    while let Some(t) = tokens.get(*i) {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle -= 1,
                ',' if angle == 0 => return,
                _ => {}
            }
        }
        *i += 1;
    }
}

fn named_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let mut attrs = FieldAttrs::default();
        while let Some(attr) = attribute(&tokens, &mut i) {
            serde_attribute(attr, &mut attrs)?;
        }
        skip_visibility(&tokens, &mut i);
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("expected a field name, got {other:?}")),
        };
        i += 2; // the name and its colon
        skip_to_comma(&tokens, &mut i);
        i += 1;
        fields.push(Field { name, attrs });
    }
    Ok(fields)
}

fn tuple_arity(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut n = 0;
    while i < tokens.len() {
        while attribute(&tokens, &mut i).is_some() {}
        skip_visibility(&tokens, &mut i);
        skip_to_comma(&tokens, &mut i);
        i += 1;
        n += 1;
    }
    n
}

fn shape_of(group: Option<&TokenTree>) -> Result<Shape, String> {
    match group {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            Ok(Shape::Named(named_fields(g.stream())?))
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            Ok(Shape::Tuple(tuple_arity(g.stream())))
        }
        _ => Ok(Shape::Unit),
    }
}

fn variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        while attribute(&tokens, &mut i).is_some() {}
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("expected a variant name, got {other:?}")),
        };
        i += 1;
        let shape = shape_of(tokens.get(i))?;
        if let Shape::Tuple(n) = shape {
            if n != 1 {
                return Err(format!(
                    "variant `{name}`: only one-field tuple variants are supported"
                ));
            }
        }
        skip_to_comma(&tokens, &mut i);
        i += 1;
        out.push(Variant { name, shape });
    }
    Ok(out)
}

fn parse(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    while attribute(&tokens, &mut i).is_some() {}
    skip_visibility(&tokens, &mut i);
    let keyword = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected `struct` or `enum`, got {other:?}")),
    };
    let name = match tokens.get(i + 1) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected a type name, got {other:?}")),
    };
    let next = tokens.get(i + 2);
    if matches!(next, Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "`{name}`: generic types are not supported by this stand-in"
        ));
    }
    let body = match (keyword.as_str(), next) {
        ("struct", group) => Body::Struct(shape_of(group)?),
        ("enum", Some(TokenTree::Group(g))) => Body::Enum(variants(g.stream())?),
        _ => {
            return Err(format!(
                "`{name}`: only structs and enums can derive serde traits"
            ))
        }
    };
    Ok(Item { name, body })
}

fn finish(result: Result<String, String>) -> TokenStream {
    match result {
        Ok(code) => code.parse().expect("derive expansion is valid Rust"),
        Err(msg) => format!("compile_error!({msg:?});")
            .parse()
            .expect("valid compile_error"),
    }
}

/// Statements pushing each named field's `(name, value)` onto `entries`.
fn push_named(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let mut code = String::new();
    for f in fields.iter().filter(|f| !f.attrs.skip) {
        let place = access(&f.name);
        let value = match &f.attrs.with {
            Some(module) => format!(
                "{module}::serialize({place}, ::serde::ser::ValueSerializer)\
                 .map_err(<S::Error as ::serde::ser::Error>::custom)?"
            ),
            None => format!("::serde::__private::field_value::<_, S::Error>({place})?"),
        };
        let push = format!("entries.push(({:?}.to_string(), {value}));", f.name);
        match &f.attrs.skip_serializing_if {
            Some(pred) => code.push_str(&format!("if !{pred}({place}) {{ {push} }}")),
            None => code.push_str(&push),
        }
    }
    code
}

/// A struct literal body reading each named field out of `fields`.
fn read_named(fields: &[Field]) -> String {
    let mut code = String::new();
    for f in fields {
        let name = &f.name;
        let expr = if f.attrs.skip {
            "::core::default::Default::default()".to_string()
        } else if let Some(module) = &f.attrs.with {
            format!("fields.with::<_, D::Error>({name:?}, |v| {module}::deserialize(v))?")
        } else if let Some(default) = &f.attrs.default {
            format!("fields.or_else::<_, D::Error>({name:?}, {default})?")
        } else {
            format!("fields.required::<_, D::Error>({name:?})?")
        };
        code.push_str(&format!("{name}: {expr},"));
    }
    code
}

fn serialize_body(item: &Item) -> String {
    match &item.body {
        Body::Struct(Shape::Unit) => "s.put(::serde::Value::Null)".to_string(),
        Body::Struct(Shape::Tuple(1)) => "::serde::Serialize::serialize(&self.0, s)".to_string(),
        Body::Struct(Shape::Tuple(n)) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::__private::field_value::<_, S::Error>(&self.{i})?"))
                .collect();
            format!("s.put(::serde::Value::Array(vec![{}]))", items.join(","))
        }
        Body::Struct(Shape::Named(fields)) => format!(
            "let mut entries = ::std::vec::Vec::new(); {} s.put(::serde::Value::Object(entries))",
            push_named(fields, |f| format!("&self.{f}"))
        ),
        Body::Enum(variants) => {
            let name = &item.name;
            let mut arms = String::new();
            for v in variants {
                let vname = &v.name;
                match &v.shape {
                    Shape::Unit => arms.push_str(&format!(
                        "{name}::{vname} => s.put(::serde::Value::String({vname:?}.to_string())),"
                    )),
                    Shape::Tuple(_) => arms.push_str(&format!(
                        "{name}::{vname}(inner) => s.put(::serde::Value::Object(vec![({vname:?}.to_string(), \
                         ::serde::__private::field_value::<_, S::Error>(inner)?)])),"
                    )),
                    Shape::Named(fields) => {
                        let bindings: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        arms.push_str(&format!(
                            "{name}::{vname} {{ {} }} => {{ let mut entries = ::std::vec::Vec::new(); {} \
                             s.put(::serde::Value::Object(vec![({vname:?}.to_string(), \
                             ::serde::Value::Object(entries))])) }},",
                            bindings.join(","),
                            push_named(fields, |f| f.to_string())
                        ));
                    }
                }
            }
            format!("match self {{ {arms} }}")
        }
    }
}

fn deserialize_body(item: &Item) -> String {
    let name = &item.name;
    match &item.body {
        Body::Struct(Shape::Unit) => format!("d.take().map(|_| {name})"),
        Body::Struct(Shape::Tuple(1)) => {
            format!("::serde::Deserialize::deserialize(d).map({name})")
        }
        Body::Struct(Shape::Tuple(n)) => {
            let items = "::serde::__private::decode::<_, D::Error>(items.next().expect(\"length checked\"))?,"
                .repeat(*n);
            format!(
                "let mut items = ::serde::__private::tuple(d, {n}, {name:?})?; Ok({name}({items}))"
            )
        }
        Body::Struct(Shape::Named(fields)) => format!(
            "let mut fields = ::serde::__private::Fields::from_deserializer(d, {name:?})?; \
             Ok({name} {{ {} }})",
            read_named(fields)
        ),
        Body::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vname = &v.name;
                match &v.shape {
                    Shape::Unit => arms.push_str(&format!("{vname:?} => Ok({name}::{vname}),")),
                    Shape::Tuple(_) => arms.push_str(&format!(
                        "{vname:?} => Ok({name}::{vname}(::serde::__private::decode::<_, D::Error>(\
                         ::serde::__private::payload::<D::Error>(payload, {vname:?})?)?)),"
                    )),
                    Shape::Named(fields) => arms.push_str(&format!(
                        "{vname:?} => {{ let mut fields = ::serde::__private::Fields::from_value::<D::Error>(\
                         ::serde::__private::payload::<D::Error>(payload, {vname:?})?, {vname:?})?; \
                         Ok({name}::{vname} {{ {} }}) }},",
                        read_named(fields)
                    )),
                }
            }
            format!(
                "let (tag, payload) = ::serde::__private::variant(d, {name:?})?; \
                 let _ = &payload; \
                 match tag.as_str() {{ {arms} other => \
                 Err(::serde::__private::unknown_variant::<D::Error>(other, {name:?})) }}"
            )
        }
    }
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    finish(parse(input).map(|item| {
        format!(
            "impl ::serde::Serialize for {} {{ \
             fn serialize<S: ::serde::Serializer>(&self, s: S) \
             -> ::core::result::Result<S::Ok, S::Error> {{ {} }} }}",
            item.name,
            serialize_body(&item)
        )
    }))
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    finish(parse(input).map(|item| {
        format!(
            "impl<'de> ::serde::Deserialize<'de> for {} {{ \
             fn deserialize<D: ::serde::Deserializer<'de>>(d: D) \
             -> ::core::result::Result<Self, D::Error> {{ {} }} }}",
            item.name,
            deserialize_body(&item)
        )
    }))
}
