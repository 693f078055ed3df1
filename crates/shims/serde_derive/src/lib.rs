//! Offline shim for `serde_derive`.
//!
//! Hand-rolled `#[derive(Serialize)]` / `#[derive(Deserialize)]` macros that
//! parse the item's token stream directly (no `syn`/`quote`, which are not
//! available offline) and emit impls of the shim `serde::Serialize` /
//! `serde::Deserialize` traits. Supported shapes — the only ones used in
//! this workspace:
//!
//! * structs with named fields  → JSON object;
//! * newtype structs            → the inner value;
//! * enums with unit variants   → `"VariantName"`;
//! * enums with struct variants → `{"VariantName": {..fields..}}`;
//! * enums with tuple variants  → `{"VariantName": value}` (1-field) or
//!   `{"VariantName": [values…]}`.
//!
//! Generic items and serde attributes are intentionally unsupported and
//! panic with a clear message at compile time.

use proc_macro::{Delimiter, TokenStream, TokenTree};

// ---------------------------------------------------------------------------
// Item model
// ---------------------------------------------------------------------------

enum Shape {
    NamedStruct {
        name: String,
        fields: Vec<String>,
    },
    TupleStruct {
        name: String,
        arity: usize,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Named(Vec<String>),
    Tuple(usize),
}

// ---------------------------------------------------------------------------
// Token-level parsing
// ---------------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Shape {
    let mut tokens = input.into_iter().peekable();
    // Skip outer attributes and visibility until `struct` / `enum`.
    let is_enum = loop {
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                // Attribute: consume the bracket group that follows.
                match tokens.next() {
                    Some(TokenTree::Group(_)) => {}
                    other => panic!("serde_derive shim: malformed attribute near {other:?}"),
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                // `pub(crate)` etc: skip the optional paren group.
                if let Some(TokenTree::Group(g)) = tokens.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        tokens.next();
                    }
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "struct" => break false,
            Some(TokenTree::Ident(id)) if id.to_string() == "enum" => break true,
            Some(other) => panic!("serde_derive shim: unexpected token {other}"),
            None => panic!("serde_derive shim: ran out of tokens before struct/enum"),
        }
    };

    let name = match tokens.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive shim: expected item name, got {other:?}"),
    };

    match tokens.next() {
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
            panic!("serde_derive shim: generic types are not supported ({name})")
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            if is_enum {
                Shape::Enum {
                    name,
                    variants: parse_variants(g.stream()),
                }
            } else {
                Shape::NamedStruct {
                    name,
                    fields: parse_named_fields(g.stream()),
                }
            }
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis && !is_enum => {
            Shape::TupleStruct {
                name,
                arity: count_top_level_fields(g.stream()),
            }
        }
        other => panic!("serde_derive shim: unsupported item body for {name}: {other:?}"),
    }
}

/// Field names of a named-fields body (struct or enum struct-variant).
fn parse_named_fields(body: TokenStream) -> Vec<String> {
    let mut fields = Vec::new();
    let mut tokens = body.into_iter().peekable();
    loop {
        // Skip attributes (doc comments included) and visibility.
        match tokens.peek() {
            None => break,
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                tokens.next();
                tokens.next(); // the bracket group
                continue;
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                tokens.next();
                if let Some(TokenTree::Group(g)) = tokens.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        tokens.next();
                    }
                }
                continue;
            }
            _ => {}
        }
        // Field name.
        match tokens.next() {
            Some(TokenTree::Ident(id)) => fields.push(id.to_string()),
            Some(other) => panic!("serde_derive shim: expected field name, got {other}"),
            None => break,
        }
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde_derive shim: expected ':' after field, got {other:?}"),
        }
        // Consume the type up to a top-level comma (angle-depth aware).
        let mut angle_depth = 0i32;
        loop {
            match tokens.next() {
                None => break,
                Some(TokenTree::Punct(p)) => match p.as_char() {
                    '<' => angle_depth += 1,
                    '>' => angle_depth -= 1,
                    ',' if angle_depth == 0 => break,
                    _ => {}
                },
                Some(_) => {}
            }
        }
    }
    fields
}

/// Number of fields in a tuple body (top-level comma count, trailing comma
/// tolerated).
fn count_top_level_fields(body: TokenStream) -> usize {
    let mut arity = 0usize;
    let mut saw_tokens = false;
    let mut angle_depth = 0i32;
    for token in body {
        if let TokenTree::Punct(p) = &token {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => {
                    arity += 1;
                    saw_tokens = false;
                    continue;
                }
                _ => {}
            }
        }
        saw_tokens = true;
    }
    if saw_tokens {
        arity += 1;
    }
    arity
}

fn parse_variants(body: TokenStream) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut tokens = body.into_iter().peekable();
    loop {
        match tokens.peek() {
            None => break,
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                tokens.next();
                tokens.next();
                continue;
            }
            _ => {}
        }
        let name = match tokens.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            Some(other) => panic!("serde_derive shim: expected variant name, got {other}"),
            None => break,
        };
        let kind = match tokens.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream());
                tokens.next();
                VariantKind::Named(fields)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let arity = count_top_level_fields(g.stream());
                tokens.next();
                VariantKind::Tuple(arity)
            }
            _ => VariantKind::Unit,
        };
        // Skip a possible explicit discriminant, then the separating comma.
        let mut angle_depth = 0i32;
        loop {
            match tokens.next() {
                None => break,
                Some(TokenTree::Punct(p)) => match p.as_char() {
                    '<' => angle_depth += 1,
                    '>' => angle_depth -= 1,
                    ',' if angle_depth == 0 => break,
                    _ => {}
                },
                Some(_) => {}
            }
        }
        variants.push(Variant { name, kind });
    }
    variants
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

/// An expression building a `::serde::Value::Object` from `(key, value
/// expression)` pairs: the keys are sorted here, at expansion time, and
/// borrowed as `&'static str`, so the map is built at its exact size by
/// appends, with no search and no allocation per key.
fn object_expr(mut entries: Vec<(&str, String)>) -> String {
    entries.sort_by(|a, b| a.0.cmp(b.0));
    let entries: Vec<String> = entries
        .iter()
        .map(|(key, value)| format!("(::std::borrow::Cow::Borrowed(\"{key}\"), {value})"))
        .collect();
    format!(
        "::serde::Value::Object(::serde::Map::__from_sorted(::std::vec![{}]))",
        entries.join(", ")
    )
}

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let shape = parse_item(input);
    let code = match &shape {
        Shape::NamedStruct { name, fields } => {
            let body = object_expr(
                fields
                    .iter()
                    .map(|f| {
                        (
                            f.as_str(),
                            format!("::serde::Serialize::serialize(&self.{f})"),
                        )
                    })
                    .collect(),
            );
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn serialize(&self) -> ::serde::Value {{\n{body}\n}}\n\
                 }}"
            )
        }
        Shape::TupleStruct { name, arity } => {
            let body = if *arity == 1 {
                "::serde::Serialize::serialize(&self.0)".to_string()
            } else {
                let elems: Vec<String> = (0..*arity)
                    .map(|i| format!("::serde::Serialize::serialize(&self.{i})"))
                    .collect();
                format!("::serde::Value::Array(vec![{}])", elems.join(", "))
            };
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn serialize(&self) -> ::serde::Value {{ {body} }}\n\
                 }}"
            )
        }
        Shape::Enum { name, variants } => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.kind {
                    VariantKind::Unit => arms.push_str(&format!(
                        "{name}::{vn} => ::serde::Value::String(\"{vn}\".to_string()),\n"
                    )),
                    VariantKind::Named(fields) => {
                        let pat: Vec<&str> = fields.iter().map(String::as_str).collect();
                        let inner = object_expr(
                            fields
                                .iter()
                                .map(|f| {
                                    (f.as_str(), format!("::serde::Serialize::serialize({f})"))
                                })
                                .collect(),
                        );
                        arms.push_str(&format!(
                            "{name}::{vn} {{ {} }} => {},\n",
                            pat.join(", "),
                            object_expr(vec![(vn, inner)])
                        ));
                    }
                    VariantKind::Tuple(arity) => {
                        let binds: Vec<String> = (0..*arity).map(|i| format!("x{i}")).collect();
                        let value = if *arity == 1 {
                            "::serde::Serialize::serialize(x0)".to_string()
                        } else {
                            let elems: Vec<String> = binds
                                .iter()
                                .map(|b| format!("::serde::Serialize::serialize({b})"))
                                .collect();
                            format!("::serde::Value::Array(vec![{}])", elems.join(", "))
                        };
                        arms.push_str(&format!(
                            "{name}::{vn}({}) => {},\n",
                            binds.join(", "),
                            object_expr(vec![(vn, value)])
                        ));
                    }
                }
            }
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn serialize(&self) -> ::serde::Value {{\n\
                         match self {{\n{arms}}}\n\
                     }}\n\
                 }}"
            )
        }
    };
    code.parse()
        .expect("serde_derive shim: generated Serialize impl must parse")
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let shape = parse_item(input);
    let code = match &shape {
        Shape::NamedStruct { name, fields } => {
            let mut inits = String::new();
            for f in fields {
                inits.push_str(&format!(
                    "{f}: ::serde::Deserialize::deserialize(map.get(\"{f}\").unwrap_or(&::serde::Value::Null))\
                     .map_err(|e| ::serde::Error::field(\"{f}\", e))?,\n"
                ));
            }
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn deserialize(value: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                         let map = value.as_object().ok_or_else(|| ::serde::Error::custom(\"expected object for {name}\"))?;\n\
                         ::std::result::Result::Ok({name} {{\n{inits}}})\n\
                     }}\n\
                 }}"
            )
        }
        Shape::TupleStruct { name, arity } => {
            let body = if *arity == 1 {
                format!(
                    "::std::result::Result::Ok({name}(::serde::Deserialize::deserialize(value)?))"
                )
            } else {
                let mut elems = String::new();
                for i in 0..*arity {
                    elems.push_str(&format!(
                        "::serde::Deserialize::deserialize(arr.get({i}).unwrap_or(&::serde::Value::Null))?,\n"
                    ));
                }
                format!(
                    "let arr = value.as_array().ok_or_else(|| ::serde::Error::custom(\"expected array for {name}\"))?;\n\
                     ::std::result::Result::Ok({name}({elems}))"
                )
            };
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn deserialize(value: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n{body}\n}}\n\
                 }}"
            )
        }
        Shape::Enum { name, variants } => {
            let mut unit_arms = String::new();
            let mut keyed_arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.kind {
                    VariantKind::Unit => unit_arms.push_str(&format!(
                        "\"{vn}\" => ::std::result::Result::Ok({name}::{vn}),\n"
                    )),
                    VariantKind::Named(fields) => {
                        let mut inits = String::new();
                        for f in fields {
                            inits.push_str(&format!(
                                "{f}: ::serde::Deserialize::deserialize(inner_map.get(\"{f}\").unwrap_or(&::serde::Value::Null))\
                                 .map_err(|e| ::serde::Error::field(\"{f}\", e))?,\n"
                            ));
                        }
                        keyed_arms.push_str(&format!(
                            "\"{vn}\" => {{\n\
                             let inner_map = inner.as_object().ok_or_else(|| ::serde::Error::custom(\"expected object for variant {vn}\"))?;\n\
                             ::std::result::Result::Ok({name}::{vn} {{\n{inits}}})\n}}\n"
                        ));
                    }
                    VariantKind::Tuple(arity) => {
                        if *arity == 1 {
                            keyed_arms.push_str(&format!(
                                "\"{vn}\" => ::std::result::Result::Ok({name}::{vn}(::serde::Deserialize::deserialize(inner)?)),\n"
                            ));
                        } else {
                            let mut elems = String::new();
                            for i in 0..*arity {
                                elems.push_str(&format!(
                                    "::serde::Deserialize::deserialize(arr.get({i}).unwrap_or(&::serde::Value::Null))?,\n"
                                ));
                            }
                            keyed_arms.push_str(&format!(
                                "\"{vn}\" => {{\n\
                                 let arr = inner.as_array().ok_or_else(|| ::serde::Error::custom(\"expected array for variant {vn}\"))?;\n\
                                 ::std::result::Result::Ok({name}::{vn}({elems}))\n}}\n"
                            ));
                        }
                    }
                }
            }
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn deserialize(value: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                         match value {{\n\
                             ::serde::Value::String(s) => match s.as_str() {{\n{unit_arms}\
                                 other => ::std::result::Result::Err(::serde::Error::custom(format!(\"unknown variant {{other}} of {name}\"))),\n\
                             }},\n\
                             ::serde::Value::Object(m) => {{\n\
                                 let (key, inner) = m.iter().next().ok_or_else(|| ::serde::Error::custom(\"empty variant object for {name}\"))?;\n\
                                 match key {{\n{keyed_arms}\
                                     other => ::std::result::Result::Err(::serde::Error::custom(format!(\"unknown variant {{other}} of {name}\"))),\n\
                                 }}\n\
                             }}\n\
                             _ => ::std::result::Result::Err(::serde::Error::custom(\"expected string or object for enum {name}\")),\n\
                         }}\n\
                     }}\n\
                 }}"
            )
        }
    };
    code.parse()
        .expect("serde_derive shim: generated Deserialize impl must parse")
}
