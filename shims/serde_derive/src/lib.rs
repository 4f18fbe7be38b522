//! Offline stand-in for `serde_derive`.
//!
//! Generates impls of the shim `serde::Serialize` / `serde::Deserialize`
//! traits (a `Content`-tree data model, see `shims/serde`). Because the
//! real `syn`/`quote` crates are unavailable offline, the item is parsed
//! directly from the `proc_macro::TokenStream`. Supported shapes — the
//! ones this workspace uses — are structs with named fields, enums of unit
//! variants, and enums of struct variants; anything else panics with a
//! clear message at expansion time.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// A parsed `struct`/`enum` item.
struct Item {
    name: String,
    kind: ItemKind,
}

/// A named field and whether it is `#[serde(default)]`.
type Field = (String, bool);

/// An enum variant: name plus optional named fields.
type Variant = (String, Option<Vec<Field>>);

enum ItemKind {
    /// Named fields of a struct.
    Struct(Vec<Field>),
    /// Enum variants.
    Enum(Vec<Variant>),
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let body = match &item.kind {
        ItemKind::Struct(fields) => {
            let entries: Vec<String> = fields
                .iter()
                .map(|(f, _)| {
                    format!(
                        "(::std::string::String::from(\"{f}\"), \
                         ::serde::Serialize::to_content(&self.{f}))"
                    )
                })
                .collect();
            format!("::serde::Content::Map(::std::vec![{}])", entries.join(", "))
        }
        ItemKind::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|(v, fields)| match fields {
                    None => format!(
                        "{n}::{v} => ::serde::Content::Str(\
                         ::std::string::String::from(\"{v}\")),",
                        n = item.name
                    ),
                    Some(fields) => {
                        let names: Vec<&str> = fields.iter().map(|(f, _)| f.as_str()).collect();
                        let binds = names.join(", ");
                        let entries: Vec<String> = names
                            .iter()
                            .map(|f| {
                                format!(
                                    "(::std::string::String::from(\"{f}\"), \
                                     ::serde::Serialize::to_content({f}))"
                                )
                            })
                            .collect();
                        format!(
                            "{n}::{v} {{ {binds} }} => ::serde::Content::Map(::std::vec![(\
                             ::std::string::String::from(\"{v}\"), \
                             ::serde::Content::Map(::std::vec![{e}]))]),",
                            n = item.name,
                            e = entries.join(", ")
                        )
                    }
                })
                .collect();
            format!("match self {{ {} }}", arms.join(" "))
        }
    };
    format!(
        "impl ::serde::Serialize for {n} {{\n\
         fn to_content(&self) -> ::serde::Content {{ {body} }}\n\
         }}",
        n = item.name
    )
    .parse()
    .expect("serde_derive: generated Serialize impl parses")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let body = match &item.kind {
        ItemKind::Struct(fields) => {
            let inits: Vec<String> = fields
                .iter()
                .map(|(f, default)| {
                    if *default {
                        format!(
                            "{f}: match ::serde::content_get(map, \"{f}\") {{\
                             ::std::result::Result::Ok(v) => \
                             ::serde::Deserialize::from_content(v)?,\
                             ::std::result::Result::Err(_) => \
                             ::std::default::Default::default(),\
                             }}"
                        )
                    } else {
                        format!(
                            "{f}: ::serde::Deserialize::from_content(\
                             ::serde::content_get(map, \"{f}\")?)?"
                        )
                    }
                })
                .collect();
            format!(
                "let map = c.as_map().ok_or_else(|| \
                 ::std::format!(\"expected map for {n}, got {{c:?}}\"))?;\n\
                 ::std::result::Result::Ok({n} {{ {i} }})",
                n = item.name,
                i = inits.join(", ")
            )
        }
        ItemKind::Enum(variants) => {
            let unit_arms: Vec<String> = variants
                .iter()
                .filter(|(_, f)| f.is_none())
                .map(|(v, _)| {
                    format!("\"{v}\" => ::std::result::Result::Ok({n}::{v}),", n = item.name)
                })
                .collect();
            let struct_arms: Vec<String> = variants
                .iter()
                .filter_map(|(v, f)| f.as_ref().map(|fields| (v, fields)))
                .map(|(v, fields)| {
                    let inits: Vec<String> = fields
                        .iter()
                        .map(|(f, _)| {
                            format!(
                                "{f}: ::serde::Deserialize::from_content(\
                                 ::serde::content_get(inner_map, \"{f}\")?)?"
                            )
                        })
                        .collect();
                    format!(
                        "\"{v}\" => {{\n\
                         let inner_map = inner.as_map().ok_or_else(|| \
                         ::std::format!(\"variant {n}::{v} expects a map\"))?;\n\
                         ::std::result::Result::Ok({n}::{v} {{ {i} }})\n\
                         }}",
                        n = item.name,
                        i = inits.join(", ")
                    )
                })
                .collect();
            format!(
                "match c {{\n\
                 ::serde::Content::Str(s) => match s.as_str() {{\n\
                 {unit}\n\
                 other => ::std::result::Result::Err(\
                 ::std::format!(\"unknown {n} variant {{other}}\")),\n\
                 }},\n\
                 ::serde::Content::Map(m) if m.len() == 1 => {{\n\
                 let (tag, inner) = &m[0];\n\
                 match tag.as_str() {{\n\
                 {st}\n\
                 other => ::std::result::Result::Err(\
                 ::std::format!(\"unknown {n} variant {{other}}\")),\n\
                 }}\n\
                 }},\n\
                 other => ::std::result::Result::Err(\
                 ::std::format!(\"bad content for enum {n}: {{other:?}}\")),\n\
                 }}",
                n = item.name,
                unit = unit_arms.join("\n"),
                st = struct_arms.join("\n"),
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {n} {{\n\
         fn from_content(c: &::serde::Content) -> \
         ::std::result::Result<Self, ::serde::DeError> {{ {body} }}\n\
         }}",
        n = item.name
    )
    .parse()
    .expect("serde_derive: generated Deserialize impl parses")
}

/// Parses the derive input item (struct with named fields, or enum of
/// unit/struct variants).
fn parse_item(input: TokenStream) -> Item {
    let mut tokens = input.into_iter().peekable();
    // Skip outer attributes and visibility.
    loop {
        match tokens.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                tokens.next();
                tokens.next(); // the [...] group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                tokens.next();
                if let Some(TokenTree::Group(g)) = tokens.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        tokens.next(); // pub(crate) etc.
                    }
                }
            }
            _ => break,
        }
    }
    let kind_kw = match tokens.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive: expected struct/enum, got {other:?}"),
    };
    let name = match tokens.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive: expected item name, got {other:?}"),
    };
    let body = loop {
        match tokens.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => break g,
            Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
                panic!("serde_derive shim: generic type `{name}` is not supported")
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => {
                panic!("serde_derive shim: unit/tuple struct `{name}` is not supported")
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                panic!("serde_derive shim: tuple struct `{name}` is not supported")
            }
            Some(_) => continue,
            None => panic!("serde_derive: unexpected end of input for `{name}`"),
        }
    };
    let kind = match kind_kw.as_str() {
        "struct" => ItemKind::Struct(parse_named_fields(body.stream(), &name)),
        "enum" => ItemKind::Enum(parse_variants(body.stream(), &name)),
        other => panic!("serde_derive: cannot derive for `{other}` items"),
    };
    Item { name, kind }
}

/// Parses `name: Type, …` out of a braces group, returning the names and
/// whether each carries `#[serde(default)]` (a missing field deserializes
/// as `Default::default()`).
fn parse_named_fields(stream: TokenStream, ctx: &str) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut tokens = stream.into_iter().peekable();
    'fields: loop {
        let mut default = false;
        // Skip attributes and visibility before the field name.
        loop {
            match tokens.peek() {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    tokens.next();
                    if let Some(TokenTree::Group(g)) = tokens.next() {
                        let attr: String = g.stream().to_string().split_whitespace().collect();
                        default |= attr == "serde(default)";
                    }
                }
                Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                    tokens.next();
                    if let Some(TokenTree::Group(g)) = tokens.peek() {
                        if g.delimiter() == Delimiter::Parenthesis {
                            tokens.next();
                        }
                    }
                }
                _ => break,
            }
        }
        let name = match tokens.next() {
            None => break 'fields,
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => panic!("serde_derive: expected field name in `{ctx}`, got {other:?}"),
        };
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde_derive: expected `:` after `{ctx}.{name}`, got {other:?}"),
        }
        fields.push((name, default));
        // Skip the type: consume until a comma at angle-bracket depth 0.
        let mut angle_depth = 0i32;
        loop {
            match tokens.next() {
                None => break 'fields,
                Some(TokenTree::Punct(p)) if p.as_char() == '<' => angle_depth += 1,
                Some(TokenTree::Punct(p)) if p.as_char() == '>' => angle_depth -= 1,
                Some(TokenTree::Punct(p)) if p.as_char() == ',' && angle_depth == 0 => {
                    continue 'fields;
                }
                Some(_) => {}
            }
        }
    }
    fields
}

/// Parses enum variants, returning `(name, Some(fields))` for struct
/// variants and `(name, None)` for unit variants.
fn parse_variants(stream: TokenStream, ctx: &str) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut tokens = stream.into_iter().peekable();
    'variants: loop {
        // Skip attributes before the variant name.
        while let Some(TokenTree::Punct(p)) = tokens.peek() {
            if p.as_char() == '#' {
                tokens.next();
                tokens.next();
            } else {
                break;
            }
        }
        let name = match tokens.next() {
            None => break 'variants,
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => panic!("serde_derive: expected variant name in `{ctx}`, got {other:?}"),
        };
        let mut fields = None;
        // Optional payload, discriminant, then comma.
        loop {
            match tokens.next() {
                None => {
                    variants.push((name, fields));
                    break 'variants;
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ',' => break,
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    fields = Some(parse_named_fields(g.stream(), ctx));
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    panic!("serde_derive shim: tuple variant `{ctx}::{name}` is not supported")
                }
                Some(_) => {} // discriminant tokens
            }
        }
        variants.push((name, fields));
    }
    variants
}
