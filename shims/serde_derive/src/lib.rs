//! Syn-free `#[derive(Serialize, Deserialize)]` for the offline serde shim.
//!
//! Parses the item's `TokenStream` directly (no `syn`/`quote` available
//! offline) and emits impls of `serde::Serialize` / `serde::Deserialize`
//! as rendered source re-parsed into a `TokenStream`. Supported shapes —
//! exactly those used in this workspace:
//!
//! * named-field structs          → JSON object, declaration order
//! * newtype structs `S(T)`       → the inner value, transparently
//! * unit-only enums              → the variant name as a JSON string
//!
//! Two field attributes are honoured, spelled as upstream spells them:
//! `#[serde(rename = "key")]` and
//! `#[serde(skip_serializing_if = "Option::is_none")]`. Any other
//! `#[serde(...)]` key, a `#[serde(...)]` on the item or a variant, other
//! struct shapes, generics and data-carrying enum variants are rejected
//! with a clear compile error rather than silently mis-serialized.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, Which::Serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, Which::Deserialize)
}

#[derive(Clone, Copy, PartialEq)]
enum Which {
    Serialize,
    Deserialize,
}

/// A `#[serde(...)]` field attribute the shim implements.
#[derive(PartialEq)]
enum Attr {
    Rename(String),
    SkipNone,
}

/// One named field: its Rust name, its JSON key, and whether a `None`
/// value is left out of the object.
struct Field {
    name: String,
    key: String,
    skip_none: bool,
}

enum Shape {
    Named(Vec<Field>),
    Newtype,
    Enum(Vec<String>),
}

struct Item {
    name: String,
    shape: Shape,
}

fn expand(input: TokenStream, which: Which) -> TokenStream {
    let item = match parse_item(input) {
        Ok(item) => item,
        Err(msg) => {
            let msg = format!("serde shim derive: {msg}");
            return format!("compile_error!({msg:?});").parse().unwrap();
        }
    };
    let code = match which {
        Which::Serialize => render_serialize(&item),
        Which::Deserialize => render_deserialize(&item),
    };
    code.parse().expect("derive shim generated invalid Rust")
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    if !parse_attrs_and_vis(&tokens, &mut i)?.is_empty() {
        return Err("container `#[serde(...)]` attributes are not supported".into());
    }
    let keyword = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => return Err("expected `struct` or `enum`".into()),
    };
    let name = match tokens.get(i + 1) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => return Err("expected type name".into()),
    };
    let (delimiter, body): (_, Vec<TokenTree>) = match tokens.get(i + 2) {
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
            return Err(format!("generic type `{name}` is not supported"))
        }
        Some(TokenTree::Group(g)) => (g.delimiter(), g.stream().into_iter().collect()),
        _ => (Delimiter::None, Vec::new()),
    };
    let shape = match (keyword.as_str(), delimiter) {
        ("struct", Delimiter::Brace) => Shape::Named(parse_named_fields(&body)?),
        ("struct", Delimiter::Parenthesis) if is_newtype(&body)? => Shape::Newtype,
        ("enum", Delimiter::Brace) => Shape::Enum(parse_unit_variants(&body, &name)?),
        _ => {
            return Err(format!(
                "`{name}`: only named-field and newtype structs are supported"
            ))
        }
    };
    Ok(Item { name, shape })
}

/// Advance past any `#[...]` attributes and a `pub` / `pub(...)`
/// visibility, returning the `#[serde(...)]` attributes among them.
/// Other attributes (docs, lints) pass.
fn parse_attrs_and_vis(tokens: &[TokenTree], i: &mut usize) -> Result<Vec<Attr>, String> {
    let mut attrs = Vec::new();
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                if let Some(TokenTree::Group(g)) = tokens.get(*i + 1) {
                    let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                    if let [TokenTree::Ident(id), TokenTree::Group(args)] = &inner[..] {
                        if id.to_string() == "serde" {
                            attrs.extend(parse_serde_args(args.stream())?);
                        }
                    }
                }
                *i += 2; // '#' then the bracketed group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    *i += 1;
                }
            }
            _ => return Ok(attrs),
        }
    }
}

/// The `key = "value"` list inside `#[serde(...)]`. Only the two
/// attributes this shim implements are accepted; any other key is an
/// error, never silently ignored.
fn parse_serde_args(stream: TokenStream) -> Result<Vec<Attr>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut attrs = Vec::new();
    for arg in tokens.split(|t| matches!(t, TokenTree::Punct(p) if p.as_char() == ',')) {
        let (key, value) = match arg {
            [] => continue,
            [TokenTree::Ident(k), TokenTree::Punct(eq), TokenTree::Literal(v)]
                if eq.as_char() == '=' =>
            {
                (k.to_string(), v.to_string())
            }
            [TokenTree::Ident(k), ..] => (k.to_string(), String::new()),
            _ => return Err("malformed `#[serde(...)]` attribute".into()),
        };
        let value = value
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .filter(|v| !v.contains('\\'));
        attrs.push(match (key.as_str(), value) {
            ("rename", Some(v)) => Attr::Rename(v.to_string()),
            ("skip_serializing_if", Some("Option::is_none")) => Attr::SkipNone,
            _ => {
                return Err(format!(
                    "`#[serde({key})]` is not supported; only `rename = \"..\"` and `skip_serializing_if = \"Option::is_none\"` are"
                ))
            }
        });
    }
    Ok(attrs)
}

/// Advance past one field type and its trailing comma, tracking angle
/// brackets so `BTreeMap<String, u64>` does not split on its comma.
fn skip_type(tokens: &[TokenTree], i: &mut usize) {
    let mut depth = 0i32;
    while let Some(t) = tokens.get(*i) {
        *i += 1;
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => return,
                _ => {}
            }
        }
    }
}

/// Fields of `{ a: T, b: U, .. }`.
fn parse_named_fields(tokens: &[TokenTree]) -> Result<Vec<Field>, String> {
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let attrs = parse_attrs_and_vis(tokens, &mut i)?;
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            _ => return Err("expected field name".into()),
        };
        match tokens.get(i + 1) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 2,
            _ => return Err(format!("expected `:` after `{name}`")),
        }
        skip_type(tokens, &mut i);
        let key = attrs.iter().find_map(|a| match a {
            Attr::Rename(key) => Some(key.clone()),
            Attr::SkipNone => None,
        });
        fields.push(Field {
            key: key.unwrap_or_else(|| name.clone()),
            name,
            skip_none: attrs.contains(&Attr::SkipNone),
        });
    }
    Ok(fields)
}

/// Whether `( .. )` holds exactly one field, which takes no attributes.
fn is_newtype(tokens: &[TokenTree]) -> Result<bool, String> {
    let mut i = 0;
    if !parse_attrs_and_vis(tokens, &mut i)?.is_empty() {
        return Err("`#[serde(...)]` on a newtype field is not supported".into());
    }
    skip_type(tokens, &mut i);
    Ok(i > 0 && i >= tokens.len())
}

fn parse_unit_variants(tokens: &[TokenTree], enum_name: &str) -> Result<Vec<String>, String> {
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !parse_attrs_and_vis(tokens, &mut i)?.is_empty() {
            return Err(format!(
                "variant `#[serde(...)]` attributes in `{enum_name}` are not supported"
            ));
        }
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            _ => return Err(format!("bad variant in `{enum_name}`")),
        };
        i += 1;
        match tokens.get(i) {
            None | Some(TokenTree::Punct(_)) => {
                // `,`, or `= discriminant` up to the next `,`.
                while let Some(t) = tokens.get(i) {
                    i += 1;
                    if matches!(t, TokenTree::Punct(p) if p.as_char() == ',') {
                        break;
                    }
                }
            }
            Some(TokenTree::Group(_)) => {
                return Err(format!(
                    "enum `{enum_name}` has data-carrying variant `{name}`; only unit variants are supported"
                ));
            }
            _ => return Err(format!("bad token in `{enum_name}`")),
        }
        variants.push(name);
    }
    Ok(variants)
}

fn render_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.shape {
        Shape::Named(fields) => {
            let pushes: String = fields
                .iter()
                .map(|Field { name: f, key, skip_none }| {
                    let push = format!(
                        "fields.push((::std::string::String::from({key:?}), serde::Serialize::to_value(&self.{f})));"
                    );
                    if *skip_none {
                        format!("if ::std::option::Option::is_some(&self.{f}) {{ {push} }}")
                    } else {
                        push
                    }
                })
                .collect();
            format!(
                "let mut fields = ::std::vec::Vec::with_capacity({}); {pushes} serde::Value::Object(fields)",
                fields.len()
            )
        }
        Shape::Newtype => "serde::Serialize::to_value(&self.0)".to_string(),
        Shape::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| format!("{name}::{v} => {v:?},"))
                .collect();
            format!(
                "serde::Value::Str(::std::string::String::from(match self {{ {} }}))",
                arms.join(" ")
            )
        }
    };
    format!(
        "impl serde::Serialize for {name} {{\n    fn to_value(&self) -> serde::Value {{ {body} }}\n}}\n"
    )
}

fn render_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.shape {
        Shape::Named(fields) => {
            let inits: Vec<String> = fields
                .iter()
                .map(|Field { name: f, key, .. }| {
                    format!(
                        "{f}: serde::Deserialize::from_value(v.get({key:?}).unwrap_or(&serde::Value::Null))?"
                    )
                })
                .collect();
            format!(
                "::std::result::Result::Ok({name} {{ {} }})",
                inits.join(", ")
            )
        }
        Shape::Newtype => {
            format!("::std::result::Result::Ok({name}(serde::Deserialize::from_value(v)?))")
        }
        Shape::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|var| format!("::std::option::Option::Some({var:?}) => ::std::result::Result::Ok({name}::{var}),"))
                .collect();
            format!(
                "match v.as_str() {{\n            {}\n            _ => ::std::result::Result::Err(serde::Error::expected({:?}, v)),\n        }}",
                arms.join("\n            "),
                format!("one of the unit variants of {name}")
            )
        }
    };
    format!(
        "impl serde::Deserialize for {name} {{\n    fn from_value(v: &serde::Value) -> ::std::result::Result<Self, serde::Error> {{\n        {body}\n    }}\n}}\n"
    )
}
