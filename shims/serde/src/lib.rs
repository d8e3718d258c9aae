//! Offline shim for `serde`.
//!
//! Instead of upstream serde's visitor architecture, this shim models
//! serialization as conversion to and from a JSON [`Value`] tree:
//!
//! * [`Serialize`] — `fn to_value(&self) -> Value`
//! * [`Deserialize`] — `fn from_value(&Value) -> Result<Self, Error>`
//!
//! plus a [`json`] module that renders a `Value` to JSON text (compact or
//! pretty) and parses JSON text back. The derive macros re-exported from
//! `serde_derive` generate these impls for named-field structs, newtype
//! structs, and unit-variant enums — the shapes this workspace uses —
//! honouring the field attributes `#[serde(rename = "..")]` and
//! `#[serde(skip_serializing_if = "Option::is_none")]`. Every other
//! `#[serde(...)]` key is a compile error, never silently ignored
//! (`DERIVE.md` holds the doctests that pin this).
//!
//! Object key order is preserved as written by the serializer, and every
//! derive emits fields in declaration order, so serialized output is fully
//! deterministic — a property the telemetry determinism tests rely on.

pub use serde_derive::{Deserialize, Serialize};

/// A JSON document tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Array(Vec<Value>),
    /// Insertion-ordered object.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Look up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::U64(n) => Some(n),
            Value::I64(n) if n >= 0 => Some(n as u64),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::I64(n) => Some(n),
            Value::U64(n) if n <= i64::MAX as u64 => Some(n as i64),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::F64(x) => Some(x),
            Value::U64(n) => Some(n as f64),
            Value::I64(n) => Some(n as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Deserialization error: what was expected, and where.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    pub message: String,
}

impl Error {
    pub fn new(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
        }
    }

    pub fn expected(what: &str, got: &Value) -> Self {
        Error::new(format!("expected {what}, got {got:?}"))
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deserialize error: {}", self.message)
    }
}

impl std::error::Error for Error {}

/// Conversion into a [`Value`] tree.
pub trait Serialize {
    fn to_value(&self) -> Value;
}

/// Conversion from a [`Value`] tree.
pub trait Deserialize: Sized {
    fn from_value(v: &Value) -> Result<Self, Error>;
}

// ---- primitive impls ----

macro_rules! ser_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::U64(*self as u64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = v.as_u64().ok_or_else(|| Error::expected(stringify!($t), v))?;
                <$t>::try_from(n).map_err(|_| Error::expected(stringify!($t), v))
            }
        }
    )*};
}
ser_uint!(u8, u16, u32, u64, usize);

macro_rules! ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::I64(*self as i64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = v.as_i64().ok_or_else(|| Error::expected(stringify!($t), v))?;
                <$t>::try_from(n).map_err(|_| Error::expected(stringify!($t), v))
            }
        }
    )*};
}
ser_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}
impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_f64().ok_or_else(|| Error::expected("f64", v))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(f64::from(*self))
    }
}
impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_f64()
            .map(|x| x as f32)
            .ok_or_else(|| Error::expected("f32", v))
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}
impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_bool().ok_or_else(|| Error::expected("bool", v))
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}
impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(String::from)
            .ok_or_else(|| Error::expected("string", v))
    }
}

impl Serialize for &str {
    fn to_value(&self) -> Value {
        Value::Str((*self).to_string())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::expected("array", v))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}
impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v.as_array() {
            Some([a, b]) => Ok((A::from_value(a)?, B::from_value(b)?)),
            _ => Err(Error::expected("a 2-element array", v)),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<V: Serialize> Serialize for std::collections::BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}
impl<V: Deserialize> Deserialize for std::collections::BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Object(entries) => entries
                .iter()
                .map(|(k, val)| Ok((k.clone(), V::from_value(val)?)))
                .collect(),
            other => Err(Error::expected("object", other)),
        }
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}
impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

pub mod json;

/// The derive's attribute contract, run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../DERIVE.md")]
pub struct DeriveContract;
