//! Minimal JSON: a `torchgt_compat::json::Value`-style tree, a writer, a parser, and
//! declarative impl macros standing in for `#[derive(Serialize,
//! Deserialize)]`.
//!
//! Structs and C-like enums declare themselves through [`json_struct!`] /
//! [`json_enum!`] (which also emit the [`ToJson`] / [`FromJson`] impls);
//! the [`json!`] macro covers the literal-object construction the bench
//! harnesses use. Object key order is insertion order, so output is
//! deterministic.

use std::fmt::Write as _;

/// A JSON number, preserving integer-ness across round-trips.
#[derive(Clone, Copy, Debug)]
pub enum Number {
    /// Signed integer.
    I(i64),
    /// Unsigned integer too large for `i64`.
    U(u64),
    /// Floating point.
    F(f64),
}

/// Numbers compare by value, not representation: `U(4)`, `I(4)` and
/// `F(4.0)` are all equal (the writer emits integral floats without a
/// decimal point and the parser reads bare integers as `I`, so a tree can
/// change representation across a round-trip without changing meaning).
impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        match (*self, *other) {
            (Number::I(a), Number::I(b)) => a == b,
            (Number::U(a), Number::U(b)) => a == b,
            (Number::F(a), Number::F(b)) => a == b,
            (Number::I(a), Number::U(b)) | (Number::U(b), Number::I(a)) => {
                u64::try_from(a).is_ok_and(|a| a == b)
            }
            (Number::I(a), Number::F(b)) | (Number::F(b), Number::I(a)) => b == a as f64,
            (Number::U(a), Number::F(b)) | (Number::F(b), Number::U(a)) => b == a as f64,
        }
    }
}

impl Number {
    /// Lossy view as `f64`.
    pub fn as_f64(self) -> f64 {
        match self {
            Number::I(v) => v as f64,
            Number::U(v) => v as f64,
            Number::F(v) => v,
        }
    }

    /// View as `u64` when exactly representable.
    pub fn as_u64(self) -> Option<u64> {
        match self {
            Number::I(v) => u64::try_from(v).ok(),
            Number::U(v) => Some(v),
            Number::F(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => {
                Some(v as u64)
            }
            Number::F(_) => None,
        }
    }

    /// View as `i64` when exactly representable.
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Number::I(v) => Some(v),
            Number::U(v) => i64::try_from(v).ok(),
            Number::F(v) if v.fract() == 0.0 && v >= i64::MIN as f64 && v <= i64::MAX as f64 => {
                Some(v as i64)
            }
            Number::F(_) => None,
        }
    }
}

/// A JSON document tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Number(Number),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion-ordered `(key, value)` pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// Unsigned-integer view.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Bool view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Serialization error (shape mismatches during decode share the type).
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError(pub String);

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

// ---------------------------------------------------------------------------
// Encode / decode traits
// ---------------------------------------------------------------------------

/// Encode into a [`Value`] (the `serde::Serialize` stand-in).
pub trait ToJson {
    /// Build the JSON tree for `self`.
    fn to_json(&self) -> Value;
}

/// Decode from a [`Value`] (the `serde::Deserialize` stand-in).
pub trait FromJson: Sized {
    /// Reconstruct `Self`, erroring on shape mismatch.
    fn from_json(v: &Value) -> Result<Self, JsonError>;
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl FromJson for Value {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_bool().ok_or_else(|| JsonError("expected bool".into()))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_str().map(str::to_string).ok_or_else(|| JsonError("expected string".into()))
    }
}

macro_rules! json_unsigned {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::Number(Number::U(*self as u64))
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Value) -> Result<Self, JsonError> {
                let n = v.as_u64().ok_or_else(|| JsonError("expected unsigned integer".into()))?;
                <$t>::try_from(n).map_err(|_| JsonError("integer out of range".into()))
            }
        }
    )*};
}
json_unsigned!(u8, u16, u32, u64, usize);

macro_rules! json_signed {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::Number(Number::I(*self as i64))
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Value) -> Result<Self, JsonError> {
                let n = match v {
                    Value::Number(n) => n.as_i64(),
                    _ => None,
                }
                .ok_or_else(|| JsonError("expected integer".into()))?;
                <$t>::try_from(n).map_err(|_| JsonError("integer out of range".into()))
            }
        }
    )*};
}
json_signed!(i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        if self.is_finite() {
            Value::Number(Number::F(*self))
        } else {
            Value::Null // JSON has no NaN/Inf; match serde_json.
        }
    }
}

impl FromJson for f64 {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_f64().ok_or_else(|| JsonError("expected number".into()))
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Value {
        (*self as f64).to_json()
    }
}

impl FromJson for f32 {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(f64::from_json(v)? as f32)
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(v) => v.to_json(),
            None => Value::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_json(other)?)),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_json).collect(),
            _ => err("expected array"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

/// Decode an object field (used by [`json_struct!`]). A missing key decodes
/// as `null`: an `Option` field reads as `None` — which is how a format
/// revision adds a field without a second copy of its manifest struct —
/// and every other type still reports the field as missing.
pub fn field<T: FromJson>(v: &Value, name: &str) -> Result<T, JsonError> {
    match v.get(name) {
        Some(f) => T::from_json(f).map_err(|e| JsonError(format!("field `{name}`: {}", e.0))),
        None => T::from_json(&Value::Null).or_else(|_| err(format!("missing field `{name}`"))),
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_number(out: &mut String, n: Number) {
    match n {
        Number::I(v) => {
            let _ = write!(out, "{v}");
        }
        Number::U(v) => {
            let _ = write!(out, "{v}");
        }
        Number::F(v) if v.is_finite() => {
            // `{}` on floats is the shortest round-trip representation.
            let _ = write!(out, "{v}");
        }
        Number::F(_) => out.push_str("null"),
    }
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => write_number(out, *n),
        Value::Str(s) => write_escaped(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent.map(|d| d + 1));
                write_value(out, item, indent.map(|d| d + 1));
            }
            newline_indent(out, indent);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent.map(|d| d + 1));
                write_escaped(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent.map(|d| d + 1));
            }
            newline_indent(out, indent);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>) {
    if let Some(depth) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

/// Compact serialization.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> Result<String, JsonError> {
    let mut out = String::new();
    write_value(&mut out, &value.to_json(), None);
    Ok(out)
}

/// Two-space-indented serialization (`torchgt_compat::json::to_string_pretty`).
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> Result<String, JsonError> {
    let mut out = String::new();
    write_value(&mut out, &value.to_json(), Some(0));
    Ok(out)
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn eat_keyword(&mut self, kw: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(v)
        } else {
            err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn parse_value(&mut self) -> Result<Value, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.eat_keyword("null", Value::Null),
            Some(b't') => self.eat_keyword("true", Value::Bool(true)),
            Some(b'f') => self.eat_keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| JsonError("truncated \\u escape".into()))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| JsonError("bad \\u escape".into()))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError("bad \\u escape".into()))?;
                            // Surrogate pairs are unsupported (the writer
                            // never emits them); map to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Advance one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| JsonError("invalid utf-8".into()))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError("invalid utf-8 in number".into()))?;
        let n = if float {
            Number::F(text.parse::<f64>().map_err(|_| JsonError(format!("bad number `{text}`")))?)
        } else if let Ok(i) = text.parse::<i64>() {
            Number::I(i)
        } else if let Ok(u) = text.parse::<u64>() {
            Number::U(u)
        } else {
            Number::F(text.parse::<f64>().map_err(|_| JsonError(format!("bad number `{text}`")))?)
        };
        Ok(Value::Number(n))
    }

    fn parse_array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

/// Parse a JSON document.
pub fn from_str(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return err(format!("trailing input at byte {}", p.pos));
    }
    Ok(v)
}

/// Parse and decode in one step.
pub fn from_str_as<T: FromJson>(input: &str) -> Result<T, JsonError> {
    T::from_json(&from_str(input)?)
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Build a [`Value`] literal: `json!({"key": expr, ...})`, `json!([..])`,
/// or `json!(expr)` for any [`ToJson`] expression.
#[macro_export]
macro_rules! json {
    (null) => { $crate::json::Value::Null };
    ({ $($key:literal : $val:expr),* $(,)? }) => {
        $crate::json::Value::Object(vec![
            $( (($key).to_string(), $crate::json::ToJson::to_json(&$val)) ),*
        ])
    };
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::json::Value::Array(vec![
            $( $crate::json::ToJson::to_json(&$elem) ),*
        ])
    };
    ($other:expr) => { $crate::json::ToJson::to_json(&$other) };
}

/// Declare a named-field struct together with its [`ToJson`] and
/// [`FromJson`] impls — the stand-in for `#[derive(Serialize,
/// Deserialize)]`.
#[macro_export]
macro_rules! json_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $fname:ident : $fty:ty ),* $(,)?
        }
    ) => {
        $crate::json_struct_ser! {
            $(#[$meta])*
            $vis struct $name {
                $( $(#[$fmeta])* $fvis $fname : $fty ),*
            }
        }

        impl $crate::json::FromJson for $name {
            fn from_json(v: &$crate::json::Value) -> Result<Self, $crate::json::JsonError> {
                Ok(Self {
                    $( $fname: $crate::json::field(v, stringify!($fname))? ),*
                })
            }
        }
    };
}

/// Like [`json_struct!`] but serialize-only, for structs whose fields (e.g.
/// `&'static str`) cannot be reconstructed from parsed input.
#[macro_export]
macro_rules! json_struct_ser {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $fname:ident : $fty:ty ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $fname : $fty ),*
        }

        impl $crate::json::ToJson for $name {
            fn to_json(&self) -> $crate::json::Value {
                $crate::json::Value::Object(vec![
                    $( (stringify!($fname).to_string(),
                        $crate::json::ToJson::to_json(&self.$fname)) ),*
                ])
            }
        }
    };
}

/// Declare a C-like enum together with string-keyed [`ToJson`] /
/// [`FromJson`] impls (variants encode as their names).
#[macro_export]
macro_rules! json_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $( $(#[$vmeta:meta])* $variant:ident ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $( $(#[$vmeta])* $variant ),*
        }

        impl $crate::json::ToJson for $name {
            fn to_json(&self) -> $crate::json::Value {
                match self {
                    $( Self::$variant =>
                        $crate::json::Value::Str(stringify!($variant).to_string()) ),*
                }
            }
        }

        impl $crate::json::FromJson for $name {
            fn from_json(v: &$crate::json::Value) -> Result<Self, $crate::json::JsonError> {
                match v.as_str() {
                    $( Some(stringify!($variant)) => Ok(Self::$variant), )*
                    Some(other) => Err($crate::json::JsonError(
                        format!("unknown {} variant `{other}`", stringify!($name)))),
                    None => Err($crate::json::JsonError(
                        format!("expected string for enum {}", stringify!($name)))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::json_struct! {
        /// Round-trip fixture.
        #[derive(Clone, Debug, PartialEq)]
        pub struct Fixture {
            pub count: usize,
            pub rate: f64,
            pub label: String,
            pub maybe: Option<f64>,
            pub items: Vec<u32>,
        }
    }

    crate::json_enum! {
        #[derive(Clone, Copy, Debug, PartialEq)]
        pub enum Kind { Alpha, Beta }
    }

    #[test]
    fn struct_round_trip() {
        let v = Fixture {
            count: 7,
            rate: 0.125,
            label: "hello \"world\"\n".into(),
            maybe: None,
            items: vec![1, 2, 3],
        };
        let s = to_string(&v).unwrap();
        let back: Fixture = from_str_as(&s).unwrap();
        assert_eq!(back, v);
        let pretty = to_string_pretty(&v).unwrap();
        let back2: Fixture = from_str_as(&pretty).unwrap();
        assert_eq!(back2, v);
    }

    #[test]
    fn missing_key_decodes_as_null() {
        // `Option` field absent: the shape an older writer produced.
        let older = r#"{"count": 7, "rate": 0.5, "label": "x", "items": []}"#;
        let v: Fixture = from_str_as(older).unwrap();
        assert_eq!(v.maybe, None);
        assert_eq!(v.count, 7);
        // A missing non-`Option` field is still an error that names it.
        let e = from_str_as::<Fixture>(r#"{"count": 7, "rate": 0.5, "items": []}"#).unwrap_err();
        assert!(e.to_string().contains("missing field `label`"), "{e}");
        let e = from_str_as::<Fixture>(r#"{"rate": 0.5, "label": "x", "items": []}"#).unwrap_err();
        assert!(e.to_string().contains("missing field `count`"), "{e}");
    }

    #[test]
    fn enum_round_trip() {
        for k in [Kind::Alpha, Kind::Beta] {
            let s = to_string(&k).unwrap();
            assert_eq!(from_str_as::<Kind>(&s).unwrap(), k);
        }
        assert!(from_str_as::<Kind>("\"Gamma\"").is_err());
    }

    #[test]
    fn json_macro_shapes() {
        let label = "run";
        let acc = 0.93f64;
        let v = crate::json!({"pattern": label, "test_acc": acc, "n": 5usize});
        assert_eq!(v.get("pattern").unwrap().as_str(), Some("run"));
        assert_eq!(v.get("test_acc").unwrap().as_f64(), Some(0.93));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(5));
        let rows = vec![v.clone(), v];
        let arr = crate::json!(rows);
        assert_eq!(arr.as_array().unwrap().len(), 2);
    }

    #[test]
    fn parser_handles_nesting_and_numbers() {
        let v = from_str(r#" {"a": [1, -2.5, 1e3, true, null], "b": {"c": "d"}} "#).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(-2.5));
        assert_eq!(a[2].as_f64(), Some(1000.0));
        assert_eq!(a[3].as_bool(), Some(true));
        assert_eq!(a[4], Value::Null);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("d"));
        assert!(from_str("{\"a\": }").is_err());
        assert!(from_str("[1, 2] trailing").is_err());
    }

    #[test]
    fn float_round_trip_is_exact() {
        for x in [0.1f64, 1.0 / 3.0, 6.02214076e23, -1e-300, 0.0] {
            let s = to_string(&x).unwrap();
            let back: f64 = from_str_as(&s).unwrap();
            assert_eq!(back, x, "round-trip of {x} via `{s}`");
        }
        // Non-finite floats degrade to null, as in serde_json.
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    }
}
