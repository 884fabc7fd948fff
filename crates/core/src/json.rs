//! The one JSON writer and reader (the workspace carries no serde).
//!
//! Every JSON document the framework emits — diagnostic snapshots, the
//! Chrome/Perfetto trace-event export — is built as a [`Json`] tree and
//! written by its `Display` impl; every tool and test that reads one
//! goes through [`Json::parse`]. `{}` writes compactly; `{:#}` on an
//! object writes each array member one element per line and ends with a
//! newline — the trace export's layout, which FTP `SITE TRACE` relays
//! line by line.

use std::fmt::{self, Write as _};

/// Containers may nest this deep; the reader refuses more rather than
/// recurse without bound on hostile input.
const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, kept exact: counters and the top histogram
    /// bucket reach past 2⁵³.
    U64(u64),
    /// Any other number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; members keep the order they were given in.
    Obj(Vec<(String, Json)>),
}

static NULL: Json = Json::Null;

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The exact non-negative integer this value is, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// The string this value is, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements of an array (none for any other value).
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    /// Parse exactly one JSON value spanning the whole of `text`.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, at: 0 };
        let value = p.value(0)?;
        p.skip_ws();
        if p.at == text.len() {
            Ok(value)
        } else {
            Err(p.err("trailing bytes after the value"))
        }
    }
}

/// `value["key"]`: the member, or `null` when absent or not an object —
/// so a path of lookups ends in one check.
impl std::ops::Index<&str> for Json {
    type Output = Json;
    fn index(&self, key: &str) -> &Json {
        match self {
            Json::Obj(members) => members
                .iter()
                .find(|(k, _)| k == key)
                .map_or(&NULL, |m| &m.1),
            _ => &NULL,
        }
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::U64(n)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for ch in s.chars() {
        match ch {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// `[`, the items `sep` apart, `]` — with `pad` inside the brackets.
fn write_items(f: &mut fmt::Formatter<'_>, items: &[Json], sep: &str, pad: &str) -> fmt::Result {
    write!(f, "[{pad}")?;
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            f.write_str(sep)?;
        }
        write!(f, "{item}")?;
    }
    write!(f, "{pad}]")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::U64(n) => write!(f, "{n}"),
            // `{:?}` keeps the point of an integral float, so it reads
            // back as the float it was; JSON has no NaN or infinity.
            Json::F64(x) if x.is_finite() => write!(f, "{x:?}"),
            Json::F64(_) => f.write_str("null"),
            Json::Str(s) => write_string(f, s),
            Json::Arr(items) => write_items(f, items, ",", ""),
            Json::Obj(members) => {
                let rows = f.alternate();
                f.write_char('{')?;
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_string(f, key)?;
                    f.write_char(':')?;
                    match value {
                        Json::Arr(items) if rows => write_items(f, items, ",\n", "\n")?,
                        _ => write!(f, "{value}")?,
                    }
                }
                f.write_str(if rows { "}\n" } else { "}" })
            }
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    at: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.at)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.at += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                let member = |p: &mut Self| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    if !p.eat(b':') {
                        return Err(p.err("expected ':'"));
                    }
                    Ok((key, p.value(depth + 1)?))
                };
                self.list(b'}', member).map(Json::Obj)
            }
            Some(b'[') => self.list(b']', |p| p.value(depth + 1)).map(Json::Arr),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// The comma-separated items of a container, from its opening bracket
    /// through `close`.
    fn list<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.at += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.skip_ws();
            if self.eat(close) {
                return Ok(items);
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or the closing bracket"));
            }
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.text[self.at..].starts_with(word) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(self.err("unknown literal"))
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.at;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        self.at - start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        let mut integral = !self.eat(b'-');
        let leading_zero = self.peek() == Some(b'0');
        let int_digits = self.digits();
        let mut ok = int_digits == 1 || (int_digits > 1 && !leading_zero);
        if self.eat(b'.') {
            integral = false;
            ok &= self.digits() > 0;
        }
        if self.eat(b'e') || self.eat(b'E') {
            integral = false;
            let _ = self.eat(b'+') || self.eat(b'-');
            ok &= self.digits() > 0;
        }
        let token = &self.text[start..self.at];
        if !ok {
            return Err(self.err("malformed number"));
        }
        match token.parse::<u64>() {
            Ok(n) if integral => Ok(Json::U64(n)),
            _ => token
                .parse()
                .map(Json::F64)
                .map_err(|_| self.err("malformed number")),
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        // (`from_str_radix` alone would take a sign.)
        let digits = self.text.get(self.at..self.at + 4);
        let digits = digits.filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()));
        let code = digits.and_then(|d| u32::from_str_radix(d, 16).ok());
        self.at += 4;
        code.ok_or_else(|| self.err("malformed \\u escape"))
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat(b'"') {
            return Err(self.err("expected a string"));
        }
        let mut out = String::new();
        loop {
            // Quotes, backslashes and controls are ASCII, so a run between
            // two of them is a whole number of characters.
            let run = self.at;
            while !matches!(self.peek(), None | Some(b'"' | b'\\' | 0..=0x1f)) {
                self.at += 1;
            }
            out.push_str(&self.text[run..self.at]);
            match self.peek() {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 2;
                    out.push(match self.text.as_bytes().get(self.at - 1) {
                        Some(c @ (b'"' | b'\\' | b'/')) => *c as char,
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            let mut code = self.hex4()?;
                            if (0xD800..0xDC00).contains(&code) && self.eat(b'\\') && self.eat(b'u')
                            {
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("lone surrogate"));
                                }
                                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            }
                            char::from_u32(code).ok_or_else(|| self.err("lone surrogate"))?
                        }
                        _ => return Err(self.err("unknown escape")),
                    });
                }
                Some(_) => return Err(self.err("raw control character in a string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_every_kind_compactly_and_escapes_strings() {
        let doc = Json::obj([
            ("n", Json::Null),
            ("t", Json::Bool(true)),
            ("max", u64::MAX.into()),
            ("half", Json::F64(-0.5)),
            ("s", "say \"hi\"\n\ttab\u{1}\\".into()),
            ("a", Json::Arr(vec![1u64.into(), Json::Arr(vec![])])),
            ("o", Json::obj::<&str>([])),
        ]);
        assert_eq!(
            doc.to_string(),
            "{\"n\":null,\"t\":true,\"max\":18446744073709551615,\"half\":-0.5,\
             \"s\":\"say \\\"hi\\\"\\n\\ttab\\u0001\\\\\",\"a\":[1,[]],\"o\":{}}"
        );
        assert_eq!(Json::parse(&doc.to_string()).unwrap(), doc);
    }

    #[test]
    fn row_layout_puts_one_array_element_per_line() {
        let doc = Json::obj([
            ("unit", "ms".into()),
            (
                "rows",
                Json::Arr(vec![1u64.into(), Json::obj([("k", 2u64.into())])]),
            ),
        ]);
        let text = format!("{doc:#}");
        assert_eq!(text, "{\"unit\":\"ms\",\"rows\":[\n1,\n{\"k\":2}\n]}\n");
        assert_eq!(Json::parse(&text).unwrap(), doc);
        let empty = Json::obj([("rows", Json::Arr(vec![]))]);
        assert_eq!(format!("{empty:#}"), "{\"rows\":[\n\n]}\n");
    }

    #[test]
    fn reads_numbers_escapes_and_paths() {
        let doc = Json::parse(
            " { \"a\" : [ 0 , -1 , 2.5e1 , 1E-2, 18446744073709551616 ] ,\n\
             \"s\" : \"\\u00e9\\ud83d\\ude00\\/\\b\" , \"deep\" : { \"x\" : { \"y\" : 7 } } } ",
        )
        .unwrap();
        assert_eq!(
            doc["a"].items(),
            [
                Json::U64(0),
                Json::F64(-1.0),
                Json::F64(25.0),
                Json::F64(0.01),
                Json::F64(18446744073709551616.0)
            ]
        );
        assert_eq!(doc["s"].as_str(), Some("é😀/\u{8}"));
        assert_eq!(doc["deep"]["x"]["y"].as_u64(), Some(7));
        assert_eq!(doc["deep"]["missing"]["y"], Json::Null);
        assert_eq!(doc["a"]["x"], Json::Null);
    }

    #[test]
    fn malformed_input_is_rejected() {
        for bad in [
            "",
            "{",
            "{\"a\":1,}",
            "[1 2]",
            "\"open",
            "{\"a\":1} x",
            "tru",
            "{a:1}",
            "[1,]",
            "01",
            "1.",
            "-",
            "1e",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\u+123\"",
            "\"\\ud800\"",
            "\"raw\nnewline\"",
            "{\"a\" 1}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(Json::parse(&deep).unwrap_err().contains("too deep"));
    }

    /// A random tree: strings carry quotes, backslashes, controls and
    /// wide characters; floats are kept off the integers' representation
    /// only by the writer's own point.
    fn tree(g: &mut propcheck::Gen, depth: usize) -> Json {
        let string = |g: &mut propcheck::Gen| {
            let mut s = g.text(0..12);
            for _ in 0..g.len(0..4) {
                s.push(*g.pick(&[
                    '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '/', '\u{7f}',
                ]));
            }
            s
        };
        match g.range(0..if depth == 0 { 5u8 } else { 7 }) {
            0 => Json::Null,
            1 => Json::Bool(g.bool()),
            2 => Json::U64(g.any()),
            3 => Json::F64((g.f64(-1e6..1e6) * 8.0).round() / 8.0),
            4 => Json::Str(string(g)),
            5 => Json::Arr(g.vec(0..5, |g| tree(g, depth - 1))),
            _ => Json::Obj(g.vec(0..5, |g| (string(g), tree(g, depth - 1)))),
        }
    }

    #[test]
    fn what_the_writer_emits_parses_back_to_the_same_tree() {
        propcheck::check(300, |g| {
            let doc = tree(g, 3);
            assert_eq!(Json::parse(&doc.to_string()).unwrap(), doc);
            assert_eq!(Json::parse(&format!("{doc:#}")).unwrap(), doc);
        });
    }
}
