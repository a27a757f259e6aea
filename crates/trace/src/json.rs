//! A tiny JSON value parser (the build has no serde): [`parse_json`]
//! builds a [`Json`] tree — used by the `bench-diff` and
//! `explain --diff` binaries to read back `BENCH_*.json` trajectories
//! and `tossa-explain/1` dumps — and is the one JSON grammar of the
//! crate: [`crate::validate_json`] is this parser with the tree dropped.
//!
//! Numbers are held as `f64`; every integer the exporters write fits in
//! the 53-bit mantissa (nanosecond clocks and counters), so round-trips
//! are exact in practice. Objects keep insertion order and allow
//! duplicate keys ([`Json::get`] returns the first).

/// One parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// First value under `key` when `self` is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kvs) => kvs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, when `self` is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a `u64` (floored), when `self` is a non-negative
    /// number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string, when `self` is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, when `self` is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The key/value pairs, when `self` is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(kvs) => Some(kvs),
            _ => None,
        }
    }
}

/// Parses one JSON document into a [`Json`] tree.
///
/// # Errors
/// Returns a byte offset and description of the first syntax error.
pub fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = P {
        b: s.as_bytes(),
        at: 0,
    };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.at != p.b.len() {
        return Err(format!("trailing data at byte {}", p.at));
    }
    Ok(v)
}

struct P<'a> {
    b: &'a [u8],
    at: usize,
}

impl P<'_> {
    fn ws(&mut self) {
        while self.at < self.b.len() && matches!(self.b[self.at], b' ' | b'\t' | b'\n' | b'\r') {
            self.at += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.at).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("expected a value at byte {}", self.at)),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(v)
        } else {
            Err(format!("expected {word:?} at byte {}", self.at))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        self.ws();
        let mut kvs = Vec::new();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(kvs));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            let v = self.value()?;
            kvs.push((k, v));
            self.ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(kvs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        self.ws();
        let mut vs = Vec::new();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(vs));
        }
        loop {
            self.ws();
            vs.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(vs));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.at)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err("unterminated string".to_string());
            };
            self.at += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.at += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let h = self.peek().ok_or("truncated \\u escape")?;
                                let d = (h as char)
                                    .to_digit(16)
                                    .ok_or_else(|| format!("bad \\u escape at byte {}", self.at))?;
                                code = code * 16 + d;
                                self.at += 1;
                            }
                            // Surrogates are not paired up (the exporters
                            // never write any); replace them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.at)),
                    }
                }
                0x00..=0x1f => {
                    return Err(format!("raw control byte in string at {}", self.at - 1))
                }
                _ => {
                    // Re-borrow the full UTF-8 char starting here.
                    let start = self.at - 1;
                    let rest = &self.b[start..];
                    let ch_len = match rest[0] {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = std::str::from_utf8(&rest[..ch_len.min(rest.len())])
                        .map_err(|_| format!("invalid UTF-8 at byte {start}"))?;
                    out.push_str(chunk);
                    self.at = start + chunk.len();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        let mut digits = 0;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.at += 1;
            digits += 1;
        }
        if digits == 0 {
            return Err(format!("expected digits at byte {}", self.at));
        }
        if self.peek() == Some(b'.') {
            self.at += 1;
            let mut frac = 0;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.at += 1;
                frac += 1;
            }
            if frac == 0 {
                return Err(format!("expected fraction digits at byte {}", self.at));
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.at += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.at += 1;
            }
            let mut exp = 0;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.at += 1;
                exp += 1;
            }
            if exp == 0 {
                return Err(format!("expected exponent digits at byte {}", self.at));
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.at]).expect("digits are ASCII");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v =
            parse_json("{\"a\": [1, 2.5, -3e2], \"b\": {\"c\": \"x\\ny\"}, \"d\": null}").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn decodes_escapes_and_unicode() {
        let v = parse_json("\"q\\\"\\u0041\\t\\u00e9\"").unwrap();
        assert_eq!(v.as_str(), Some("q\"A\t\u{e9}"));
        let raw = parse_json("\"héllo\"").unwrap();
        assert_eq!(raw.as_str(), Some("héllo"));
    }

    #[test]
    fn rejects_what_the_validator_rejects() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\": }",
            "1.",
            "1e",
            "\"x",
            "{\"a\": 1} x",
        ] {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn round_trips_exporter_output() {
        let ((), data) = crate::capture(|| {
            crate::count(crate::Counter::CopiesPhi, 3);
            crate::span("coalesce", || {});
        });
        let line = crate::jsonl_record("f", "LphiC", &data);
        let v = parse_json(&line).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some("tossa-trace/1"));
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("copies_phi")
                .unwrap()
                .as_u64(),
            Some(3)
        );
        assert_eq!(v.get("spans").unwrap().as_arr().unwrap().len(), 1);
    }
}
