//! The benchmark's result line: one JSON object with exactly the keys
//! `correct`, `attempted`, `failed` and `metrics`, plus the small parser
//! `--calibrate` uses to read that line back from its child processes.
//!
//! Written by hand because the benchmark depends on the crates under
//! test only; the format is flat enough that a general JSON library would
//! add more than it saves.

use std::fmt::Write as _;

/// One reported metric: the value as measured and its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
}

/// What one benchmark run prints as the last line of its standard output.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// In declaration order (the order `BENCHMARK.json` lists them).
    pub metrics: Vec<(String, Metric)>,
}

/// A JSON number with all the digits `f64` round-trips through. JSON has
/// no NaN or infinity, so a missing measurement is refused here instead of
/// producing a line the driver cannot parse.
fn number(v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(format!("non-finite value {v}"))
    }
}

fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl RunResult {
    /// The single-line JSON form.
    ///
    /// # Errors
    /// When a metric value is NaN or infinite (named in the message).
    pub fn to_json(&self) -> Result<String, String> {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let value = number(m.value).map_err(|e| format!("metric {name}: {e}"))?;
            let _ = write!(
                s,
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                quoted(name),
                quoted(&m.unit)
            );
        }
        s.push_str("}}");
        Ok(s)
    }

    /// Parses a line produced by [`RunResult::to_json`].
    ///
    /// # Errors
    /// A description of the first thing that is not as expected.
    pub fn from_json(line: &str) -> Result<RunResult, String> {
        let top = Parser::new(line).document()?;
        let field = |k: &str| top.get(k).ok_or(format!("missing {k}"));
        let count = |k: &str| match field(k)? {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
            _ => Err(format!("{k} is not a whole number")),
        };
        let Value::Bool(correct) = *field("correct")? else {
            return Err("correct is not a boolean".into());
        };
        let Value::Object(entries) = field("metrics")? else {
            return Err("metrics is not an object".into());
        };
        let mut metrics = Vec::with_capacity(entries.len());
        for (name, m) in entries {
            match (m.get("value"), m.get("unit").and_then(Value::as_str)) {
                (Some(Value::Number(value)), Some(unit)) => metrics.push((
                    name.clone(),
                    Metric {
                        value: *value,
                        unit: unit.to_string(),
                    },
                )),
                _ => return Err(format!("metric {name} lacks value or unit")),
            }
        }
        Ok(RunResult {
            correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

/// A parsed JSON value; objects keep their key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(o) => o.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array (empty for anything else).
    #[cfg(test)]
    pub fn items(&self) -> &[Value] {
        match self {
            Value::Array(a) => a,
            _ => &[],
        }
    }

    /// The string, when this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses a whole JSON document.
///
/// # Errors
/// A description of the first syntax error.
#[cfg(test)]
pub fn parse(text: &str) -> Result<Value, String> {
    Parser::new(text).document()
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn document(mut self) -> Result<Value, String> {
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing input at byte {}", self.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    members.push((key, self.value()?));
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(members));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'"') => self.string().map(Value::String),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Value::Number)
                    .ok_or(format!("bad number at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(format!("expected string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|_| "string is not UTF-8".to_string());
                }
                Some(b'\\') => {
                    let esc = self.bytes.get(self.pos + 1).copied();
                    self.pos += 2;
                    match esc {
                        Some(b'n') => out.push(b'\n'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'r') => out.push(b'\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            out.extend_from_slice(hex.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        Some(c @ (b'"' | b'\\' | b'/')) => out.push(c),
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                Some(&c) => {
                    out.push(c);
                    self.pos += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_with_every_digit() {
        let r = RunResult {
            correct: true,
            attempted: 2000,
            failed: 0,
            metrics: vec![
                (
                    "latency_ms_p50".into(),
                    Metric {
                        value: 4.427_391_234_567_891,
                        unit: "ms".into(),
                    },
                ),
                (
                    "setup_s".into(),
                    Metric {
                        value: 1.25e-2,
                        unit: "s".into(),
                    },
                ),
            ],
        };
        let line = r.to_json().unwrap();
        assert!(!line.contains('\n'));
        assert_eq!(RunResult::from_json(&line).unwrap(), r);
    }

    #[test]
    fn non_finite_values_are_refused_by_name() {
        let r = RunResult {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![(
                "x".into(),
                Metric {
                    value: f64::NAN,
                    unit: "ms".into(),
                },
            )],
        };
        assert!(r.to_json().unwrap_err().contains("metric x"));
    }

    #[test]
    fn parser_handles_nesting_escapes_and_rejects_garbage() {
        let v = parse(r#"{"a": [1, -2.5e3, true, null], "b": {"c": "x\"yA"}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().items().len(), 4);
        assert_eq!(
            v.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\"yA")
        );
        assert!(parse("{\"a\": 1} trailing").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(RunResult::from_json("[]").is_err());
    }
}
