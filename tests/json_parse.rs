//! Differential test of the vendored JSON parser: the linear, depth-bounded
//! `serde::json::parse` must return exactly what the previous parser (kept
//! below as `reference`) returns on every input nested within the depth
//! bound, and `None` on every input nested deeper.

use proptest::prelude::*;
use ring_clustered::sim::RunResult;
use serde::json::{parse, Value};
use serde::{Deserialize, Serialize};

/// The nesting bound of `serde::json::parse` (pinned by
/// `nesting_bound_is_exact`).
const MAX_DEPTH: usize = 128;

/// The previous parser, verbatim: it re-validated the rest of the input as
/// UTF-8 for every string character and recursed without a bound. The
/// test-only oracle for the current one.
mod reference {
    use serde::json::Value;

    /// Parse one JSON document. `None` on any syntax error or trailing garbage.
    pub fn parse(text: &str) -> Option<Value> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos == bytes.len() {
            Some(v)
        } else {
            None
        }
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn eat(b: &[u8], pos: &mut usize, lit: &str) -> Option<()> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Some(())
        } else {
            None
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Option<Value> {
        skip_ws(b, pos);
        match *b.get(*pos)? {
            b'n' => eat(b, pos, "null").map(|_| Value::Null),
            b't' => eat(b, pos, "true").map(|_| Value::Bool(true)),
            b'f' => eat(b, pos, "false").map(|_| Value::Bool(false)),
            b'"' => parse_string(b, pos).map(Value::Str),
            b'[' => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Some(Value::Arr(items));
                }
                loop {
                    items.push(parse_value(b, pos)?);
                    skip_ws(b, pos);
                    match *b.get(*pos)? {
                        b',' => *pos += 1,
                        b']' => {
                            *pos += 1;
                            return Some(Value::Arr(items));
                        }
                        _ => return None,
                    }
                }
            }
            b'{' => {
                *pos += 1;
                let mut members = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Some(Value::Obj(members));
                }
                loop {
                    skip_ws(b, pos);
                    let key = parse_string(b, pos)?;
                    skip_ws(b, pos);
                    eat(b, pos, ":")?;
                    let value = parse_value(b, pos)?;
                    members.push((key, value));
                    skip_ws(b, pos);
                    match *b.get(*pos)? {
                        b',' => *pos += 1,
                        b'}' => {
                            *pos += 1;
                            return Some(Value::Obj(members));
                        }
                        _ => return None,
                    }
                }
            }
            _ => parse_number(b, pos).map(Value::Num),
        }
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Option<String> {
        eat(b, pos, "\"")?;
        let mut s = String::new();
        loop {
            let rest = std::str::from_utf8(&b[*pos..]).ok()?;
            let c = rest.chars().next()?;
            *pos += c.len_utf8();
            match c {
                '"' => return Some(s),
                '\\' => {
                    let e = *b.get(*pos)?;
                    *pos += 1;
                    match e {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = std::str::from_utf8(b.get(*pos..*pos + 4)?).ok()?;
                            *pos += 4;
                            let code = u32::from_str_radix(hex, 16).ok()?;
                            s.push(char::from_u32(code)?);
                        }
                        _ => return None,
                    }
                }
                c => s.push(c),
            }
        }
    }

    fn parse_number(b: &[u8], pos: &mut usize) -> Option<f64> {
        let start = *pos;
        if b.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
            *pos += 1;
        }
        std::str::from_utf8(&b[start..*pos]).ok()?.parse().ok()
    }
}

/// Arrays and objects on the deepest path of `v` (a scalar is 0 deep).
fn depth(v: &Value) -> usize {
    match v {
        Value::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        Value::Obj(members) => 1 + members.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
        _ => 0,
    }
}

/// The contract: the same answer as the reference within the bound, `None`
/// beyond it.
fn assert_agrees(text: &str) {
    let want = reference::parse(text);
    let got = parse(text);
    match &want {
        Some(v) if depth(v) > MAX_DEPTH => assert_eq!(got, None, "{text:?}"),
        _ => assert_eq!(got, want, "{text:?}"),
    }
}

/// Random document text from a SplitMix64 stream seeded by the proptest
/// case. A `hostile` generator also emits malformed numbers and escapes.
struct Gen {
    state: u64,
    hostile: bool,
}

impl Gen {
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T: ?Sized>(&mut self, options: &[&'a T]) -> &'a T {
        options[self.below(options.len())]
    }

    fn ws(&mut self, out: &mut String) {
        out.push_str(self.pick(&["", "", "", " ", "\t", "\n", "\r\n", "  "]));
    }

    /// A number token: mostly JSON, often one of the quirks `f64` parsing
    /// accepts (`+1`, `.5`, `5.`, `007`), and when hostile sometimes
    /// malformed (`1.2.3`).
    fn number(&mut self, out: &mut String) {
        if self.hostile && self.below(4) == 0 {
            out.push_str(self.pick(&[
                "1.2.3", "-", "+", ".", "e5", "1e", "--1", "1-2", "+-1", "1e+", "0x1", "-+1",
            ]));
            return;
        }
        if self.below(3) == 0 {
            out.push_str(self.pick(&[
                "0", "-0", "+1", ".5", "-.5", "5.", "1e5", "1E+5", "2e-3", "007", "1e999",
                "-1e-999", "1e22", "0.1", "1.5e300", "5e-324",
            ]));
            return;
        }
        out.push_str(self.pick(&["", "", "-", "+"]));
        let (int, frac) = match self.below(4) {
            0 => (0, 1 + self.below(3)),
            1 => (1 + self.below(3), 0),
            _ => (1 + self.below(3), self.below(3)),
        };
        for _ in 0..int {
            out.push(char::from(b'0' + self.below(10) as u8));
        }
        if frac > 0 || self.below(4) == 0 {
            out.push('.');
            for _ in 0..frac {
                out.push(char::from(b'0' + self.below(10) as u8));
            }
        }
        if self.below(3) == 0 {
            out.push_str(self.pick(&["e", "E", "e+", "e-", "E-"]));
            for _ in 0..1 + self.below(2) {
                out.push(char::from(b'0' + self.below(10) as u8));
            }
        }
    }

    /// A string token mixing ASCII, multibyte UTF-8, raw control bytes and
    /// every escape, including `\u` with odd hex, and when hostile bad
    /// escapes.
    fn string(&mut self, out: &mut String) {
        out.push('"');
        for _ in 0..self.below(10) {
            match self.below(23 + self.hostile as usize) {
                0..=9 => out.push_str(self.pick(&["a", "Z", "swim", " ", "[", "}", ":", ",", "'"])),
                10..=13 => out.push_str(self.pick(&["é", "中", "😀", "\u{10ffff}", "ß\u{301}"])),
                14 | 15 => out.push(char::from(self.below(0x20) as u8)),
                16..=19 => out.push_str(
                    self.pick(&["\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t"]),
                ),
                20..=22 => {
                    out.push_str("\\u");
                    let n = if self.hostile { 16 } else { 8 };
                    out.push_str(self.pick(
                        &[
                            "0041", "00e9", "00E9", "4e2D", "ffff", "0000", "+0041", "+041",
                            "-041", "d800", "DFFF", "12", "12g4", "é12", " 041", "++41",
                        ][..n],
                    ));
                }
                _ => out.push_str(self.pick(&["\\x", "\\'", "\\é", "\\ ", "\\U0041"])),
            }
        }
        out.push('"');
    }

    /// A value at most `levels` containers deep; `budget` caps the total
    /// number of containers in the document.
    fn value(&mut self, out: &mut String, levels: usize, budget: &mut usize) {
        self.ws(out);
        let container = levels > 0 && *budget > 0 && self.below(3) > 0;
        if container {
            *budget -= 1;
            let object = self.below(2) == 0;
            out.push(if object { '{' } else { '[' });
            let n = self.below(5);
            if n == 0 {
                self.ws(out);
            }
            for i in 0..n {
                if i > 0 {
                    out.push(',');
                }
                if object {
                    self.ws(out);
                    self.string(out);
                    self.ws(out);
                    out.push(':');
                }
                self.value(out, levels - 1, budget);
            }
            out.push(if object { '}' } else { ']' });
        } else {
            match self.below(6) {
                0 => out.push_str(self.pick(&["null", "true", "false"])),
                1 | 2 => self.number(out),
                _ => self.string(out),
            }
        }
        self.ws(out);
    }

    fn document(&mut self) -> String {
        let mut out = String::new();
        let mut budget = 24;
        let levels = 1 + self.below(7);
        self.value(&mut out, levels, &mut budget);
        out
    }

    /// `text` cut at a random character boundary.
    fn truncate(&mut self, text: &str) -> String {
        let mut cut = self.below(text.len() + 1);
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        text[..cut].to_string()
    }

    /// `text` with one to three characters replaced, inserted or deleted.
    fn mutate(&mut self, text: &str) -> String {
        let mut chars: Vec<char> = text.chars().collect();
        for _ in 0..1 + self.below(3) {
            let at = self.below(chars.len() + 1);
            let c = self
                .pick(&[
                    "\"", "\\", "[", "]", "{", "}", ",", ":", " ", "0", "-", "+", ".", "e", "u",
                    "n", "t", "é", "\u{0}", "\u{7f}",
                ])
                .chars()
                .next()
                .unwrap();
            match self.below(3) {
                0 if at < chars.len() => chars[at] = c,
                1 if at < chars.len() => {
                    chars.remove(at);
                }
                _ => chars.insert(at, c),
            }
        }
        chars.into_iter().collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

    #[test]
    fn linear_parser_matches_reference(seed in any::<u64>()) {
        let mut g = Gen { state: seed, hostile: seed.is_multiple_of(2) };
        let doc = g.document();
        assert_agrees(&doc);
        for _ in 0..4 {
            assert_agrees(&g.truncate(&doc));
            assert_agrees(&g.mutate(&doc));
        }
        // Two documents, or a document and trailing garbage.
        let tail = g.document();
        assert_agrees(&format!("{doc}{tail}"));
    }
}

#[test]
fn quirks_match_reference() {
    for text in [
        "+1",
        ".5",
        "5.",
        "-0",
        "007",
        "1e5",
        "1.2.3",
        "1e999",
        " \t\r\n1 ",
        "-",
        "",
        r#""\u+0041""#,
        r#""\u+041""#,
        r#""\ud800""#,
        r#""\u00e9""#,
        r#""\u12""#,
        "\"\u{1}\n\"",
        r#""é\u00e9""#,
        r#""\é""#,
        "[1,]",
        "{\"a\":1,}",
        "{\"a\" 1}",
        "[1 2]",
        "nul",
        "nullx",
        "{\"a\":1,\"a\":2}",
        "[[[]],{}]",
        "\"unterminated",
        "\"bad\\",
    ] {
        assert_agrees(text);
    }
    assert_eq!(parse("+1"), Some(Value::Num(1.0)));
    assert_eq!(parse(".5"), Some(Value::Num(0.5)));
    assert_eq!(parse(r#""\u+0041""#), Some(Value::Str("\u{4}1".into())));
    assert_eq!(parse(r#""\u+041""#), Some(Value::Str("A".into())));
    assert_eq!(parse("1.2.3"), None);
}

#[test]
fn nesting_bound_is_exact() {
    for open in ["[", "{\"k\":"] {
        let close = if open == "[" { "]" } else { "}" };
        let nest = |n: usize| format!("{}1{}", open.repeat(n), close.repeat(n));
        assert_eq!(parse(&nest(MAX_DEPTH)), reference::parse(&nest(MAX_DEPTH)));
        assert!(parse(&nest(MAX_DEPTH)).is_some());
        assert!(reference::parse(&nest(MAX_DEPTH + 1)).is_some());
        assert_eq!(parse(&nest(MAX_DEPTH + 1)), None);
    }
}

#[test]
fn hostile_nesting_is_rejected_without_recursing() {
    assert_eq!(parse(&"[".repeat(400 << 10)), None);
    assert_eq!(parse(&"{\"a\":".repeat(200 << 10)), None);
    let deep = format!("{}{}", "[".repeat(1 << 20), "]".repeat(1 << 20));
    assert_eq!(parse(&deep), None);
}

#[test]
fn example_specs_round_trip() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/specs");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let v = parse(&text).unwrap_or_else(|| panic!("{} does not parse", path.display()));
        assert_eq!(
            Some(&v),
            reference::parse(&text).as_ref(),
            "{}",
            path.display()
        );
        assert_eq!(parse(&v.to_pretty_string()).as_ref(), Some(&v));
        assert_eq!(parse(&v.to_compact_string()).as_ref(), Some(&v));
        seen += 1;
    }
    assert!(
        seen >= 5,
        "expected the committed example specs, found {seen}"
    );
}

#[test]
fn pretty_store_rows_round_trip() {
    let row = |config: &str, ipc: f64, shares: Vec<f64>| RunResult {
        config: config.into(),
        bench: "swim".into(),
        fp: true,
        ipc,
        comms_per_insn: 0.1 + 0.2,
        dist_per_comm: 1.3481012658227849,
        wait_per_comm: 1e-7,
        nready: 4.9e-324,
        dispatch_shares: shares,
        branch_miss_rate: 0.0,
        committed: 1 << 53,
        cycles: 43865,
    };
    for r in [
        row("Ring_4clus_1bus_2IW", 0.34342218400687874, vec![0.25; 4]),
        row("Conv_8clus_2bus_2IW~m:wide", 1.0 / 3.0, vec![0.125; 8]),
        row("Mesh \"q\"\\é\t", f64::MAX, Vec::new()),
    ] {
        let text = r.to_value().to_pretty_string();
        let v = parse(&text).unwrap();
        assert_eq!(Some(&v), reference::parse(&text).as_ref());
        assert_eq!(RunResult::from_value(&v), Some(r));
    }
}
