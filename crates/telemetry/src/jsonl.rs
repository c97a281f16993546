//! The `trace-v1` JSONL wire format: rendering and validation.
//!
//! A trace file is line-delimited JSON: a header object (schema name,
//! record/drop counts, caller metadata) followed by one flat object per
//! record. Rendering is **byte-deterministic**: field order is fixed,
//! floats go through the shortest-roundtrip formatter, and `u64` values
//! that can exceed 2⁵³ (the ordering key) are rendered as strings so
//! the file survives double-precision JSON parsers. Two runs that
//! produce the same trace stream therefore produce byte-identical
//! files at any `--threads`/`--shards` setting.
//!
//! Both directions work in place: [`JsonlSink`] writes each field
//! straight into its body buffer, and [`validate_trace`] parses each
//! line into one reused field buffer whose keys and unescaped strings
//! borrow from the input.
//!
//! See `docs/TRACE_JSON.md` for the field-by-field schema.

use std::borrow::Cow;
use std::fmt::Write as _;

use crate::event::{TraceEvent, TraceRecord};
use crate::sink::Recorder;

/// The schema identifier in the header line.
pub const SCHEMA: &str = "abe/trace-v1";

/// Escapes `s` as a JSON string literal (with quotes).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_str(&mut out, s);
    out
}

/// Appends `s` to `out` as a JSON string literal (with quotes).
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // `b` is ASCII, so `i` is a char boundary.
        out.push_str(&s[plain..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

/// Appends `x` as [`abe_stats::json_f64`] renders it.
fn push_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// Renders the header line (no trailing newline). `meta` holds extra
/// fields as `(name, raw JSON value)` pairs — encode strings with
/// [`json_str`] first.
pub fn render_header(records: u64, dropped: u64, meta: &[(&str, String)]) -> String {
    let mut out = format!(
        "{{\"schema\":{},\"records\":{records},\"dropped\":{dropped}",
        json_str(SCHEMA)
    );
    for (name, value) in meta {
        let _ = write!(out, ",{}:{}", json_str(name), value);
    }
    out.push('}');
    out
}

/// Renders one record line (no trailing newline).
pub fn render_record(rec: &TraceRecord) -> String {
    let mut out = String::new();
    write_record(&mut out, rec);
    out
}

/// Appends one record line (no trailing newline) to `out`.
fn write_record(out: &mut String, rec: &TraceRecord) {
    out.push_str("{\"t\":");
    push_f64(out, rec.time.as_secs());
    // Event names are lowercase ASCII: they need no escaping.
    let _ = write!(
        out,
        ",\"key\":\"{}\",\"sub\":{},\"ev\":\"{}\"",
        rec.key,
        rec.sub,
        rec.event.name()
    );
    match &rec.event {
        TraceEvent::Start { node }
        | TraceEvent::Tick { node }
        | TraceEvent::Crash { node }
        | TraceEvent::Recover { node } => push_field(out, "node", (*node).into()),
        TraceEvent::StateChange { node, to } => {
            push_field(out, "node", (*node).into());
            out.push_str(",\"to\":");
            push_json_str(out, to);
        }
        TraceEvent::Decide { node, value } => {
            push_field(out, "node", (*node).into());
            push_field(out, "value", *value);
        }
        TraceEvent::Send {
            edge,
            src,
            dst,
            seq,
            size,
            delay,
        } => {
            push_message(out, *edge, *src, *dst, *seq, *size);
            out.push_str(",\"delay\":");
            push_f64(out, *delay);
        }
        TraceEvent::Deliver {
            edge,
            src,
            dst,
            seq,
            size,
            payload,
        } => {
            push_message(out, *edge, *src, *dst, *seq, *size);
            if let Some(p) = payload {
                out.push_str(",\"payload\":");
                push_json_str(out, p);
            }
        }
        TraceEvent::DropCrash {
            edge,
            src,
            dst,
            seq,
            size,
        }
        | TraceEvent::DropPartition {
            edge,
            src,
            dst,
            seq,
            size,
        }
        | TraceEvent::DropRandom {
            edge,
            src,
            dst,
            seq,
            size,
        } => push_message(out, *edge, *src, *dst, *seq, *size),
    }
    out.push('}');
}

/// Appends the fields every message record carries.
fn push_message(out: &mut String, edge: u32, src: u32, dst: u32, seq: u64, size: u64) {
    push_field(out, "edge", edge.into());
    push_field(out, "src", src.into());
    push_field(out, "dst", dst.into());
    push_field(out, "seq", seq);
    push_field(out, "size", size);
}

/// Appends `,"name":value`.
fn push_field(out: &mut String, name: &str, value: u64) {
    let _ = write!(out, ",\"{name}\":{value}");
}

/// A [`Recorder`] that streams records into a `trace-v1` body (record
/// lines only; prepend [`render_header`] when writing a file).
#[derive(Debug, Clone, Default)]
pub struct JsonlSink {
    body: String,
    records: u64,
}

impl JsonlSink {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record lines written so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The accumulated record lines (each `\n`-terminated).
    pub fn body(&self) -> &str {
        &self.body
    }

    /// Consumes the sink, returning the record lines.
    pub fn into_body(self) -> String {
        self.body
    }
}

impl Recorder for JsonlSink {
    fn record(&mut self, rec: &TraceRecord) {
        write_record(&mut self.body, rec);
        self.body.push('\n');
        self.records += 1;
    }
}

/// Summary returned by a successful [`validate_trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFileSummary {
    /// Record lines counted (excludes the header).
    pub records: u64,
    /// The `"records"` count the header declared.
    pub declared_records: u64,
    /// The `"dropped"` count the header declared.
    pub declared_dropped: u64,
}

/// Validates a complete `trace-v1` file (header + records) against the
/// schema: JSON well-formedness of every line, required fields per event
/// type, non-decreasing time, contiguous `sub` numbering within each
/// `(t, key)` dispatch group, and header/record count agreement.
///
/// # Errors
///
/// Returns a message naming the first offending line.
pub fn validate_trace(text: &str) -> Result<TraceFileSummary, String> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or("empty trace file")?;
    let mut obj = FlatObject::default();
    obj.parse(header).map_err(|e| format!("header: {e}"))?;
    match obj.get("schema") {
        Some(JsonScalar::Str(s)) if s == SCHEMA => {}
        other => return Err(format!("header schema must be {SCHEMA:?}, got {other:?}")),
    }
    let declared_records = obj.get_u64("records").ok_or("header missing \"records\"")?;
    let declared_dropped = obj.get_u64("dropped").ok_or("header missing \"dropped\"")?;

    let mut records = 0u64;
    let mut prev_t = f64::NEG_INFINITY;
    let mut prev_group: Option<(f64, u64, u64)> = None; // (t, key, sub)
    for (lineno, line) in lines {
        if line.is_empty() {
            continue;
        }
        obj.parse(line)
            .map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let t = obj
            .get_f64("t")
            .ok_or_else(|| format!("line {}: missing numeric \"t\"", lineno + 1))?;
        let key = match obj.get("key") {
            Some(JsonScalar::Str(s)) => s
                .parse::<u64>()
                .map_err(|_| format!("line {}: \"key\" is not a u64 string", lineno + 1))?,
            _ => return Err(format!("line {}: missing string \"key\"", lineno + 1)),
        };
        let sub = obj
            .get_u64("sub")
            .ok_or_else(|| format!("line {}: missing numeric \"sub\"", lineno + 1))?;
        let ev: &str = match obj.get("ev") {
            Some(JsonScalar::Str(s)) => s,
            _ => return Err(format!("line {}: missing string \"ev\"", lineno + 1)),
        };
        if t < prev_t {
            return Err(format!("line {}: time went backwards", lineno + 1));
        }
        prev_t = t;
        // Records of one dispatch are contiguous with sub = 0, 1, 2, …
        match prev_group {
            Some((pt, pk, ps)) if pt == t && pk == key => {
                if sub != ps + 1 {
                    return Err(format!(
                        "line {}: sub {} does not continue {} within its dispatch group",
                        lineno + 1,
                        sub,
                        ps
                    ));
                }
            }
            _ => {
                if sub != 0 {
                    return Err(format!(
                        "line {}: dispatch group must start at sub 0, got {sub}",
                        lineno + 1
                    ));
                }
            }
        }
        prev_group = Some((t, key, sub));

        let require = |fields: &[&str]| -> Result<(), String> {
            for f in fields {
                if obj.get(f).is_none() {
                    return Err(format!("line {}: {ev:?} record missing {f:?}", lineno + 1));
                }
            }
            Ok(())
        };
        match ev {
            "start" | "tick" | "crash" | "recover" => require(&["node"])?,
            "state_change" => require(&["node", "to"])?,
            "decide" => require(&["node", "value"])?,
            "send" => require(&["edge", "src", "dst", "seq", "size", "delay"])?,
            "deliver" | "drop_crash" | "drop_partition" | "drop_random" => {
                require(&["edge", "src", "dst", "seq", "size"])?
            }
            other => return Err(format!("line {}: unknown event {other:?}", lineno + 1)),
        }
        records += 1;
    }
    if records != declared_records {
        return Err(format!(
            "header declares {declared_records} records but file has {records}"
        ));
    }
    Ok(TraceFileSummary {
        records,
        declared_records,
        declared_dropped,
    })
}

/// A scalar value in a flat JSON object. Strings borrow from the line
/// unless they held escapes.
#[derive(Debug, Clone, PartialEq)]
enum JsonScalar<'a> {
    Str(Cow<'a, str>),
    Num(f64),
}

/// The fields of one flat JSON object, in line order; reused across
/// lines so a whole file parses without a per-line allocation.
#[derive(Debug, Default)]
struct FlatObject<'a>(Vec<(Cow<'a, str>, JsonScalar<'a>)>);

impl<'a> FlatObject<'a> {
    fn get(&self, name: &str) -> Option<&JsonScalar<'a>> {
        self.0.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    fn get_f64(&self, name: &str) -> Option<f64> {
        match self.get(name) {
            Some(JsonScalar::Num(v)) => Some(*v),
            _ => None,
        }
    }

    fn get_u64(&self, name: &str) -> Option<u64> {
        let v = self.get_f64(name)?;
        (v >= 0.0 && v.fract() == 0.0).then_some(v as u64)
    }

    /// Replaces the fields with those of `line`, one flat JSON object
    /// (string keys; string or number values — all a `trace-v1` line
    /// ever contains).
    fn parse(&mut self, line: &'a str) -> Result<(), String> {
        self.0.clear();
        let mut cur = Cursor { line, pos: 0 };
        cur.skip_ws();
        if cur.bump() != Some(b'{') {
            return Err("expected '{'".into());
        }
        cur.skip_ws();
        if cur.peek() == Some(b'}') {
            // An empty object ends the parse: what follows is not read.
            return Ok(());
        }
        loop {
            cur.skip_ws();
            let key = cur.string()?;
            cur.skip_ws();
            if cur.bump() != Some(b':') {
                return Err(format!("expected ':' after key {key:?}"));
            }
            cur.skip_ws();
            let value = match cur.peek() {
                Some(b'"') => JsonScalar::Str(cur.string()?),
                Some(_) => JsonScalar::Num(cur.number()?),
                None => return Err("unexpected end of object".into()),
            };
            self.0.push((key, value));
            cur.skip_ws();
            match cur.peek() {
                Some(b',') => cur.pos += 1,
                Some(b'}') => {
                    cur.pos += 1;
                    break;
                }
                _ => return Err(format!("expected ',' or '}}', got {:?}", cur.char_here())),
            }
        }
        cur.skip_ws();
        if cur.pos < line.len() {
            return Err("trailing characters after object".into());
        }
        Ok(())
    }
}

/// A byte position in one line. It only ever stops after an ASCII byte
/// or at the start, so it always sits on a char boundary.
struct Cursor<'a> {
    line: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.line.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    /// The character at the cursor with its byte offset, as error
    /// messages quote it.
    fn char_here(&self) -> Option<(usize, char)> {
        self.line[self.pos..].chars().next().map(|c| (self.pos, c))
    }

    /// A string literal: borrowed when it holds no escape, decoded into
    /// an owned string otherwise.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        if self.peek() != Some(b'"') {
            return Err(format!("expected string, got {:?}", self.char_here()));
        }
        let start = self.pos + 1;
        // Bytes of multi-byte characters are all >= 0x80, so a byte scan
        // for the two ASCII delimiters cannot stop inside a character.
        let stop = self.line.as_bytes()[start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .map(|i| start + i)
            .ok_or("unterminated string")?;
        if self.line.as_bytes()[stop] == b'"' {
            self.pos = stop + 1;
            return Ok(Cow::Borrowed(&self.line[start..stop]));
        }
        self.decode(start, stop).map(Cow::Owned)
    }

    /// Decodes the rest of a string literal from its first escape at
    /// `escape`; `start` is the first byte after the opening quote.
    fn decode(&mut self, start: usize, escape: usize) -> Result<String, String> {
        let mut s = String::from(&self.line[start..escape]);
        let mut chars = self.line[escape..]
            .char_indices()
            .map(|(i, c)| (escape + i, c));
        loop {
            match chars.next() {
                Some((i, '"')) => {
                    self.pos = i + 1;
                    return Ok(s);
                }
                Some((_, '\\')) => match chars.next() {
                    Some((_, '"')) => s.push('"'),
                    Some((_, '\\')) => s.push('\\'),
                    Some((_, '/')) => s.push('/'),
                    Some((_, 'n')) => s.push('\n'),
                    Some((_, 'r')) => s.push('\r'),
                    Some((_, 't')) => s.push('\t'),
                    Some((_, 'u')) => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = chars
                                .next()
                                .and_then(|(_, c)| c.to_digit(16))
                                .ok_or("bad \\u escape")?;
                            code = code * 16 + d;
                        }
                        s.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some((_, c)) => s.push(c),
                None => return Err("unterminated string".into()),
            }
        }
    }

    /// A number token: everything up to `,`, `}` or whitespace.
    fn number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        let rest = &self.line.as_bytes()[start..];
        let len = rest
            .iter()
            .position(|&b| b == b',' || b == b'}' || b.is_ascii_whitespace())
            .unwrap_or(rest.len());
        self.pos = start + len;
        let text = &self.line[start..self.pos];
        // Up to 15 decimal digits stay below 2⁵³, so the integer converts
        // to f64 exactly — the value `str::parse` would return.
        if (1..=15).contains(&len) && text.bytes().all(|b| b.is_ascii_digit()) {
            let n = text.bytes().fold(0u64, |n, b| n * 10 + u64::from(b - b'0'));
            return Ok(n as f64);
        }
        text.parse::<f64>()
            .map_err(|_| format!("bad number {text:?}"))
    }
}

#[cfg(test)]
#[path = "jsonl_reference.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use abe_sim::{SimTime, SplitMix64};

    fn rec(t: f64, key: u64, sub: u32, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            time: SimTime::from_secs(t),
            key,
            sub,
            event,
        }
    }

    fn sample_file() -> String {
        let mut sink = JsonlSink::new();
        sink.record(&rec(0.0, 1, 0, TraceEvent::Start { node: 0 }));
        sink.record(&rec(
            0.5,
            100,
            0,
            TraceEvent::Deliver {
                edge: 0,
                src: 0,
                dst: 1,
                seq: 0,
                size: 16,
                payload: Some("\"msg\"".into()),
            },
        ));
        sink.record(&rec(
            0.5,
            100,
            1,
            TraceEvent::Send {
                edge: 1,
                src: 1,
                dst: 2,
                seq: 0,
                size: 16,
                delay: 0.25,
            },
        ));
        format!(
            "{}\n{}",
            render_header(sink.records(), 0, &[("experiment", json_str("e1"))]),
            sink.body()
        )
    }

    /// One record of every event variant, with the awkward values the
    /// renderer must get right: escapes in `to` and in payloads, a
    /// non-finite delay, and the largest key.
    fn every_variant() -> Vec<TraceRecord> {
        let (edge, src, dst, seq, size) = (5, 3, 4, 9, 24);
        vec![
            rec(0.0, 1, 0, TraceEvent::Start { node: 0 }),
            rec(0.1, 2, 0, TraceEvent::Tick { node: 3 }),
            rec(
                1.2345678901234567,
                u64::MAX,
                0,
                TraceEvent::Send {
                    edge,
                    src,
                    dst,
                    seq,
                    size,
                    delay: std::f64::consts::FRAC_1_SQRT_2,
                },
            ),
            rec(
                1.5,
                3,
                1,
                TraceEvent::Send {
                    edge,
                    src,
                    dst,
                    seq: u64::MAX,
                    size: 0,
                    delay: f64::INFINITY,
                },
            ),
            rec(
                2.0,
                4,
                0,
                TraceEvent::Deliver {
                    edge,
                    src,
                    dst,
                    seq,
                    size,
                    payload: None,
                },
            ),
            rec(
                2.0,
                4,
                1,
                TraceEvent::Deliver {
                    edge,
                    src,
                    dst,
                    seq,
                    size,
                    payload: Some("say \"hi\" \\ \u{1} é".into()),
                },
            ),
            rec(
                3.0,
                5,
                0,
                TraceEvent::DropCrash {
                    edge,
                    src,
                    dst,
                    seq,
                    size,
                },
            ),
            rec(
                3.0,
                5,
                1,
                TraceEvent::DropPartition {
                    edge,
                    src,
                    dst,
                    seq,
                    size,
                },
            ),
            rec(
                3.0,
                5,
                2,
                TraceEvent::DropRandom {
                    edge,
                    src,
                    dst,
                    seq,
                    size,
                },
            ),
            rec(4.0, 6, 0, TraceEvent::Crash { node: 4 }),
            rec(5.0, 7, 0, TraceEvent::Recover { node: 4 }),
            rec(
                1e-7,
                8,
                0,
                TraceEvent::StateChange {
                    node: 2,
                    to: "le\"ad\ner\t\\",
                },
            ),
            rec(
                1e21,
                9,
                0,
                TraceEvent::Decide {
                    node: 2,
                    value: u64::MAX,
                },
            ),
        ]
    }

    #[test]
    fn render_bytes_are_pinned() {
        let expected = [
            r#"{"t":0,"key":"1","sub":0,"ev":"start","node":0}"#,
            r#"{"t":0.1,"key":"2","sub":0,"ev":"tick","node":3}"#,
            r#"{"t":1.2345678901234567,"key":"18446744073709551615","sub":0,"ev":"send","edge":5,"src":3,"dst":4,"seq":9,"size":24,"delay":0.7071067811865476}"#,
            r#"{"t":1.5,"key":"3","sub":1,"ev":"send","edge":5,"src":3,"dst":4,"seq":18446744073709551615,"size":0,"delay":null}"#,
            r#"{"t":2,"key":"4","sub":0,"ev":"deliver","edge":5,"src":3,"dst":4,"seq":9,"size":24}"#,
            r#"{"t":2,"key":"4","sub":1,"ev":"deliver","edge":5,"src":3,"dst":4,"seq":9,"size":24,"payload":"say \"hi\" \\ \u0001 é"}"#,
            r#"{"t":3,"key":"5","sub":0,"ev":"drop_crash","edge":5,"src":3,"dst":4,"seq":9,"size":24}"#,
            r#"{"t":3,"key":"5","sub":1,"ev":"drop_partition","edge":5,"src":3,"dst":4,"seq":9,"size":24}"#,
            r#"{"t":3,"key":"5","sub":2,"ev":"drop_random","edge":5,"src":3,"dst":4,"seq":9,"size":24}"#,
            r#"{"t":4,"key":"6","sub":0,"ev":"crash","node":4}"#,
            r#"{"t":5,"key":"7","sub":0,"ev":"recover","node":4}"#,
            r#"{"t":0.0000001,"key":"8","sub":0,"ev":"state_change","node":2,"to":"le\"ad\ner\t\\"}"#,
            r#"{"t":1000000000000000000000,"key":"9","sub":0,"ev":"decide","node":2,"value":18446744073709551615}"#,
        ];
        let records = every_variant();
        assert_eq!(records.len(), expected.len());
        for (r, want) in records.iter().zip(expected) {
            assert_eq!(render_record(r), want);
        }
        let mut sink = JsonlSink::new();
        records.iter().for_each(|r| sink.record(r));
        assert_eq!(sink.body(), expected.map(|l| format!("{l}\n")).concat());
        assert_eq!(sink.records(), expected.len() as u64);
    }

    /// A valid file holding one record of every variant that has a
    /// finite delay, each record its own dispatch group.
    fn variant_file() -> String {
        let mut sink = JsonlSink::new();
        let finite = every_variant()
            .into_iter()
            .filter(|r| !matches!(r.event, TraceEvent::Send { delay, .. } if !delay.is_finite()));
        for (i, r) in finite.enumerate() {
            sink.record(&rec(i as f64 * 0.5, i as u64, 0, r.event));
        }
        let meta = [("cell", json_str("n=16 \u{e9}\u{1}"))];
        format!(
            "{}\n{}",
            render_header(sink.records(), 2, &meta),
            sink.body()
        )
    }

    /// Fragments a mutation splices in: structure, digits, whitespace,
    /// escapes (good and bad) and multi-byte UTF-8.
    const SPLICES: &[&str] = &[
        "\"",
        "\\",
        "{",
        "}",
        ",",
        ":",
        " ",
        "\t",
        "\r",
        "\n",
        "\u{c}",
        "\u{1}",
        "0",
        "7",
        "-",
        ".",
        "e",
        "+",
        "1e400",
        "NaN",
        "inf",
        "9007199254740993",
        "123456789012345",
        "1234567890123456",
        "18446744073709551616",
        "{}",
        "\\u0041",
        "\\u00e9",
        "\\ud83d",
        "\\u12",
        "\\x",
        "\\/",
        "\\\"",
        "\u{e9}",
        "\u{20ac}",
        "\u{1f600}",
    ];

    /// Applies one to three seeded mutations to `base`: flip one bit of
    /// a byte, splice in a fragment, or delete up to four bytes. Bytes
    /// that end up invalid UTF-8 become U+FFFD.
    fn mutate(base: &str, rng: &mut SplitMix64) -> String {
        let mut bytes = base.as_bytes().to_vec();
        for _ in 0..1 + rng.next_u64() % 3 {
            let at = (rng.next_u64() % (bytes.len() as u64 + 1)) as usize;
            match rng.next_u64() % 3 {
                0 if at < bytes.len() => bytes[at] ^= 1 << (rng.next_u64() % 8),
                1 => {
                    let splice = SPLICES[(rng.next_u64() % SPLICES.len() as u64) as usize];
                    bytes.splice(at..at, splice.bytes());
                }
                _ => {
                    let end = (at + 1 + (rng.next_u64() % 4) as usize).min(bytes.len());
                    bytes.drain(at.min(end)..end);
                }
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// Lines at the edges of what the validator accepts, each tried as a
    /// header and as the one record under a valid header.
    const EDGE_LINES: &[&str] = &[
        "{}",
        "{} trailing",
        " { } ",
        r#"{"a":1,}"#,
        r#"{"a":}"#,
        r#"{"a" 1}"#,
        r#"{"a":1 "b":2}"#,
        r#"{"t":0,"key":"1","sub":0,"ev":"tick","node":0}}"#,
        r#"{"t":NaN,"key":"1","sub":0,"ev":"tick","node":0}"#,
        r#"{"t":1e400,"key":"1","sub":0,"ev":"tick","node":0}"#,
        r#"{"t":-0,"key":"+1","sub":0,"ev":"tick","node":0}"#,
        r#"{"t":0,"key":"1","sub":1.0,"ev":"tick","node":0}"#,
        r#"{"\u0074":0,"key":"1","sub":0,"ev":"t\u0069ck","node":0}"#,
        "{\"t\":0,\"key\":\"1\",\"sub\":0,\"ev\":\"tick\",\"node\":0}\r",
        r#"{"t":0,"t":-1,"key":"1","sub":0,"ev":"tick","node":0}"#,
        r#"{"t":007,"key":"1","sub":00,"ev":"tick","node":12345678901234567890}"#,
        r#"{"t":0,"key":"1","sub":0,"ev":"send","edge":0,"src":0,"dst":1,"seq":0,"size":0,"delay":null}"#,
        "\u{feff}{\"t\":0}",
        r#"{"a":"\ud83d"}"#,
        r#"{"a":"\u00e"}"#,
        r#"{"a":"\x"}"#,
        r#"{"a":"é\"}"#,
        r#"{"a":"x"#,
        r#"{"schema":"abe/trace-v1","records":0,"dropped":0.5}"#,
        r#"{"schema":"abe/trace-v1","records":18446744073709551616,"dropped":0}"#,
        r#"{"schema":"abe\/trace-v1","records":0,"dropped":0}"#,
    ];

    #[test]
    fn validator_matches_the_reference_on_edge_and_mutated_files() {
        // Same verdict and same message as the reference, and no panic.
        let check = |text: &str| -> bool {
            let got = std::panic::catch_unwind(|| validate_trace(text))
                .unwrap_or_else(|_| panic!("validator panicked on {text:?}"));
            assert_eq!(got, reference::validate_trace(text), "on {text:?}");
            got.is_ok()
        };
        let bases = [sample_file(), variant_file()];
        for base in &bases {
            assert!(check(base), "{base}");
        }
        for line in EDGE_LINES {
            check(line);
            check(&format!("{}\n{line}", render_header(1, 0, &[])));
        }
        let mut rng = SplitMix64::new(0x7ace_f11e);
        let (mut ok, mut err) = (0, 0);
        for i in 0..6_000 {
            if check(&mutate(&bases[i % bases.len()], &mut rng)) {
                ok += 1;
            } else {
                err += 1;
            }
        }
        assert!(
            ok >= 100 && err >= 100,
            "mutations must reach both verdicts: {ok} ok, {err} err"
        );
    }

    #[test]
    fn rendered_traces_validate() {
        let file = sample_file();
        let summary = validate_trace(&file).unwrap();
        assert_eq!(summary.records, 3);
        assert_eq!(summary.declared_dropped, 0);
    }

    #[test]
    fn header_line_is_first_and_self_describing() {
        let file = sample_file();
        let first = file.lines().next().unwrap();
        assert!(first.starts_with("{\"schema\":\"abe/trace-v1\""));
        assert!(first.contains("\"experiment\":\"e1\""));
    }

    #[test]
    fn keys_render_as_strings() {
        let line = render_record(&rec(1.0, u64::MAX, 0, TraceEvent::Tick { node: 7 }));
        assert!(line.contains(&format!("\"key\":\"{}\"", u64::MAX)));
        assert!(validate_trace(&format!("{}\n{line}", render_header(1, 0, &[]))).is_ok());
    }

    #[test]
    fn validation_rejects_time_regression() {
        let file = format!(
            "{}\n{}\n{}",
            render_header(2, 0, &[]),
            render_record(&rec(2.0, 1, 0, TraceEvent::Tick { node: 0 })),
            render_record(&rec(1.0, 2, 0, TraceEvent::Tick { node: 0 })),
        );
        let err = validate_trace(&file).unwrap_err();
        assert!(err.contains("time went backwards"), "got: {err}");
    }

    #[test]
    fn validation_rejects_broken_sub_numbering() {
        let file = format!(
            "{}\n{}\n{}",
            render_header(2, 0, &[]),
            render_record(&rec(1.0, 5, 0, TraceEvent::Tick { node: 0 })),
            render_record(&rec(1.0, 5, 2, TraceEvent::Tick { node: 0 })),
        );
        let err = validate_trace(&file).unwrap_err();
        assert!(err.contains("does not continue"), "got: {err}");
    }

    #[test]
    fn validation_rejects_count_mismatch_and_bad_json() {
        let file = format!(
            "{}\n{}",
            render_header(5, 0, &[]),
            render_record(&rec(1.0, 1, 0, TraceEvent::Tick { node: 0 })),
        );
        assert!(validate_trace(&file).unwrap_err().contains("declares 5"));
        let garbage = format!("{}\nnot json", render_header(1, 0, &[]));
        assert!(validate_trace(&garbage).is_err());
        assert!(validate_trace("").is_err());
    }

    #[test]
    fn json_str_escapes_control_characters() {
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_str("a\nb"), "\"a\\nb\"");
        assert_eq!(json_str("a\u{1}b"), "\"a\\u0001b\"");
    }
}
