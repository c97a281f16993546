//! The char-by-char `trace-v1` validator that the byte-level one in
//! `jsonl.rs` replaced, kept verbatim as the reference for the
//! differential test: both must return the same result on any input.

use super::{TraceFileSummary, SCHEMA};

/// Validates a complete `trace-v1` file (header + records) against the
/// schema: JSON well-formedness of every line, required fields per event
/// type, non-decreasing time, contiguous `sub` numbering within each
/// `(t, key)` dispatch group, and header/record count agreement.
///
/// # Errors
///
/// Returns a message naming the first offending line.
pub(super) fn validate_trace(text: &str) -> Result<TraceFileSummary, String> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or("empty trace file")?;
    let header = parse_flat_object(header).map_err(|e| format!("header: {e}"))?;
    match header.get("schema") {
        Some(JsonScalar::Str(s)) if s == SCHEMA => {}
        other => return Err(format!("header schema must be {SCHEMA:?}, got {other:?}")),
    }
    let declared_records = header
        .get_u64("records")
        .ok_or("header missing \"records\"")?;
    let declared_dropped = header
        .get_u64("dropped")
        .ok_or("header missing \"dropped\"")?;

    let mut records = 0u64;
    let mut prev_t = f64::NEG_INFINITY;
    let mut prev_group: Option<(f64, u64, u64)> = None; // (t, key, sub)
    for (lineno, line) in lines {
        if line.is_empty() {
            continue;
        }
        let obj = parse_flat_object(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
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
        let ev = match obj.get("ev") {
            Some(JsonScalar::Str(s)) => s.clone(),
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
        match ev.as_str() {
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

/// A scalar value in a flat JSON object.
#[derive(Debug, Clone, PartialEq)]
enum JsonScalar {
    Str(String),
    Num(f64),
}

#[derive(Debug, Default)]
struct FlatObject(Vec<(String, JsonScalar)>);

impl FlatObject {
    fn get(&self, name: &str) -> Option<&JsonScalar> {
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
}

/// Parses one flat JSON object (string keys; string or number values —
/// all a `trace-v1` line ever contains).
fn parse_flat_object(line: &str) -> Result<FlatObject, String> {
    let mut chars = line.char_indices().peekable();
    let mut out = FlatObject::default();

    fn skip_ws(chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>) {
        while matches!(chars.peek(), Some((_, c)) if c.is_ascii_whitespace()) {
            chars.next();
        }
    }
    fn parse_string(
        chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
    ) -> Result<String, String> {
        match chars.next() {
            Some((_, '"')) => {}
            other => return Err(format!("expected string, got {other:?}")),
        }
        let mut s = String::new();
        loop {
            match chars.next() {
                Some((_, '"')) => return Ok(s),
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

    skip_ws(&mut chars);
    match chars.next() {
        Some((_, '{')) => {}
        _ => return Err("expected '{'".into()),
    }
    skip_ws(&mut chars);
    if matches!(chars.peek(), Some((_, '}'))) {
        chars.next();
        return Ok(out);
    }
    loop {
        skip_ws(&mut chars);
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        match chars.next() {
            Some((_, ':')) => {}
            _ => return Err(format!("expected ':' after key {key:?}")),
        }
        skip_ws(&mut chars);
        let value = match chars.peek() {
            Some((_, '"')) => JsonScalar::Str(parse_string(&mut chars)?),
            Some(&(start, _)) => {
                let mut end = start;
                while let Some(&(i, c)) = chars.peek() {
                    if c == ',' || c == '}' || c.is_ascii_whitespace() {
                        break;
                    }
                    end = i + c.len_utf8();
                    chars.next();
                }
                let text = &line[start..end];
                JsonScalar::Num(
                    text.parse::<f64>()
                        .map_err(|_| format!("bad number {text:?}"))?,
                )
            }
            None => return Err("unexpected end of object".into()),
        };
        out.0.push((key, value));
        skip_ws(&mut chars);
        match chars.next() {
            Some((_, ',')) => continue,
            Some((_, '}')) => break,
            other => return Err(format!("expected ',' or '}}', got {other:?}")),
        }
    }
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return Err("trailing characters after object".into());
    }
    Ok(out)
}
