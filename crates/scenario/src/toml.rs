//! Hand-rolled TOML subset parser and serializer.
//!
//! The workspace is intentionally dependency-free, so the scenario
//! catalog's file format is implemented in-tree, mirroring
//! `simcore::json`. The subset covers everything the catalog schema
//! needs and nothing more:
//!
//! - bare keys (`[A-Za-z0-9_-]+`) and dotted table headers;
//! - `[table]` headers and `[[array-of-tables]]` headers;
//! - basic strings (`"..."` with `\"`, `\\`, `\n`, `\t` escapes),
//!   integers, floats (including `inf`/`-inf` and exponents), booleans,
//!   and inline arrays (which may span lines until brackets balance);
//! - `#` comments, whole-line or trailing.
//!
//! Parse errors are typed [`SprintError::Parse`] values carrying a line
//! number; duplicate keys and duplicate table headers are rejected. The
//! serializer emits a canonical layout (root scalars first, then
//! sub-tables, then arrays-of-tables) that the parser round-trips.

use simcore::SprintError;

/// One TOML value. Tables keep insertion order so serialization is
/// deterministic and round-trips are stable.
#[derive(Debug, Clone, PartialEq)]
pub enum TomlValue {
    /// A basic string.
    Str(String),
    /// A 64-bit signed integer.
    Int(i64),
    /// A 64-bit float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// An inline array.
    Arr(Vec<TomlValue>),
    /// A table: ordered key → value pairs.
    Table(Vec<(String, TomlValue)>),
}

impl TomlValue {
    /// An empty table.
    pub fn table() -> TomlValue {
        TomlValue::Table(Vec::new())
    }

    /// Looks up a key in a table.
    pub fn get(&self, key: &str) -> Option<&TomlValue> {
        match self {
            TomlValue::Table(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            TomlValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            TomlValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The numeric payload as f64 (integers coerce).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            TomlValue::Float(f) => Some(*f),
            TomlValue::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            TomlValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[TomlValue]> {
        match self {
            TomlValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Inserts a key into a table, erroring on duplicates.
    fn insert(&mut self, key: &str, value: TomlValue, line: usize) -> Result<(), SprintError> {
        let TomlValue::Table(pairs) = self else {
            return Err(parse_err(line, format!("`{key}` is not inside a table")));
        };
        if pairs.iter().any(|(k, _)| k == key) {
            return Err(parse_err(line, format!("duplicate key `{key}`")));
        }
        pairs.push((key.to_string(), value));
        Ok(())
    }
}

fn parse_err(line: usize, msg: impl Into<String>) -> SprintError {
    SprintError::Parse(format!("line {line}: {}", msg.into()))
}

fn valid_key(key: &str) -> bool {
    !key.is_empty()
        && key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

/// Strips a trailing `#` comment, respecting string literals.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Whether every bracket/brace is balanced outside strings — used to
/// let inline arrays span lines.
fn brackets_balanced(s: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    let mut escaped = false;
    for c in s.chars() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth <= 0 && !in_str
}

/// Parses a TOML document into its root table.
///
/// # Errors
///
/// Returns [`SprintError::Parse`] with a line number on any syntax
/// error, duplicate key, or duplicate table header.
pub fn parse(input: &str) -> Result<TomlValue, SprintError> {
    let mut root = TomlValue::table();
    // Path of the table currently receiving `key = value` lines; empty
    // means the root. The final component may address the *last*
    // element of an array-of-tables.
    let mut current: Vec<String> = Vec::new();
    let mut headers_seen: Vec<String> = Vec::new();

    let lines: Vec<&str> = input.lines().collect();
    let mut i = 0usize;
    while i < lines.len() {
        let lineno = i + 1;
        let raw = strip_comment(lines[i]);
        let line = raw.trim();
        i += 1;
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
            let path = parse_header_path(header, lineno)?;
            append_array_table(&mut root, &path, lineno)?;
            current = path;
            continue;
        }
        if let Some(header) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            let path = parse_header_path(header, lineno)?;
            let canonical = path.join(".");
            if headers_seen.contains(&canonical) {
                return Err(parse_err(lineno, format!("duplicate table [{canonical}]")));
            }
            headers_seen.push(canonical);
            ensure_table(&mut root, &path, lineno)?;
            current = path;
            continue;
        }
        let Some(eq) = find_unquoted(line, '=') else {
            return Err(parse_err(lineno, format!("expected `key = value`: {line}")));
        };
        let key = line[..eq].trim();
        if !valid_key(key) {
            return Err(parse_err(lineno, format!("invalid key `{key}`")));
        }
        // Inline arrays may span lines: accumulate until brackets
        // balance outside strings.
        let mut value_src = line[eq + 1..].trim().to_string();
        while !brackets_balanced(&value_src) {
            if i >= lines.len() {
                return Err(parse_err(lineno, "unterminated array"));
            }
            value_src.push(' ');
            value_src.push_str(strip_comment(lines[i]).trim());
            i += 1;
        }
        let value = parse_value(value_src.trim(), lineno)?;
        let target = navigate_mut(&mut root, &current, lineno)?;
        target.insert(key, value, lineno)?;
    }
    Ok(root)
}

/// Finds a character outside string literals.
fn find_unquoted(s: &str, needle: char) -> Option<usize> {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            c2 if c2 == needle && !in_str => return Some(i),
            _ => {}
        }
    }
    None
}

fn parse_header_path(header: &str, line: usize) -> Result<Vec<String>, SprintError> {
    let parts: Vec<String> = header
        .trim()
        .split('.')
        .map(|p| p.trim().to_string())
        .collect();
    for p in &parts {
        if !valid_key(p) {
            return Err(parse_err(line, format!("invalid table name `{p}`")));
        }
    }
    Ok(parts)
}

/// Walks `path` creating intermediate tables; errors if a component is
/// a non-table scalar. The final component of an array-of-tables path
/// resolves to its last element.
fn navigate_mut<'a>(
    root: &'a mut TomlValue,
    path: &[String],
    line: usize,
) -> Result<&'a mut TomlValue, SprintError> {
    let mut cur = root;
    for part in path {
        let TomlValue::Table(pairs) = cur else {
            return Err(parse_err(line, format!("`{part}` addresses a non-table")));
        };
        if !pairs.iter().any(|(k, _)| k == part) {
            pairs.push((part.clone(), TomlValue::table()));
        }
        let slot = pairs
            .iter_mut()
            .find(|(k, _)| k == part)
            .map(|(_, v)| v)
            .expect("just ensured");
        cur = match slot {
            TomlValue::Arr(items) => items
                .last_mut()
                .ok_or_else(|| parse_err(line, format!("empty array-of-tables `{part}`")))?,
            other => other,
        };
    }
    Ok(cur)
}

fn ensure_table(root: &mut TomlValue, path: &[String], line: usize) -> Result<(), SprintError> {
    let t = navigate_mut(root, path, line)?;
    if !matches!(t, TomlValue::Table(_)) {
        return Err(parse_err(
            line,
            format!("[{}] is not a table", path.join(".")),
        ));
    }
    Ok(())
}

fn append_array_table(
    root: &mut TomlValue,
    path: &[String],
    line: usize,
) -> Result<(), SprintError> {
    let (parent, leaf) = path.split_at(path.len() - 1);
    let leaf = &leaf[0];
    let t = navigate_mut(root, parent, line)?;
    let TomlValue::Table(pairs) = t else {
        return Err(parse_err(line, format!("[[{leaf}]] parent is not a table")));
    };
    match pairs.iter_mut().find(|(k, _)| k == leaf) {
        None => pairs.push((leaf.clone(), TomlValue::Arr(vec![TomlValue::table()]))),
        Some((_, TomlValue::Arr(items))) => items.push(TomlValue::table()),
        Some(_) => {
            return Err(parse_err(
                line,
                format!("[[{leaf}]] conflicts with an existing non-array key"),
            ))
        }
    }
    Ok(())
}

fn parse_value(src: &str, line: usize) -> Result<TomlValue, SprintError> {
    if src.is_empty() {
        return Err(parse_err(line, "missing value"));
    }
    if src.starts_with('"') {
        return parse_string(src, line).map(TomlValue::Str);
    }
    if src.starts_with('[') {
        return parse_array(src, line);
    }
    match src {
        "true" => return Ok(TomlValue::Bool(true)),
        "false" => return Ok(TomlValue::Bool(false)),
        "inf" | "+inf" => return Ok(TomlValue::Float(f64::INFINITY)),
        "-inf" => return Ok(TomlValue::Float(f64::NEG_INFINITY)),
        _ => {}
    }
    let cleaned: String = src.chars().filter(|&c| c != '_').collect();
    let is_float = cleaned.contains('.') || cleaned.contains('e') || cleaned.contains('E');
    if is_float {
        if let Ok(f) = cleaned.parse::<f64>() {
            if f.is_nan() {
                return Err(parse_err(line, "nan is not a valid catalog value"));
            }
            return Ok(TomlValue::Float(f));
        }
    } else if let Ok(n) = cleaned.parse::<i64>() {
        return Ok(TomlValue::Int(n));
    }
    Err(parse_err(line, format!("unrecognized value `{src}`")))
}

fn parse_string(src: &str, line: usize) -> Result<String, SprintError> {
    let inner = src
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| parse_err(line, format!("unterminated string {src}")))?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '"' {
            return Err(parse_err(line, "string contains an unescaped quote"));
        }
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            other => {
                return Err(parse_err(
                    line,
                    format!(
                        "unsupported escape \\{}",
                        other.map_or(String::new(), String::from)
                    ),
                ))
            }
        }
    }
    Ok(out)
}

fn parse_array(src: &str, line: usize) -> Result<TomlValue, SprintError> {
    let inner = src
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| parse_err(line, "unterminated array"))?;
    let mut items = Vec::new();
    for part in split_top_level(inner) {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        items.push(parse_value(part, line)?);
    }
    Ok(TomlValue::Arr(items))
}

/// Splits on commas at bracket depth zero, outside strings.
fn split_top_level(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut in_str = false;
    let mut escaped = false;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            ',' if !in_str && depth == 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

/// Serializes a root table back to TOML in canonical layout: root
/// scalars and inline arrays first, then `[table]` sections, then
/// `[[array-of-tables]]` sections, recursively.
///
/// # Errors
///
/// Returns [`SprintError::Parse`] if the value is not a table or holds
/// an array mixing tables with scalars (not representable in this
/// subset).
pub fn to_string(root: &TomlValue) -> Result<String, SprintError> {
    let mut out = String::new();
    write_table(&mut out, root, &mut Vec::new())?;
    Ok(out)
}

fn is_table_array(v: &TomlValue) -> bool {
    matches!(v, TomlValue::Arr(items)
        if !items.is_empty() && items.iter().all(|i| matches!(i, TomlValue::Table(_))))
}

fn write_table(
    out: &mut String,
    table: &TomlValue,
    path: &mut Vec<String>,
) -> Result<(), SprintError> {
    let TomlValue::Table(pairs) = table else {
        return Err(SprintError::Parse(
            "serializer root must be a table".to_string(),
        ));
    };
    for (k, v) in pairs {
        match v {
            TomlValue::Table(_) => {}
            a if is_table_array(a) => {}
            scalar => {
                out.push_str(k);
                out.push_str(" = ");
                write_scalar(out, scalar)?;
                out.push('\n');
            }
        }
    }
    for (k, v) in pairs {
        if let TomlValue::Table(_) = v {
            path.push(k.clone());
            out.push('\n');
            out.push('[');
            out.push_str(&path.join("."));
            out.push_str("]\n");
            write_table(out, v, path)?;
            path.pop();
        }
    }
    for (k, v) in pairs {
        if is_table_array(v) {
            let TomlValue::Arr(items) = v else {
                unreachable!()
            };
            path.push(k.clone());
            for item in items {
                out.push('\n');
                out.push_str("[[");
                out.push_str(&path.join("."));
                out.push_str("]]\n");
                write_table(out, item, path)?;
            }
            path.pop();
        }
    }
    Ok(())
}

fn write_scalar(out: &mut String, v: &TomlValue) -> Result<(), SprintError> {
    match v {
        TomlValue::Str(s) => {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        TomlValue::Int(i) => out.push_str(&i.to_string()),
        TomlValue::Float(f) => {
            if f.is_infinite() {
                out.push_str(if *f > 0.0 { "inf" } else { "-inf" });
            } else {
                let s = format!("{f}");
                out.push_str(&s);
                if !s.contains('.') && !s.contains('e') && !s.contains('E') {
                    out.push_str(".0");
                }
            }
        }
        TomlValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        TomlValue::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_scalar(out, item)?;
            }
            out.push(']');
        }
        TomlValue::Table(_) => {
            return Err(SprintError::Parse(
                "inline tables are not part of the subset".to_string(),
            ))
        }
    }
    Ok(())
}

/// A strict table decoder: every key must be consumed exactly once, and
/// [`TableReader::finish`] rejects leftovers — the unknown-key firewall
/// for catalog files.
#[derive(Debug)]
pub struct TableReader<'a> {
    ctx: String,
    pairs: &'a [(String, TomlValue)],
    used: Vec<bool>,
}

impl<'a> TableReader<'a> {
    /// Wraps a value that must be a table.
    ///
    /// # Errors
    ///
    /// Returns [`SprintError::Parse`] if `v` is not a table.
    pub fn new(ctx: &str, v: &'a TomlValue) -> Result<TableReader<'a>, SprintError> {
        let TomlValue::Table(pairs) = v else {
            return Err(SprintError::Parse(format!("{ctx}: expected a table")));
        };
        Ok(TableReader {
            ctx: ctx.to_string(),
            pairs,
            used: vec![false; pairs.len()],
        })
    }

    fn take(&mut self, key: &str) -> Option<&'a TomlValue> {
        let idx = self.pairs.iter().position(|(k, _)| k == key)?;
        self.used[idx] = true;
        Some(&self.pairs[idx].1)
    }

    /// An optional raw value.
    pub fn opt(&mut self, key: &str) -> Option<&'a TomlValue> {
        self.take(key)
    }

    /// A required string.
    ///
    /// # Errors
    ///
    /// Returns [`SprintError::Parse`] if missing or not a string.
    pub fn str(&mut self, key: &str) -> Result<String, SprintError> {
        self.opt_str(key)?
            .ok_or_else(|| self.missing(key, "string"))
    }

    /// An optional string.
    ///
    /// # Errors
    ///
    /// Returns [`SprintError::Parse`] if present but not a string.
    pub fn opt_str(&mut self, key: &str) -> Result<Option<String>, SprintError> {
        match self.take(key) {
            None => Ok(None),
            Some(v) => v
                .as_str()
                .map(|s| Some(s.to_string()))
                .ok_or_else(|| self.wrong_type(key, "string")),
        }
    }

    /// A required float (integers coerce).
    ///
    /// # Errors
    ///
    /// Returns [`SprintError::Parse`] if missing or not numeric.
    pub fn f64(&mut self, key: &str) -> Result<f64, SprintError> {
        self.opt_f64(key)?
            .ok_or_else(|| self.missing(key, "number"))
    }

    /// An optional float with a default.
    ///
    /// # Errors
    ///
    /// Returns [`SprintError::Parse`] if present but not numeric.
    pub fn f64_or(&mut self, key: &str, default: f64) -> Result<f64, SprintError> {
        Ok(self.opt_f64(key)?.unwrap_or(default))
    }

    /// An optional float.
    ///
    /// # Errors
    ///
    /// Returns [`SprintError::Parse`] if present but not numeric.
    pub fn opt_f64(&mut self, key: &str) -> Result<Option<f64>, SprintError> {
        match self.take(key) {
            None => Ok(None),
            Some(v) => v
                .as_f64()
                .map(Some)
                .ok_or_else(|| self.wrong_type(key, "number")),
        }
    }

    /// A required non-negative integer.
    ///
    /// # Errors
    ///
    /// Returns [`SprintError::Parse`] if missing, non-integer, or
    /// negative.
    pub fn usize(&mut self, key: &str) -> Result<usize, SprintError> {
        self.opt_usize(key)?
            .ok_or_else(|| self.missing(key, "integer"))
    }

    /// An optional non-negative integer with a default.
    ///
    /// # Errors
    ///
    /// Returns [`SprintError::Parse`] if present but invalid.
    pub fn usize_or(&mut self, key: &str, default: usize) -> Result<usize, SprintError> {
        Ok(self.opt_usize(key)?.unwrap_or(default))
    }

    /// An optional non-negative integer.
    ///
    /// # Errors
    ///
    /// Returns [`SprintError::Parse`] if present but non-integer or
    /// negative.
    pub fn opt_usize(&mut self, key: &str) -> Result<Option<usize>, SprintError> {
        match self.take(key) {
            None => Ok(None),
            Some(v) => {
                let i = v.as_int().ok_or_else(|| self.wrong_type(key, "integer"))?;
                usize::try_from(i).map(Some).map_err(|_| {
                    SprintError::Parse(format!("{}: `{key}` must be non-negative", self.ctx))
                })
            }
        }
    }

    /// An optional u64 (seeds) with a default. Seeds above `i64::MAX`
    /// don't fit a TOML integer, so a decimal string is also accepted
    /// (`seed = "11400714820851085494"`).
    ///
    /// # Errors
    ///
    /// Returns [`SprintError::Parse`] if present but non-integer,
    /// negative, or an unparseable string.
    pub fn u64_or(&mut self, key: &str, default: u64) -> Result<u64, SprintError> {
        match self.take(key) {
            None => Ok(default),
            Some(TomlValue::Str(s)) => s.parse::<u64>().map_err(|_| {
                SprintError::Parse(format!("{}: `{key}` is not a u64 string", self.ctx))
            }),
            Some(v) => {
                let i = v.as_int().ok_or_else(|| self.wrong_type(key, "integer"))?;
                u64::try_from(i).map_err(|_| {
                    SprintError::Parse(format!("{}: `{key}` must be non-negative", self.ctx))
                })
            }
        }
    }

    /// An optional boolean with a default.
    ///
    /// # Errors
    ///
    /// Returns [`SprintError::Parse`] if present but not a boolean.
    pub fn bool_or(&mut self, key: &str, default: bool) -> Result<bool, SprintError> {
        match self.take(key) {
            None => Ok(default),
            Some(v) => v.as_bool().ok_or_else(|| self.wrong_type(key, "boolean")),
        }
    }

    /// The elements of an optional array-of-tables (missing → empty).
    ///
    /// # Errors
    ///
    /// Returns [`SprintError::Parse`] if present but not an array.
    pub fn tables(&mut self, key: &str) -> Result<Vec<&'a TomlValue>, SprintError> {
        match self.take(key) {
            None => Ok(Vec::new()),
            Some(v) => v
                .as_arr()
                .map(|items| items.iter().collect())
                .ok_or_else(|| self.wrong_type(key, "array of tables")),
        }
    }

    /// Rejects any key not consumed by a typed accessor.
    ///
    /// # Errors
    ///
    /// Returns [`SprintError::Parse`] naming the first unknown key.
    pub fn finish(self) -> Result<(), SprintError> {
        for (i, (k, _)) in self.pairs.iter().enumerate() {
            if !self.used[i] {
                return Err(SprintError::Parse(format!(
                    "{}: unknown key `{k}`",
                    self.ctx
                )));
            }
        }
        Ok(())
    }

    fn missing(&self, key: &str, kind: &str) -> SprintError {
        SprintError::Parse(format!("{}: missing {kind} `{key}`", self.ctx))
    }

    fn wrong_type(&self, key: &str, kind: &str) -> SprintError {
        SprintError::Parse(format!("{}: `{key}` must be a {kind}", self.ctx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_tables_and_arrays() {
        let doc = r#"
name = "demo" # trailing comment
count = 42
ratio = 0.5
big = 1e9
on = true
list = [1, 2, 3]
nested = [[1, 2], [3]]

[inner]
key = "v # not a comment"

[[seg]]
d = 1.0
[[seg]]
d = 2.0
"#;
        let t = parse(doc).unwrap();
        assert_eq!(t.get("name").unwrap().as_str(), Some("demo"));
        assert_eq!(t.get("count").unwrap().as_int(), Some(42));
        assert_eq!(t.get("ratio").unwrap().as_f64(), Some(0.5));
        assert_eq!(t.get("big").unwrap().as_f64(), Some(1e9));
        assert_eq!(t.get("on").unwrap().as_bool(), Some(true));
        assert_eq!(t.get("list").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            t.get("inner").unwrap().get("key").unwrap().as_str(),
            Some("v # not a comment")
        );
        let segs = t.get("seg").unwrap().as_arr().unwrap();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[1].get("d").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn rejects_duplicates_and_garbage() {
        assert!(parse("a = 1\na = 2").is_err());
        assert!(parse("[t]\nx = 1\n[t]\ny = 2").is_err());
        assert!(parse("a b = 1").is_err());
        assert!(parse("a = ").is_err());
        assert!(parse("a = \"unterminated").is_err());
        assert!(parse("a = zzz").is_err());
        assert!(parse("a = nan").is_err());
        let err = parse("ok = 1\nbroken").unwrap_err();
        assert!(format!("{err}").contains("line 2"), "{err}");
    }

    #[test]
    fn multiline_arrays_parse() {
        let doc = "xs = [\n  1,\n  2, # two\n  3\n]\n";
        let t = parse(doc).unwrap();
        assert_eq!(t.get("xs").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn serializer_round_trips() {
        let doc = r#"
name = "round \"trip\""
seed = 7
rate = 2.5
inf_val = inf
flags = [true, false]

[a]
x = 1.0

[a.b]
y = "deep"

[[items]]
v = 1
[[items]]
v = 2
"#;
        let t = parse(doc).unwrap();
        let s = to_string(&t).unwrap();
        let t2 = parse(&s).unwrap();
        assert_eq!(t, t2, "round-trip changed the document:\n{s}");
    }

    #[test]
    fn table_reader_rejects_unknown_keys() {
        let t = parse("a = 1\nb = 2").unwrap();
        let mut r = TableReader::new("test", &t).unwrap();
        assert_eq!(r.usize("a").unwrap(), 1);
        let err = r.finish().unwrap_err();
        assert!(format!("{err}").contains("unknown key `b`"), "{err}");
    }
}
