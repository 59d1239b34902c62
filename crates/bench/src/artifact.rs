//! The one artifact shape of the `report` harnesses (`throughput`,
//! `scaling`, `chaos`, `overload`).
//!
//! A harness measures, then describes its result as an [`Artifact`]: plain
//! data with header params, named sections of keyed rows, and a summary.
//! Each column is declared once, as a `(key, Value)` cell. From that one
//! declaration come the `BENCH_PRn.json` file ([`Artifact::to_json`]), the
//! text tables ([`Artifact`]'s `Display`) and the acceptance gate
//! ([`Artifact::failed`]): every [`Value::Bool`] is a check that must hold.

use crate::table::render;
use std::fmt;

/// One cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An integer.
    Int(u64),
    /// A float printed with a fixed number of decimals.
    Fixed(f64, usize),
    /// A float printed in its shortest `Display` form.
    Float(f64),
    /// An acceptance check: the artifact passes only if every one is true.
    Bool(bool),
    /// A string.
    Str(String),
}

impl Value {
    fn text(&self) -> String {
        match self {
            Value::Int(v) => v.to_string(),
            Value::Fixed(v, decimals) => format!("{v:.decimals$}"),
            Value::Float(v) => v.to_string(),
            Value::Bool(v) => v.to_string(),
            Value::Str(s) => s.clone(),
        }
    }

    fn json(&self) -> String {
        match self {
            Value::Str(s) => quote(s),
            other => other.text(),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as u64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(u64::from(v))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

/// An ordered list of keyed cells: one row, or the params or summary.
pub type Cells = Vec<(&'static str, Value)>;

/// A harness result: what `report` prints, gates on and writes as
/// `<name>.json`.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// Artifact name; the JSON file is `<name>.json`.
    pub name: &'static str,
    /// One-line description of what was measured.
    pub description: &'static str,
    /// Header params, written before the sections.
    pub params: Cells,
    /// Named sections of rows, in order.
    pub sections: Vec<(&'static str, Vec<Cells>)>,
    /// Summary fields, written after the sections.
    pub summary: Cells,
}

fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn fields(cells: &Cells) -> impl Iterator<Item = String> + '_ {
    cells
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), v.json()))
}

impl Artifact {
    /// The artifact as JSON: one top-level field per line, one row per
    /// line inside each section.
    pub fn to_json(&self) -> String {
        let mut entries = vec![
            format!("\"artifact\": {}", quote(self.name)),
            format!("\"description\": {}", quote(self.description)),
        ];
        entries.extend(fields(&self.params));
        for (name, rows) in &self.sections {
            let mut section = format!("{}: [\n", quote(name));
            for (i, row) in rows.iter().enumerate() {
                let sep = if i + 1 < rows.len() { "," } else { "" };
                let row: Vec<String> = fields(row).collect();
                section.push_str(&format!("    {{{}}}{sep}\n", row.join(", ")));
            }
            section.push_str("  ]");
            entries.push(section);
        }
        entries.extend(fields(&self.summary));
        format!("{{\n  {}\n}}\n", entries.join(",\n  "))
    }

    /// The acceptance checks that do not hold: every false [`Value::Bool`],
    /// named `key` for a param or summary field and `section[i].key` for a
    /// row cell. Empty when the artifact passes.
    pub fn failed(&self) -> Vec<String> {
        let rows = self.sections.iter().flat_map(|(name, rows)| {
            rows.iter().enumerate().flat_map(move |(i, row)| {
                row.iter()
                    .map(move |(k, v)| (format!("{name}[{i}].{k}"), v))
            })
        });
        self.params
            .iter()
            .map(|(k, v)| (k.to_string(), v))
            .chain(rows)
            .chain(self.summary.iter().map(|(k, v)| (k.to_string(), v)))
            .filter(|(_, v)| **v == Value::Bool(false))
            .map(|(name, _)| name)
            .collect()
    }
}

/// The params, one table per section with the JSON keys as headers, then
/// the summary.
impl fmt::Display for Artifact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {}: {} ==", self.name, self.description)?;
        for (k, v) in &self.params {
            writeln!(f, "   {k}: {}", v.text())?;
        }
        for (name, rows) in &self.sections {
            let headers: Vec<&str> = rows
                .first()
                .map_or(Vec::new(), |row| row.iter().map(|(k, _)| *k).collect());
            let cells: Vec<Vec<String>> = rows
                .iter()
                .map(|row| row.iter().map(|(_, v)| v.text()).collect())
                .collect();
            writeln!(f, "{name}:\n{}", render(&headers, &cells))?;
        }
        for (k, v) in &self.summary {
            writeln!(f, "{k}: {}", v.text())?;
        }
        Ok(())
    }
}

/// The distinct JSON keys of `json` in first-seen order: every quoted
/// string followed by a colon. A plain scan, enough for the artifacts'
/// flat layout (no escaped quotes in keys or values).
#[cfg(test)]
pub(crate) fn json_keys(json: &str) -> Vec<String> {
    let parts: Vec<&str> = json.split('"').collect();
    let mut keys: Vec<String> = Vec::new();
    // Odd parts are inside quotes; the part after each is what follows.
    for pair in parts.windows(2).skip(1).step_by(2) {
        if pair[1].trim_start().starts_with(':') && !keys.iter().any(|k| k == pair[0]) {
            keys.push(pair[0].to_owned());
        }
    }
    keys
}

/// Asserts that `artifact` passes its gate and has the key schema of the
/// committed `file` at the repository root.
#[cfg(test)]
pub(crate) fn assert_passes_with_schema_of(artifact: &Artifact, file: &str) {
    assert_eq!(artifact.failed(), Vec::<String>::new(), "{artifact}");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file);
    let committed = std::fs::read_to_string(&path).expect("committed artifact is readable");
    assert_eq!(json_keys(&artifact.to_json()), json_keys(&committed));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Artifact {
        Artifact {
            name: "BENCH_X",
            description: "a sample",
            params: vec![("scale", Value::Float(0.25)), ("label", "Q6'".into())],
            sections: vec![(
                "rows",
                vec![
                    vec![("n", 3u64.into()), ("ms", Value::Fixed(1.0 / 3.0, 3))],
                    vec![("n", 4u64.into()), ("ms", Value::Fixed(2.5, 3))],
                ],
            )],
            summary: vec![("ok", true.into()), ("all_fast", false.into())],
        }
    }

    #[test]
    fn writes_the_flat_json_layout() {
        let mut a = sample();
        a.sections[0].1[1].push(("pass", false.into()));
        a.sections[0].1[0].push(("pass", true.into()));
        let want = "{\n  \"artifact\": \"BENCH_X\",\n  \"description\": \"a sample\",\n  \
                    \"scale\": 0.25,\n  \"label\": \"Q6'\",\n  \"rows\": [\n    \
                    {\"n\": 3, \"ms\": 0.333, \"pass\": true},\n    \
                    {\"n\": 4, \"ms\": 2.500, \"pass\": false}\n  ],\n  \
                    \"ok\": true,\n  \"all_fast\": false\n}\n";
        assert_eq!(a.to_json(), want);
        assert_eq!(a.failed(), vec!["rows[1].pass", "all_fast"]);
        assert_eq!(
            json_keys(&a.to_json()),
            [
                "artifact",
                "description",
                "scale",
                "label",
                "rows",
                "n",
                "ms",
                "pass",
                "ok",
                "all_fast"
            ]
        );
    }

    #[test]
    fn renders_params_tables_and_summary() {
        let text = sample().to_string();
        assert!(text.starts_with("== BENCH_X: a sample ==\n   scale: 0.25\n"));
        assert!(text.contains("rows:\nn     ms\n"));
        assert!(text.ends_with("ok: true\nall_fast: false\n"));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }

    #[test]
    fn an_empty_section_writes_an_empty_list() {
        let mut a = sample();
        a.sections[0].1.clear();
        assert!(a.to_json().contains("\"rows\": [\n  ],\n"));
        assert!(a.to_string().contains("rows:\n"));
    }
}
