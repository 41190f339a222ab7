//! Structured figure/table artifacts.
//!
//! Every analysis in [`crate::figures`] produces a [`Report`] — an
//! ordered list of titled [`Section`]s, each a named-column table whose
//! cells carry both the exact display text and (for numeric cells) the
//! raw value. Renderers are separate from the data:
//!
//! * [`Report::to_text`] reproduces the historical plain-text figure
//!   output **byte-for-byte** (the golden tests in `tests/campaign.rs`
//!   pin this against pre-refactor captures);
//! * [`Report::to_json`] / [`Report::to_csv`] expose the same rows as
//!   machine-readable data, so downstream tools consume values instead
//!   of scraping stdout.

use belenos_json::{Json, ToJson};

/// One table cell: the exact text shown in the rendered table, plus the
/// raw numeric value when the cell is a measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Exact display text (what [`Report::to_text`] prints).
    pub text: String,
    /// Raw value for numeric cells; `None` for labels.
    pub value: Option<f64>,
}

impl Cell {
    /// A label cell (workload id, category name, ...).
    pub fn text(text: impl Into<String>) -> Cell {
        Cell {
            text: text.into(),
            value: None,
        }
    }

    /// A numeric cell displayed with fixed precision.
    pub fn num(value: f64, digits: usize) -> Cell {
        Cell {
            text: format!("{value:.digits$}"),
            value: Some(value),
        }
    }

    /// A cell with custom display text that still carries a raw value
    /// (e.g. the Fig. 4 `R 79.2%` glyph dots).
    pub fn labeled(text: impl Into<String>, value: f64) -> Cell {
        Cell {
            text: text.into(),
            value: Some(value),
        }
    }
}

impl ToJson for Cell {
    fn to_json(&self) -> Json {
        match self.value {
            Some(v) => Json::Num(v),
            None => Json::Str(self.text.clone()),
        }
    }
}

/// One titled table within a report.
///
/// The title may span several lines (legends, notes); [`Report::to_text`]
/// prints it verbatim above the rendered table.
#[derive(Debug, Clone, PartialEq)]
pub struct Section {
    /// Heading printed above the table (may contain newlines).
    pub title: String,
    /// Column names.
    pub columns: Vec<String>,
    /// Data rows; each row has one [`Cell`] per column.
    pub rows: Vec<Vec<Cell>>,
}

impl Section {
    /// A new empty section.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Section {
        Section {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the column count.
    pub fn row(&mut self, cells: Vec<Cell>) -> &mut Section {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "section `{}`: column count mismatch",
            self.title.lines().next().unwrap_or("")
        );
        self.rows.push(cells);
        self
    }

    /// Renders the table with aligned columns under a dashed rule.
    pub fn render(&self) -> String {
        let mut width: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in width.iter_mut().zip(row) {
                *w = (*w).max(c.text.len());
            }
        }
        let mut out = String::new();
        push_line(&mut out, &width, self.columns.iter().map(String::as_str));
        out.push_str(&"-".repeat(width.iter().sum::<usize>() + 2 * (width.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            push_line(&mut out, &width, row.iter().map(|c| c.text.as_str()));
        }
        out
    }

    /// Renders the table as comma-separated values (RFC 4180 quoting:
    /// fields containing commas, quotes or newlines are quoted, embedded
    /// quotes doubled).
    pub fn to_csv(&self) -> String {
        let field = |s: &str| {
            if s.contains([',', '"', '\n', '\r']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = self
            .columns
            .iter()
            .map(|c| field(c))
            .collect::<Vec<_>>()
            .join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(
                &row.iter()
                    .map(|c| field(&c.text))
                    .collect::<Vec<_>>()
                    .join(","),
            );
            out.push('\n');
        }
        out
    }
}

/// Appends one table line: each cell left-aligned to its column's width,
/// two spaces apart, without trailing spaces.
fn push_line<'c>(out: &mut String, width: &[usize], cells: impl Iterator<Item = &'c str>) {
    for (c, w) in cells.zip(width) {
        out.push_str(&format!("{c:<w$}  "));
    }
    out.truncate(out.trim_end_matches(' ').len());
    out.push('\n');
}

impl ToJson for Section {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("title", Json::Str(self.title.clone())),
            ("columns", self.columns.to_json()),
            (
                "rows",
                Json::Arr(self.rows.iter().map(|r| r.to_json()).collect()),
            ),
        ])
    }
}

/// A structured figure/table artifact: an identifier plus titled
/// sections of named-metric rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Stable analysis identifier (`"fig02_topdown"`, `"table1"`, ...).
    pub id: String,
    /// The report's sections, in print order.
    pub sections: Vec<Section>,
}

impl Report {
    /// A new empty report.
    pub fn new(id: impl Into<String>) -> Report {
        Report {
            id: id.into(),
            sections: Vec::new(),
        }
    }

    /// Appends a section and returns a mutable handle for filling rows.
    pub fn section(&mut self, title: impl Into<String>, columns: &[&str]) -> &mut Section {
        self.sections.push(Section::new(title, columns));
        self.sections.last_mut().expect("just pushed")
    }

    /// Builder form: appends an already-built section.
    pub fn with_section(mut self, section: Section) -> Report {
        self.sections.push(section);
        self
    }

    /// Renders the historical plain-text form (byte-identical to the
    /// pre-refactor figure strings).
    pub fn to_text(&self) -> String {
        self.sections
            .iter()
            .map(|s| format!("{}\n\n{}", s.title, s.render()))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Renders all sections as CSV. Each section is preceded by a
    /// `# <title>` comment line; sections are separated by blank lines.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.sections.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            for line in s.title.lines() {
                out.push_str("# ");
                out.push_str(line);
                out.push('\n');
            }
            out.push_str(&s.to_csv());
        }
        out
    }

    /// Serializes the report as a pretty-printed JSON document.
    pub fn to_json(&self) -> String {
        ToJson::to_json(self).pretty()
    }
}

impl ToJson for Report {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("report", Json::Str(self.id.clone())),
            (
                "sections",
                Json::Arr(self.sections.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new("demo");
        let s = r.section("Demo: a table", &["Model", "IPC"]);
        s.row(vec![Cell::text("pd"), Cell::num(1.23456, 3)]);
        s.row(vec![Cell::text("co"), Cell::num(0.5, 3)]);
        r
    }

    #[test]
    fn text_rendering_matches_the_historical_format() {
        let text = sample().to_text();
        assert!(text.starts_with("Demo: a table\n\n"));
        assert!(text.contains("Model  IPC"));
        assert!(text.contains("1.235"));
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn multi_section_reports_join_like_the_old_format_strings() {
        let mut r = Report::new("two");
        r.section("Part a", &["x"]).row(vec![Cell::num(1.0, 1)]);
        r.section("Part b", &["y"]).row(vec![Cell::num(2.0, 1)]);
        // Old code: format!("{}\n\n{}\n{}\n\n{}", ta, a.render(), tb, b.render())
        let text = r.to_text();
        assert!(text.contains("1.0\n\nPart b\n\ny"), "{text}");
    }

    #[test]
    fn json_exposes_raw_values() {
        let json = ToJson::to_json(&sample());
        let rows = json.get("sections").unwrap().as_arr().unwrap()[0]
            .get("rows")
            .unwrap()
            .as_arr()
            .unwrap();
        assert_eq!(rows[0].as_arr().unwrap()[0].as_str(), Some("pd"));
        // Raw value, not the 3-digit display rounding.
        assert_eq!(rows[0].as_arr().unwrap()[1].as_f64(), Some(1.23456));
        // The document parses back.
        assert!(belenos_json::Json::parse(&sample().to_json()).is_ok());
    }

    #[test]
    fn csv_has_comment_titles() {
        let csv = sample().to_csv();
        assert!(csv.starts_with("# Demo: a table\nModel,IPC\n"));
        assert!(csv.contains("pd,1.235"));
    }

    #[test]
    fn renders_aligned_table() {
        let mut s = Section::new("t", &["model", "ipc"]);
        s.row(vec![Cell::text("ar"), Cell::num(1.234567, 3)]);
        s.row(vec![Cell::text("co"), Cell::num(0.5, 3)]);
        assert_eq!(
            s.render(),
            "model  ipc\n------------\nar     1.235\nco     0.500\n"
        );
    }

    #[test]
    fn csv_output() {
        let mut s = Section::new("t", &["a", "b"]);
        s.row(vec![Cell::num(1.0, 0), Cell::num(2.0, 0)]);
        assert_eq!(s.to_csv(), "a,b\n1,2\n");
    }

    #[test]
    fn csv_quotes_fields_with_commas_and_quotes() {
        let mut s = Section::new("t", &["Parameter", "Value"]);
        s.row(vec![Cell::text("L2 cache"), Cell::text("1 MB, 16-way")]);
        s.row(vec![Cell::text("note"), Cell::text("says \"hi\"")]);
        assert_eq!(
            s.to_csv(),
            "Parameter,Value\nL2 cache,\"1 MB, 16-way\"\nnote,\"says \"\"hi\"\"\"\n"
        );
    }

    #[test]
    fn helpers() {
        assert_eq!(Cell::num(1.0 / 3.0, 2).text, "0.33");
    }

    #[test]
    fn labeled_cells_keep_text_and_value() {
        let c = Cell::labeled("R 79.2%", 0.792);
        assert_eq!(c.text, "R 79.2%");
        assert_eq!(ToJson::to_json(&c), Json::Num(0.792));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_width_is_checked() {
        let mut r = Report::new("bad");
        r.section("t", &["a", "b"]).row(vec![Cell::text("x")]);
    }
}
