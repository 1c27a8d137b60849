//! Plain-text table rendering for experiment output.

/// A titled, column-aligned text table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    #[must_use]
    pub fn new(title: impl Into<String>) -> Self {
        Table {
            title: title.into(),
            headers: Vec::new(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Sets the column headers.
    #[must_use]
    pub fn headers<I, S>(mut self, headers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.headers = headers.into_iter().map(Into::into).collect();
        self
    }

    /// Appends a data row.
    pub fn row<I, S>(&mut self, cells: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    /// Appends a free-form note printed under the table.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Renders the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let columns = self
            .headers
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; columns];
        let measure = |widths: &mut Vec<usize>, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        };
        measure(&mut widths, &self.headers);
        for row in &self.rows {
            measure(&mut widths, row);
        }

        let fmt_row = |cells: &[String]| -> String {
            let mut out = String::new();
            for (i, width) in widths.iter().enumerate() {
                let cell = cells.get(i).map_or("", String::as_str);
                out.push_str(&format!("{cell:>width$}  "));
            }
            out.trim_end().to_string()
        };

        let mut out = format!("== {} ==\n", self.title);
        if !self.headers.is_empty() {
            out.push_str(&fmt_row(&self.headers));
            out.push('\n');
            out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
            out.push('\n');
        }
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }
}

/// Formats a float with `decimals` places.
#[must_use]
pub fn num(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

/// Formats a signed percentage difference `(new vs old)`.
#[must_use]
pub fn pct_diff(new: f64, old: f64) -> String {
    format!("{:+.1}%", (new - old) / old * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo").headers(["name", "value"]);
        t.row(["a", "1"]);
        t.row(["long-name", "22"]);
        t.note("a note");
        let out = t.render();
        assert!(out.contains("== demo =="));
        assert!(out.contains("note: a note"));
        // Lines: title, headers, separator, then the two data rows.
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[3].ends_with('1'), "{out}");
        assert!(lines[4].ends_with("22"), "{out}");
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn num_and_pct_helpers() {
        assert_eq!(num(1.23456, 2), "1.23");
        assert_eq!(pct_diff(80.0, 100.0), "-20.0%");
        assert_eq!(pct_diff(120.0, 100.0), "+20.0%");
    }
}
