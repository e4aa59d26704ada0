//! One experiment's result as values: a titled table of cells and its
//! trailing notes. Markdown is one renderer over it ([`fmt::Display`]);
//! the claims table reads the numbers back with `Report::value`.

use std::fmt;

/// One table cell.
#[derive(Debug)]
pub(crate) enum Cell {
    /// A number and the decimals it is printed with.
    Num(f64, usize),
    /// A speedup factor, printed as the paper does (`20x`).
    Speedup(f64),
    /// Text, printed as is.
    Label(String),
}

impl Cell {
    /// The cell as printed.
    fn text(&self) -> String {
        match self {
            Cell::Num(v, decimals) => format!("{v:.decimals$}"),
            Cell::Speedup(v) => format!("{v:.0}x"),
            Cell::Label(s) => s.clone(),
        }
    }
}

/// A titled table: column names, rows of cells, and notes printed under it.
#[derive(Debug)]
pub struct Report {
    pub(crate) title: String,
    pub(crate) columns: Vec<String>,
    pub(crate) rows: Vec<Vec<Cell>>,
    pub(crate) notes: Vec<String>,
}

impl Report {
    pub(crate) fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Report {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// The unrounded number in `column` of the one row named `row`: a row
    /// is named by its first cell as printed (`"EmbLookup"`, `"5"`), or by
    /// its first two joined with a space (`"CEA bbw"`). `None` if no row or
    /// more than one has that name, the column does not exist, or the cell
    /// is a label.
    pub(crate) fn value(&self, row: &str, column: &str) -> Option<f64> {
        let c = self.columns.iter().position(|h| h == column)?;
        let named = |cells: &&Vec<Cell>| {
            let first = cells.first().map(Cell::text).unwrap_or_default();
            first == row
                || cells
                    .get(1)
                    .is_some_and(|second| format!("{first} {}", second.text()) == row)
        };
        let mut hits = self.rows.iter().filter(named);
        match (hits.next(), hits.next()) {
            (Some(cells), None) => match cells.get(c)? {
                Cell::Num(v, _) | Cell::Speedup(v) => Some(*v),
                Cell::Label(_) => None,
            },
            _ => None,
        }
    }
}

/// One markdown table row: `| a | b |`, an empty cell as `| |`.
fn write_row(f: &mut fmt::Formatter<'_>, cells: impl Iterator<Item = String>) -> fmt::Result {
    f.write_str("|")?;
    for cell in cells {
        write!(f, "{} |", format!(" {cell}").trim_end())?;
    }
    writeln!(f)
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "## {}\n\n", self.title)?;
        write_row(f, self.columns.iter().cloned())?;
        writeln!(f, "|{}", "---|".repeat(self.columns.len()))?;
        for row in &self.rows {
            write_row(f, row.iter().map(Cell::text))?;
        }
        for note in &self.notes {
            write!(f, "\n{note}\n")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_rows() -> Report {
        use Cell::{Label, Num, Speedup};
        let mut r = Report::new("Table X — a caption", &["", "Task", "F", "Speedup"]);
        r.rows.push(vec![Label("CEA".into()), Label("bbw".into()), Num(0.8149, 2), Speedup(19.6)]);
        r.rows.push(vec![Num(5.0, 0), Label("JenTab".into()), Num(1.0, 3), Speedup(f64::INFINITY)]);
        r.notes.push("*A note.".into());
        r
    }

    #[test]
    fn renders_the_markdown_the_reports_are_diffed_against() {
        assert_eq!(
            two_rows().to_string(),
            "## Table X — a caption\n\n\
             | | Task | F | Speedup |\n\
             |---|---|---|---|\n\
             | CEA | bbw | 0.81 | 20x |\n\
             | 5 | JenTab | 1.000 | infx |\n\
             \n*A note.\n"
        );
    }

    #[test]
    fn value_reads_unrounded_numbers_by_row_name() {
        let r = two_rows();
        assert_eq!(r.value("CEA bbw", "F"), Some(0.8149));
        assert_eq!(r.value("CEA", "Speedup"), Some(19.6));
        assert_eq!(r.value("5", "F"), Some(1.0));
        // a label, a missing row, a missing column
        assert_eq!(r.value("CEA", "Task"), None);
        assert_eq!(r.value("DR", "F"), None);
        assert_eq!(r.value("CEA", "nope"), None);
    }
}
