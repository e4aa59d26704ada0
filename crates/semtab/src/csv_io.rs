//! CSV interop in the SemTab challenge layout: one CSV per table plus the
//! target/ground-truth files (`CEA_targets`: table, row, col, entity).
//! Lets users run the pipelines on their own tabular corpora.

use crate::datasets::Dataset;
use crate::table::{Cell, Table};
use emblookup_kg::EntityId;
use std::fmt::Write as _;

/// Serializes one table as CSV (RFC-4180-style quoting of `",\n\r`).
pub fn table_to_csv(table: &Table) -> String {
    let mut out = String::new();
    for row in &table.rows {
        let line: Vec<String> = row.iter().map(|c| quote(&c.text)).collect();
        let _ = writeln!(out, "{}", line.join(","));
    }
    out
}

/// Serializes the CEA ground truth of a dataset in SemTab layout:
/// `table_id,row,col,entity_id` per annotated cell.
pub fn cea_targets_to_csv(dataset: &Dataset) -> String {
    let mut out = String::new();
    for table in &dataset.tables {
        for (r, c, cell) in table.entity_cells() {
            if let Some(truth) = cell.truth {
                let _ = writeln!(out, "{},{},{},{}", table.id, r, c, truth.0);
            }
        }
    }
    out
}

/// Parses one CSV document into a table (all cells as literals; attach
/// ground truth separately with [`apply_cea_targets`]).
///
/// # Errors
/// Returns a message for unbalanced quotes or ragged rows.
pub fn table_from_csv(id: u32, csv: &str) -> Result<Table, String> {
    let rows: Vec<Vec<Cell>> = parse_records(csv)?
        .into_iter()
        .map(|fields| fields.into_iter().map(Cell::literal).collect())
        .collect();
    let width = rows.first().map(Vec::len).unwrap_or(0);
    if rows.iter().any(|r| r.len() != width) {
        return Err("ragged rows".into());
    }
    Ok(Table {
        id,
        rows,
        col_types: vec![None; width],
    })
}

/// Applies CEA target rows (`table_id,row,col,entity_id`) to a table,
/// marking the referenced cells as entity cells.
///
/// # Errors
/// Returns a message for malformed lines or out-of-range coordinates.
pub fn apply_cea_targets(table: &mut Table, targets_csv: &str) -> Result<(), String> {
    for (ln, line) in targets_csv.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let parts: Vec<&str> = line.split(',').collect();
        if parts.len() != 4 {
            return Err(format!("line {}: expected 4 fields", ln + 1));
        }
        let parse = |s: &str| -> Result<u32, String> {
            s.trim().parse().map_err(|_| format!("line {}: bad number {s:?}", ln + 1))
        };
        let (tid, r, c, e) = (parse(parts[0])?, parse(parts[1])?, parse(parts[2])?, parse(parts[3])?);
        if tid != table.id {
            continue;
        }
        let (r, c) = (r as usize, c as usize);
        if r >= table.num_rows() || c >= table.num_cols() {
            return Err(format!("line {}: cell ({r},{c}) out of range", ln + 1));
        }
        table.cell_mut(r, c).truth = Some(EntityId(e));
    }
    Ok(())
}

fn quote(s: &str) -> String {
    if s.contains(['"', ',', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Splits a CSV document into records of fields. A record ends at a `\n`
/// or `\r\n` outside quotes, so a quoted field may span lines, and an
/// empty line is a record of one empty field (the row of a one-column
/// table whose cell is empty). Only a final record without a terminator
/// needs any text to count.
fn parse_records(csv: &str) -> Result<Vec<Vec<String>>, String> {
    let mut records = Vec::new();
    let mut record = Vec::new();
    let mut field = String::new();
    let mut chars = csv.chars().peekable();
    let (mut in_quotes, mut pending) = (false, false);
    let (mut line, mut record_line) = (1usize, 1usize);
    while let Some(c) = chars.next() {
        pending = true;
        match (c, in_quotes) {
            ('"', false) => {
                if field.is_empty() {
                    in_quotes = true;
                } else {
                    field.push('"');
                }
            }
            ('"', true) => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    field.push('"');
                } else {
                    in_quotes = false;
                }
            }
            (',', false) => record.push(std::mem::take(&mut field)),
            ('\r', false) if chars.peek() == Some(&'\n') => {}
            ('\n', false) => {
                record.push(std::mem::take(&mut field));
                records.push(std::mem::take(&mut record));
                pending = false;
                line += 1;
                record_line = line;
            }
            (c, _) => {
                line += usize::from(c == '\n');
                field.push(c);
            }
        }
    }
    if in_quotes {
        return Err(format!("line {record_line}: unbalanced quotes"));
    }
    if pending {
        record.push(field);
        records.push(record);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{generate_dataset, DatasetConfig};
    use emblookup_kg::{generate, SynthKgConfig};

    #[test]
    fn table_round_trips_through_csv() {
        let synth = generate(SynthKgConfig::tiny(70));
        let ds = generate_dataset(&synth, &DatasetConfig::tiny(70));
        let original = &ds.tables[0];
        let csv = table_to_csv(original);
        let mut restored = table_from_csv(original.id, &csv).unwrap();
        assert_eq!(restored.num_rows(), original.num_rows());
        assert_eq!(restored.num_cols(), original.num_cols());
        // texts survive
        for (a, b) in original.rows.iter().flatten().zip(restored.rows.iter().flatten()) {
            assert_eq!(a.text, b.text);
        }
        // ground truth re-attaches
        let targets = cea_targets_to_csv(&ds);
        apply_cea_targets(&mut restored, &targets).unwrap();
        for (r, c, cell) in original.entity_cells() {
            assert_eq!(restored.cell(r, c).truth, cell.truth);
        }
    }

    #[test]
    fn quoting_handles_commas_and_quotes() {
        let table = Table {
            id: 0,
            rows: vec![vec![
                Cell::literal("a, b"),
                Cell::literal("say \"hi\""),
                Cell::literal("plain"),
            ]],
            col_types: vec![None; 3],
        };
        let csv = table_to_csv(&table);
        let restored = table_from_csv(0, &csv).unwrap();
        assert_eq!(restored.cell(0, 0).text, "a, b");
        assert_eq!(restored.cell(0, 1).text, "say \"hi\"");
        assert_eq!(restored.cell(0, 2).text, "plain");
    }

    /// Any cell text survives `table_to_csv` → `table_from_csv`: cells are
    /// drawn from `, " \n \r` (empty included), over shapes down to one
    /// column, where a row whose only cell is empty is an empty line.
    #[test]
    fn any_cell_text_round_trips() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const PIECES: [&str; 5] = [",", "\"", "\n", "\r", ""];
        let single_empty = vec![vec![Cell::literal("x")], vec![Cell::literal("")]];
        let mut tables = vec![Table { id: 0, rows: single_empty, col_types: vec![None] }];
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (rows, cols) = (rng.gen_range(1..5usize), rng.gen_range(1..4usize));
            let cell = |rng: &mut StdRng| {
                let len = rng.gen_range(0..4usize);
                (0..len).map(|_| PIECES[rng.gen_range(0..PIECES.len())]).collect::<String>()
            };
            let rows = (0..rows)
                .map(|_| (0..cols).map(|_| Cell::literal(cell(&mut rng))).collect())
                .collect();
            tables.push(Table { id: seed as u32, rows, col_types: vec![None; cols] });
        }
        for table in &tables {
            let csv = table_to_csv(table);
            let restored = table_from_csv(table.id, &csv)
                .unwrap_or_else(|e| panic!("table {}: {e} in {csv:?}", table.id));
            let texts = |t: &Table| -> Vec<Vec<String>> {
                t.rows.iter().map(|r| r.iter().map(|c| c.text.clone()).collect()).collect()
            };
            assert_eq!(texts(&restored), texts(table), "table {} via {csv:?}", table.id);
        }
    }

    #[test]
    fn malformed_inputs_are_errors() {
        assert!(table_from_csv(0, "a,b\nc").is_err()); // ragged
        assert!(table_from_csv(0, "\"abc").is_err()); // unbalanced
        let mut t = Table { id: 0, rows: vec![vec![Cell::literal("x")]], col_types: vec![None] };
        assert!(apply_cea_targets(&mut t, "0,9,9,1").is_err());
        assert!(apply_cea_targets(&mut t, "0,0").is_err());
    }
}
