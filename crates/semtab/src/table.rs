//! The tabular data model of the paper (§II): a relational table whose
//! cells mention KG entities, with ground-truth annotations for evaluation.

use emblookup_kg::{EntityId, TypeId};

/// One table cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Surface text of the cell (possibly noisy or an alias).
    pub text: String,
    /// Ground-truth entity for entity cells; `None` for literals.
    pub truth: Option<EntityId>,
    /// True when the cell's value is missing (data-repair target).
    pub missing: bool,
}

impl Cell {
    /// Entity-mention cell with ground truth.
    pub(crate) fn entity(text: impl Into<String>, truth: EntityId) -> Self {
        Cell { text: text.into(), truth: Some(truth), missing: false }
    }

    /// Literal cell (numbers, dates).
    pub(crate) fn literal(text: impl Into<String>) -> Self {
        Cell { text: text.into(), truth: None, missing: false }
    }

    /// Missing cell that originally referred to `truth`.
    #[cfg(test)]
    pub(crate) fn missing(truth: EntityId) -> Self {
        Cell { text: String::new(), truth: Some(truth), missing: true }
    }
}

/// A relational table with ground-truth column types.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table identifier within its dataset.
    pub id: u32,
    /// Row-major cells; all rows have equal length.
    pub rows: Vec<Vec<Cell>>,
    /// Ground-truth type per column (`None` for literal columns).
    pub col_types: Vec<Option<TypeId>>,
}

impl Table {
    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.col_types.len()
    }

    /// Borrows the cell at `(row, col)`.
    pub fn cell(&self, row: usize, col: usize) -> &Cell {
        &self.rows[row][col]
    }

    /// Mutably borrows the cell at `(row, col)`.
    pub(crate) fn cell_mut(&mut self, row: usize, col: usize) -> &mut Cell {
        &mut self.rows[row][col]
    }

    /// Iterates `(row, col, cell)` over annotatable entity cells that are
    /// present (non-missing, non-literal).
    pub fn entity_cells(&self) -> impl Iterator<Item = (usize, usize, &Cell)> {
        self.rows.iter().enumerate().flat_map(|(r, row)| {
            row.iter()
                .enumerate()
                .filter(|(_, c)| c.truth.is_some() && !c.missing)
                .map(move |(j, c)| (r, j, c))
        })
    }

    /// Total number of annotatable entity cells.
    pub(crate) fn num_entity_cells(&self) -> usize {
        self.entity_cells().count()
    }

    /// Validates structural invariants (rectangularity, column count).
    ///
    /// # Errors
    /// Describes the first violated invariant.
    #[cfg(test)]
    pub(crate) fn validate(&self) -> Result<(), String> {
        for (r, row) in self.rows.iter().enumerate() {
            if row.len() != self.col_types.len() {
                return Err(format!(
                    "row {r} has {} cells, expected {}",
                    row.len(),
                    self.col_types.len()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Table {
        Table {
            id: 0,
            rows: vec![
                vec![Cell::entity("berlin", EntityId(1)), Cell::literal("3.6M")],
                vec![Cell::missing(EntityId(2)), Cell::literal("2.1M")],
            ],
            col_types: vec![Some(TypeId(0)), None],
        }
    }

    #[test]
    fn shape_accessors() {
        let t = toy();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.num_cols(), 2);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn entity_cells_skip_literals_and_missing() {
        let t = toy();
        let cells: Vec<_> = t.entity_cells().collect();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].0, 0); // row 0
        assert_eq!(cells[0].1, 0); // col 0
    }

    #[test]
    fn validate_catches_ragged_rows() {
        let mut t = toy();
        t.rows[1].pop();
        assert!(t.validate().is_err());
    }
}
