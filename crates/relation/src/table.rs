//! A typed, columnar in-memory table.
//!
//! Only what the §5.2.3 experiment needs: categorical columns (dictionary
//! encoded, `u16` codes) and numeric columns (`i32`), both nullable. Storage
//! is column-major so predicate evaluation scans one dense vector.

use setdisc_util::intern::NameTable;

/// Column type tag.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ColumnKind {
    /// Dictionary-encoded string column.
    Categorical,
    /// 32-bit integer column.
    Numeric,
}

/// One column of a [`Table`].
pub enum Column {
    /// Dictionary-encoded strings; `None` = NULL.
    Categorical {
        /// Column name.
        name: String,
        /// Code ↔ string dictionary (a value's code is its table id).
        dict: NameTable,
        /// Per-row codes.
        codes: Vec<Option<u16>>,
    },
    /// Integers; `None` = NULL.
    Numeric {
        /// Column name.
        name: String,
        /// Per-row values.
        values: Vec<Option<i32>>,
    },
}

impl Column {
    /// Column name.
    pub fn name(&self) -> &str {
        match self {
            Column::Categorical { name, .. } | Column::Numeric { name, .. } => name,
        }
    }

    /// Column kind.
    pub fn kind(&self) -> ColumnKind {
        match self {
            Column::Categorical { .. } => ColumnKind::Categorical,
            Column::Numeric { .. } => ColumnKind::Numeric,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Categorical { codes, .. } => codes.len(),
            Column::Numeric { values, .. } => values.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A fixed-schema, immutable, columnar table.
pub struct Table {
    name: String,
    columns: Vec<Column>,
    n_rows: usize,
    row_names: Vec<String>,
}

impl Table {
    /// Assembles a table; all columns must have `n_rows` entries, as must
    /// `row_names` (the printable primary key, e.g. `playerID`).
    pub fn new(name: impl Into<String>, columns: Vec<Column>, row_names: Vec<String>) -> Self {
        let n_rows = row_names.len();
        for c in &columns {
            assert_eq!(c.len(), n_rows, "column {} length mismatch", c.name());
        }
        Self {
            name: name.into(),
            columns,
            n_rows,
            row_names,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_columns(&self) -> usize {
        self.columns.len()
    }

    /// The columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column index by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name() == name)
    }

    /// Column by index.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Printable row identifier (e.g. the playerID).
    pub fn row_name(&self, row: u32) -> &str {
        &self.row_names[row as usize]
    }

    /// Categorical code for `(column, row)`; `None` for NULL. Panics when
    /// the column is numeric (programmer error).
    pub fn cat_code(&self, col: usize, row: u32) -> Option<u16> {
        match &self.columns[col] {
            Column::Categorical { codes, .. } => codes[row as usize],
            Column::Numeric { name, .. } => panic!("column {name} is numeric"),
        }
    }

    /// Numeric value for `(column, row)`; `None` for NULL. Panics when the
    /// column is categorical.
    pub fn num_value(&self, col: usize, row: u32) -> Option<i32> {
        match &self.columns[col] {
            Column::Numeric { values, .. } => values[row as usize],
            Column::Categorical { name, .. } => panic!("column {name} is categorical"),
        }
    }

    /// The dictionary string for a categorical code.
    pub fn cat_string(&self, col: usize, code: u16) -> &str {
        match &self.columns[col] {
            Column::Categorical { dict, .. } => dict
                .name(u32::from(code))
                .expect("code outside the column's dictionary"),
            Column::Numeric { name, .. } => panic!("column {name} is numeric"),
        }
    }

    /// The code for a categorical string, if present in the dictionary.
    pub fn cat_lookup(&self, col: usize, value: &str) -> Option<u16> {
        match &self.columns[col] {
            Column::Categorical { dict, .. } => dict.get(value).and_then(|c| u16::try_from(c).ok()),
            Column::Numeric { name, .. } => panic!("column {name} is numeric"),
        }
    }
}

/// Builder for categorical columns.
pub struct CategoricalBuilder {
    name: String,
    dict: NameTable,
    codes: Vec<Option<u16>>,
}

impl CategoricalBuilder {
    /// New builder for a column called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            dict: NameTable::new(),
            codes: Vec::new(),
        }
    }

    /// Appends a value (interned) or NULL.
    pub fn push(&mut self, value: Option<&str>) {
        let code = value.map(|v| u16::try_from(self.dict.intern(v)).expect("dictionary overflow"));
        self.codes.push(code);
    }

    /// Finalizes the column.
    pub fn build(self) -> Column {
        Column::Categorical {
            name: self.name,
            dict: self.dict,
            codes: self.codes,
        }
    }
}

/// Builds a numeric column directly.
pub fn numeric_column(name: impl Into<String>, values: Vec<Option<i32>>) -> Column {
    Column::Numeric {
        name: name.into(),
        values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Table {
        let mut city = CategoricalBuilder::new("city");
        for v in [Some("Chicago"), Some("Seattle"), None, Some("Chicago")] {
            city.push(v);
        }
        let height = numeric_column("height", vec![Some(70), Some(75), Some(62), None]);
        Table::new(
            "toy",
            vec![city.build(), height],
            (0..4).map(|i| format!("row{i}")).collect(),
        )
    }

    #[test]
    fn shape_and_lookup() {
        let t = toy();
        assert_eq!(t.n_rows(), 4);
        assert_eq!(t.n_columns(), 2);
        assert_eq!(t.column_index("city"), Some(0));
        assert_eq!(t.column_index("height"), Some(1));
        assert_eq!(t.column_index("nope"), None);
        assert_eq!(t.row_name(2), "row2");
        assert_eq!(t.column(0).kind(), ColumnKind::Categorical);
        assert_eq!(t.column(1).kind(), ColumnKind::Numeric);
    }

    #[test]
    fn dictionary_interning() {
        let t = toy();
        let chicago = t.cat_lookup(0, "Chicago").unwrap();
        assert_eq!(t.cat_code(0, 0), Some(chicago));
        assert_eq!(t.cat_code(0, 3), Some(chicago), "same code reused");
        assert_eq!(t.cat_code(0, 2), None, "NULL");
        assert_eq!(t.cat_string(0, chicago), "Chicago");
        assert_eq!(t.cat_lookup(0, "Boston"), None);
    }

    #[test]
    fn numeric_access() {
        let t = toy();
        assert_eq!(t.num_value(1, 1), Some(75));
        assert_eq!(t.num_value(1, 3), None);
    }

    #[test]
    #[should_panic(expected = "is numeric")]
    fn kind_confusion_panics() {
        toy().cat_code(1, 0);
    }

    #[test]
    #[should_panic(expected = "dictionary overflow")]
    fn dictionary_codes_stay_u16() {
        let mut col = CategoricalBuilder::new("c");
        for i in 0..=u16::MAX as u32 {
            col.push(Some(&i.to_string()));
        }
        col.push(Some("0"));
        col.push(Some("one value too many"));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_columns_panic() {
        let height = numeric_column("h", vec![Some(1)]);
        Table::new("bad", vec![height], vec!["a".into(), "b".into()]);
    }
}
