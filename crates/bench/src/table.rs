//! One table type for the paper's figures: a single column list drives both
//! the fixed-width text the harness prints and the JSON rows it writes.

use torchgt_compat::json::{ToJson, Value};

/// One column: its header (with the unit, the row's JSON key), its printed
/// width, and how it prints numbers.
#[derive(Clone, Copy)]
pub(crate) struct Column {
    header: &'static str,
    width: usize,
    /// Labels align left; numbers, and text in a number column, right.
    left: bool,
    decimals: usize,
    /// `e` notation instead of fixed decimals.
    sci: bool,
    /// Printed after each number, inside the width (`x`, `%`, `K`).
    unit: &'static str,
}

/// A left-aligned text column.
pub(crate) const fn label(header: &'static str, width: usize) -> Column {
    Column { header, width, left: true, decimals: 0, sci: false, unit: "" }
}

/// A right-aligned number column with `decimals` fixed decimals.
pub(crate) const fn num(header: &'static str, width: usize, decimals: usize) -> Column {
    Column { header, width, left: false, decimals, sci: false, unit: "" }
}

/// A right-aligned number column in `e` notation.
pub(crate) const fn sci(header: &'static str, width: usize, decimals: usize) -> Column {
    Column { sci: true, ..num(header, width, decimals) }
}

impl Column {
    /// The same column with `unit` printed after each number.
    pub(crate) const fn unit(self, unit: &'static str) -> Column {
        Column { unit, ..self }
    }

    /// The JSON key: the header, with the unit when the header lacks it.
    fn key(&self) -> String {
        match self.unit {
            "" => self.header.to_string(),
            unit if self.header.ends_with(unit) => self.header.to_string(),
            unit => format!("{} ({unit})", self.header),
        }
    }

    fn pad(&self, text: &str) -> String {
        let w = self.width;
        if self.left {
            format!("{text:<w$}")
        } else {
            format!("{text:>w$}")
        }
    }

    fn print(&self, cell: &Cell) -> String {
        let (w, d) = (self.width - self.unit.len(), self.decimals);
        match cell {
            Cell::Text(text) => self.pad(text),
            Cell::Num(v) if self.sci => format!("{v:>w$.d$e}{}", self.unit),
            Cell::Num(v) => format!("{v:>w$.d$}{}", self.unit),
        }
    }
}

/// One cell of a [`Table`].
pub(crate) enum Cell {
    Text(String),
    Num(f64),
}

impl From<f64> for Cell {
    fn from(v: f64) -> Cell {
        Cell::Num(v)
    }
}

impl From<usize> for Cell {
    fn from(v: usize) -> Cell {
        Cell::Num(v as f64)
    }
}

impl From<&str> for Cell {
    fn from(text: &str) -> Cell {
        Cell::Text(text.to_string())
    }
}

/// A titled table of rows, with free-text notes printed after it.
pub(crate) struct Table {
    title: String,
    columns: Vec<Column>,
    rows: Vec<Vec<Cell>>,
    notes: Vec<String>,
}

impl Table {
    pub(crate) fn new(title: impl Into<String>, columns: &[Column]) -> Table {
        Table { title: title.into(), columns: columns.to_vec(), rows: Vec::new(), notes: Vec::new() }
    }

    pub(crate) fn row(&mut self, cells: impl IntoIterator<Item = Cell>) {
        let row: Vec<Cell> = cells.into_iter().collect();
        assert_eq!(row.len(), self.columns.len(), "row width differs from the column list");
        self.rows.push(row);
    }

    pub(crate) fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    fn print(&self) {
        if !self.title.is_empty() {
            println!("\n{}", self.title);
        }
        let line = |cells: Vec<String>| println!("{}", cells.join(" "));
        line(self.columns.iter().map(|c| c.pad(c.header)).collect());
        for row in &self.rows {
            line(self.columns.iter().zip(row).map(|(c, cell)| c.print(cell)).collect());
        }
        self.notes.iter().for_each(|n| println!("{n}"));
    }

    fn to_json(&self) -> Value {
        let rows = self.rows.iter().map(|row| {
            let cells = self.columns.iter().zip(row).map(|(c, cell)| {
                let v = match cell {
                    Cell::Text(text) => Value::Str(text.clone()),
                    Cell::Num(v) => v.to_json(),
                };
                (c.key(), v)
            });
            Value::Object(cells.collect())
        });
        Value::Object(vec![
            ("title".into(), self.title.to_json()),
            ("rows".into(), Value::Array(rows.collect())),
            ("notes".into(), self.notes.to_json()),
        ])
    }
}

/// What one figure reproduces: its tables and its named paper-shape checks.
#[derive(Default)]
pub struct Report {
    tables: Vec<Table>,
    /// `(name, held)` for every check, in the order they ran.
    pub checks: Vec<(String, bool)>,
}

impl Report {
    pub(crate) fn push(&mut self, table: Table) {
        self.tables.push(table);
    }

    /// Record a paper-shape check.
    pub(crate) fn check(&mut self, name: impl Into<String>, held: bool) {
        self.checks.push((name.into(), held));
    }

    /// The names of the checks that did not hold.
    pub fn failed(&self) -> Vec<&str> {
        self.checks.iter().filter(|(_, held)| !held).map(|(name, _)| name.as_str()).collect()
    }

    pub(crate) fn print(&self) {
        self.tables.iter().for_each(Table::print);
        println!();
        for (name, held) in &self.checks {
            println!("check {} {name}", if *held { '✓' } else { '✗' });
        }
    }

    pub(crate) fn to_json(&self, paper: &str) -> Value {
        let checks = self.checks.iter().map(|(name, held)| {
            Value::Object(vec![("check".into(), name.to_json()), ("held".into(), held.to_json())])
        });
        Value::Object(vec![
            ("paper".into(), paper.to_json()),
            ("tables".into(), Value::Array(self.tables.iter().map(Table::to_json).collect())),
            ("checks".into(), Value::Array(checks.collect())),
        ])
    }
}
