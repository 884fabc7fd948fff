//! The option × class crosscut matrix (the paper's Table 2).
//!
//! Table 2 is the paper's argument for generation over a static framework:
//! almost every option crosscuts several classes, so a framework
//! supporting all combinations dynamically would be riddled with
//! indirection. The matrix here is *read off the template text*: a row's
//! `O` is the option of its class's gate and its `+` marks are the options
//! the class's guards and splices name ([`crate::fragments::ClassSpec::marks`]).

use crate::fragments::{registry, OptionId};

/// A marker in one matrix cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mark {
    /// The option determines whether the class exists (`O`).
    Gates,
    /// The generated code of the class depends on the option value (`+`).
    Affects,
    /// No dependence.
    None,
}

impl Mark {
    fn symbol(self) -> &'static str {
        match self {
            Mark::Gates => "O",
            Mark::Affects => "+",
            Mark::None => ".",
        }
    }
}

/// The full matrix: one row per class, one column per option.
#[derive(Debug, Clone)]
pub struct CrosscutMatrix {
    /// Row labels (class names in Table 2 order).
    pub classes: Vec<&'static str>,
    /// `cells[row][col]`.
    pub cells: Vec<Vec<Mark>>,
}

impl CrosscutMatrix {
    /// Build the matrix from the class table.
    pub fn build() -> Self {
        Self {
            classes: registry().iter().map(|spec| spec.name).collect(),
            cells: registry().iter().map(|s| s.marks().to_vec()).collect(),
        }
    }

    /// Number of non-empty cells (total crosscut dependencies).
    pub fn dependency_count(&self) -> usize {
        self.cells
            .iter()
            .flatten()
            .filter(|m| !matches!(m, Mark::None))
            .count()
    }

    /// How many classes an option touches (gate or affect).
    pub fn classes_touched(&self, opt: OptionId) -> usize {
        let col = OptionId::ALL.iter().position(|&o| o == opt).unwrap();
        self.cells
            .iter()
            .filter(|row| !matches!(row[col], Mark::None))
            .count()
    }
}

/// Render the matrix as an aligned text table (the Table 2 reproduction).
pub fn render_matrix(m: &CrosscutMatrix) -> String {
    let name_w = m.classes.iter().map(|c| c.len()).max().unwrap_or(10) + 1;
    let mut out = String::new();
    out.push_str(&format!("{:<name_w$}", "Class \\ Option"));
    for opt in OptionId::ALL {
        out.push_str(&format!("{:>4}", opt.label()));
    }
    out.push('\n');
    for (name, row) in m.classes.iter().zip(&m.cells) {
        out.push_str(&format!("{name:<name_w$}"));
        for mark in row {
            out.push_str(&format!("{:>4}", mark.symbol()));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_dimensions_match_table2() {
        let m = CrosscutMatrix::build();
        assert_eq!(m.classes.len(), 27);
        assert!(m.cells.iter().all(|r| r.len() == 12));
    }

    #[test]
    fn spot_check_paper_cells() {
        let m = CrosscutMatrix::build();
        let row = |name: &str| {
            let i = m.classes.iter().position(|&c| c == name).unwrap();
            &m.cells[i]
        };
        // Event: + at O4 and O8, nothing else.
        let event = row("Event");
        assert_eq!(event[3], Mark::Affects); // O4
        assert_eq!(event[7], Mark::Affects); // O8
        assert_eq!(event.iter().filter(|m| **m != Mark::None).count(), 2);
        // Completion Event: O at O4.
        assert_eq!(row("Completion Event")[3], Mark::Gates);
        // Cache: O at O6, + at O11.
        let cache = row("Cache");
        assert_eq!(cache[5], Mark::Gates);
        assert_eq!(cache[10], Mark::Affects);
        // Server Configuration: only O10.
        let sc = row("Server Configuration");
        assert_eq!(sc[9], Mark::Affects);
        assert_eq!(sc.iter().filter(|m| **m != Mark::None).count(), 1);
    }

    #[test]
    fn every_option_crosscuts_at_least_one_class() {
        let m = CrosscutMatrix::build();
        for opt in OptionId::ALL {
            assert!(
                m.classes_touched(opt) >= 1,
                "{} touches no class",
                opt.label()
            );
        }
        // O10 (debug mode) is the most pervasive crosscut in Table 2.
        assert!(m.classes_touched(OptionId::O10) >= 15);
    }

    #[test]
    fn rendering_is_complete_and_aligned() {
        let m = CrosscutMatrix::build();
        let text = render_matrix(&m);
        assert_eq!(text.lines().count(), 28); // header + 27 rows
        assert!(text.contains("Reactor"));
        assert!(text.contains("O12"));
        let widths: Vec<usize> = text.lines().map(|l| l.len()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "misaligned table");
    }

    #[test]
    fn dependency_count_is_substantial() {
        // The crosscutting argument: dozens of (class, option) pairs.
        let m = CrosscutMatrix::build();
        assert!(m.dependency_count() > 80, "{}", m.dependency_count());
    }
}
