//! Plain-text table/series rendering for the report binary.

/// Renders a fixed-width table: header plus rows of equal arity.
pub fn render(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "ragged table row");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{:>width$}", cell, width = widths[i]));
        }
        out.push('\n');
    };
    line(
        &mut out,
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * cols.saturating_sub(1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        line(&mut out, row);
    }
    out
}

/// Formats seconds with 3 decimals.
pub fn secs(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a ratio like `2.4x`.
pub fn ratio(a: f64, b: f64) -> String {
    if b == 0.0 {
        "-".into()
    } else {
        format!("{:.2}x", a / b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let t = render(
            &["sf", "simple"],
            &[
                vec!["0.1".into(), "1.234".into()],
                vec!["1".into(), "10.5".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("sf"));
        assert!(lines[1].starts_with('-'));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        render(&["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn ratio_formats() {
        assert_eq!(ratio(4.0, 2.0), "2.00x");
        assert_eq!(ratio(1.0, 0.0), "-");
    }
}
