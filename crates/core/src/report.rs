//! Plain-text reporting helpers for the experiment harness: aligned
//! tables (the paper's Table I) and ASCII heatmaps (the paper's Fig. 3
//! panels), so every experiment binary can print the same rows/series the
//! paper reports without a plotting stack.

use xbar_data::ImageShape;

/// Renders an aligned text table. The first row of `rows` lines up under
/// `headers`; every cell is padded to its column's widest entry.
///
/// # Panics
///
/// Panics if any row has a different number of cells than `headers`.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(
            row.len(),
            headers.len(),
            "row {i} has {} cells, expected {}",
            row.len(),
            headers.len()
        );
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let sep = |out: &mut String| {
        for w in &widths {
            out.push('+');
            out.push_str(&"-".repeat(w + 2));
        }
        out.push_str("+\n");
    };
    sep(&mut out);
    out.push('|');
    for (h, w) in headers.iter().zip(&widths) {
        out.push_str(&format!(" {h:<w$} |"));
    }
    out.push('\n');
    sep(&mut out);
    for row in rows {
        out.push('|');
        for (cell, w) in row.iter().zip(&widths) {
            out.push_str(&format!(" {cell:<w$} |"));
        }
        out.push('\n');
    }
    sep(&mut out);
    out
}

/// Intensity ramp used by [`ascii_heatmap`], darkest to brightest.
const RAMP: &[u8] = b" .:-=+*#%@";

/// Renders per-pixel values of channel `channel` as an ASCII heatmap,
/// normalising min→' ' and max→'@'. This is how the experiment binaries
/// show the paper's Fig. 3 sensitivity and 1-norm maps.
///
/// # Panics
///
/// Panics if `values.len() != shape.len()` or `channel >= shape.channels`.
pub fn ascii_heatmap(values: &[f64], shape: ImageShape, channel: usize) -> String {
    assert_eq!(values.len(), shape.len(), "heatmap: value count mismatch");
    assert!(channel < shape.channels, "heatmap: channel out of range");
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for r in 0..shape.height {
        for c in 0..shape.width {
            let v = values[shape.index(r, c, channel)];
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    let range = if hi > lo { hi - lo } else { 1.0 };
    let mut out = String::with_capacity((shape.width + 1) * shape.height);
    for r in 0..shape.height {
        for c in 0..shape.width {
            let v = values[shape.index(r, c, channel)];
            let t = ((v - lo) / range).clamp(0.0, 1.0);
            let idx = ((t * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1);
            out.push(RAMP[idx] as char);
        }
        out.push('\n');
    }
    out
}

/// Formats a float for table cells with fixed precision.
pub fn fmt(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

/// Appends a significance asterisk when `p < alpha` (the paper's Fig. 5
/// annotation convention).
pub fn fmt_with_significance(value: f64, p: f64, alpha: f64, decimals: usize) -> String {
    if p < alpha {
        format!("{value:.decimals$}*")
    } else {
        format!("{value:.decimals$}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned_and_complete() {
        let t = format_table(
            &["Dataset", "Acc"],
            &[
                vec!["digits".into(), "0.90".into()],
                vec!["objects-long-name".into(), "0.36".into()],
            ],
        );
        assert!(t.contains("digits"));
        assert!(t.contains("objects-long-name"));
        // All lines equal width.
        let widths: Vec<usize> = t.lines().map(str::len).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{t}");
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn table_validates_row_lengths() {
        let _ = format_table(&["a", "b"], &[vec!["x".into()]]);
    }

    #[test]
    fn heatmap_shape_and_extremes() {
        let shape = ImageShape::new(2, 3, 1);
        let vals = vec![0.0, 0.5, 1.0, 1.0, 0.5, 0.0];
        let h = ascii_heatmap(&vals, shape, 0);
        let lines: Vec<&str> = h.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].len(), 3);
        assert_eq!(lines[0].chars().next().unwrap(), ' ');
        assert_eq!(lines[0].chars().last().unwrap(), '@');
    }

    #[test]
    fn heatmap_constant_input_does_not_divide_by_zero() {
        let shape = ImageShape::new(2, 2, 1);
        let h = ascii_heatmap(&[0.5; 4], shape, 0);
        assert_eq!(h.lines().count(), 2);
    }

    #[test]
    fn heatmap_multichannel_selects_channel() {
        let shape = ImageShape::new(1, 2, 2);
        // channel 0: [0, 1]; channel 1: [1, 0]
        let vals = vec![0.0, 1.0, 1.0, 0.0];
        let h0 = ascii_heatmap(&vals, shape, 0);
        let h1 = ascii_heatmap(&vals, shape, 1);
        assert_eq!(h0.lines().next().unwrap(), " @");
        assert_eq!(h1.lines().next().unwrap(), "@ ");
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt(0.12345, 2), "0.12");
        assert_eq!(fmt_with_significance(0.2, 0.01, 0.05, 2), "0.20*");
        assert_eq!(fmt_with_significance(0.2, 0.2, 0.05, 2), "0.20");
    }
}
