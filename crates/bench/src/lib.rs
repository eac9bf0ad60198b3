//! # esg-bench — experiment reports and benchmarks
//!
//! One binary per remaining one-off figure/sweep/ablation (see DESIGN.md's
//! experiment index); everything else runs through `esg-lab`. Binaries
//! print measured numbers next to the paper's, and note the expected
//! *shape*.

use std::fmt::Display;

/// Print a two-column comparison table.
pub fn table(title: &str, rows: &[(&str, String, String)]) {
    println!("\n== {title} ==");
    println!("{:<46} {:>16} {:>16}", "metric", "measured", "paper");
    println!("{:-<80}", "");
    for (name, measured, paper) in rows {
        println!("{name:<46} {measured:>16} {paper:>16}");
    }
}

/// Print a simple (x, y) sweep.
pub fn sweep<X: Display, Y: Display>(title: &str, x_label: &str, y_label: &str, rows: &[(X, Y)]) {
    println!("\n== {title} ==");
    println!("{x_label:>16} {y_label:>16}");
    for (x, y) in rows {
        println!("{x:>16} {y:>16}");
    }
}

/// A crude terminal sparkline for a series (Figure 8 at a glance).
pub fn sparkline(values: &[f64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().cloned().fold(f64::MIN, f64::max).max(1e-9);
    values
        .iter()
        .map(|&v| {
            let idx = ((v / max) * (GLYPHS.len() - 1) as f64).round() as usize;
            GLYPHS[idx.min(GLYPHS.len() - 1)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_scales() {
        let s = sparkline(&[0.0, 50.0, 100.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.ends_with('█'));
        assert!(s.starts_with('▁'));
    }
}
