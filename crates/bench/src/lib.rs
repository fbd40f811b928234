//! Evaluation harness for the VirtualWire reproduction: regenerates the
//! paper's Section 7 figures.
//!
//! * [`fig7`] — TCP throughput vs. offered data pumping rate, with and
//!   without VirtualWire (+RLL), on a 100 Mb/s switched LAN (paper
//!   Figure 7).
//! * [`fig8`] — percentage increase in UDP echo round-trip latency vs.
//!   number of packet-type definitions, for (i) filters only, (ii) filters
//!   plus 25 actions per matched packet, (iii) case (ii) with the RLL
//!   turned on (paper Figure 8).
//!
//! Run them via `cargo bench -p vw-bench` (the `fig7_throughput` and
//! `fig8_latency` bench targets print the paper-style tables), or call
//! [`fig7::run`] / [`fig8::run`] programmatically.
//!
//! Absolute numbers come from a simulator, not the authors' Pentium-4
//! testbed; what is expected to reproduce is the *shape*: throughput
//! tracking offered load with ≤10% degradation under VirtualWire+RLL, and
//! latency overhead growing linearly in the number of filter rules while
//! staying under ~10%.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classifier_cmp;
pub mod fig7;
pub mod fig8;
pub mod scriptgen;

/// Formats a data series as an aligned text table.
pub fn format_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:>width$}", width = widths[i]))
        .collect();
    out.push_str(&header_line.join("  "));
    out.push('\n');
    out.push_str(&"-".repeat(header_line.join("  ").len()));
    out.push('\n');
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>width$}", width = widths.get(i).copied().unwrap_or(8)))
            .collect();
        out.push_str(&line.join("  "));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_formatting_aligns_columns() {
        let text = format_table(
            "demo",
            &["a", "long-header"],
            &[
                vec!["1".into(), "2".into()],
                vec!["100".into(), "2000".into()],
            ],
        );
        assert!(text.contains("demo"));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[1].len(), lines[3].len());
    }
}
