//! ASCII rendering of the paper's bar charts and tables, and the one
//! way the binaries print them.

use std::fmt::Display;
use std::io::{ErrorKind, Write};

/// Writes `text` and a newline to stdout, as `println!` does, but a
/// closed stdout ends the process quietly with status 0: `fig6 | head -1`
/// is not an error. Any other write error exits 1 with a message. The
/// [`emit!`](crate::emit!) macro takes `println!`'s arguments.
pub fn emit(text: impl Display) {
    if let Err(e) = writeln!(std::io::stdout().lock(), "{text}") {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: writing stdout: {e}");
        std::process::exit(1);
    }
}

/// Renders grouped bars (one group per label, one bar per series) as an
/// ASCII chart, the moral equivalent of the paper's Figures 6 and 7.
///
/// `series` pairs a name (e.g. `"RS"`) with one value per label.
pub fn bar_chart(title: &str, labels: &[&str], series: &[(&str, Vec<f64>)], unit: &str) -> String {
    let mut out = format!("== {title} ==\n");
    let max = series
        .iter()
        .flat_map(|(_, vs)| vs.iter().copied())
        .fold(f64::MIN, f64::max)
        .max(1e-12);
    const WIDTH: usize = 46;
    for (li, label) in labels.iter().enumerate() {
        out.push_str(&format!("{label}\n"));
        for (name, vs) in series {
            let v = vs.get(li).copied().unwrap_or(0.0);
            let n = ((v / max) * WIDTH as f64).round() as usize;
            out.push_str(&format!(
                "  {:<4} {:<width$} {v:.4} {unit}\n",
                name,
                "#".repeat(n.max(1)),
                width = WIDTH
            ));
        }
    }
    out
}

/// Renders rows as CSV with a header.
pub fn csv_table(header: &str, rows: &[String]) -> String {
    let mut out = String::from(header);
    out.push('\n');
    for r in rows {
        out.push_str(r);
        out.push('\n');
    }
    out
}

/// [`emit()`] with `println!`'s arguments.
#[macro_export]
macro_rules! emit {
    () => {
        $crate::emit("")
    };
    ($($arg:tt)*) => {
        $crate::emit(format_args!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chart_scales_to_max() {
        let chart = bar_chart(
            "demo",
            &["w1"],
            &[("RS", vec![10.0]), ("LS", vec![5.0])],
            "s",
        );
        assert!(chart.contains("== demo =="));
        let rs_line = chart.lines().find(|l| l.contains("RS")).unwrap();
        let ls_line = chart.lines().find(|l| l.contains("LS")).unwrap();
        let hashes = |l: &str| l.chars().filter(|&c| c == '#').count();
        assert!(hashes(rs_line) > hashes(ls_line));
        assert!(rs_line.contains("10.0000 s"));
    }

    #[test]
    fn csv_joins_rows() {
        let t = csv_table("a,b", &["1,2".into(), "3,4".into()]);
        assert_eq!(t, "a,b\n1,2\n3,4\n");
    }
}
