//! Report formatting: aligned console tables and CSV emission, mirroring
//! the artifact's `SpeedProfile`/`AccuracyProfile` text outputs.

use std::fmt::Write as _;
use std::path::Path;

/// A simple column-aligned table printer.
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Renders as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    /// Writes the CSV form to `path` (creating parent directories).
    pub fn write_csv(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_csv())
    }
}

/// Formats a float with 4 significant decimals.
pub fn f(v: f64) -> String {
    format!("{v:.4}")
}

/// Formats a float as a percentage with 2 decimals.
pub fn pct(v: f64) -> String {
    format!("{:.2}%", v * 100.0)
}

/// Formats a throughput in million ops per second.
pub fn mops(v: f64) -> String {
    format!("{v:.2}")
}

/// Parses harness CLI flags of the form `--full` / `--out=DIR`.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Paper-scale parameters instead of the quick defaults.
    pub full: bool,
    /// Output directory for CSV artefacts.
    pub out_dir: String,
    /// Remaining free-form key=value flags.
    pub extra: Vec<(String, String)>,
}

impl HarnessArgs {
    /// Parses `std::env::args`, skipping the binary name; `default_out`
    /// is where artefacts go without an `--out=` flag (`"results"` for
    /// the figure binaries, `"."` for the CI JSON emitters). A usage
    /// error is printed and exits with status 2.
    pub fn parse(default_out: &str) -> Self {
        Self::from_iter(std::env::args().skip(1), default_out).unwrap_or_else(|e| {
            eprintln!("usage error: {e} (flags are --full, --out=DIR, --key[=value])");
            std::process::exit(2)
        })
    }

    /// Parses from an explicit iterator (testable).
    ///
    /// # Errors
    ///
    /// An empty `--out=` (it would write to the filesystem root) and an
    /// argument that is not a `--flag` (it would be dropped silently).
    // Not `FromIterator`: this parses CLI flags (fallible, ordered)
    // rather than collecting.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter(
        args: impl Iterator<Item = String>,
        default_out: &str,
    ) -> Result<Self, String> {
        let mut out = HarnessArgs {
            full: false,
            out_dir: default_out.to_string(),
            extra: Vec::new(),
        };
        for a in args {
            if a == "--full" {
                out.full = true;
            } else if let Some(dir) = a.strip_prefix("--out=") {
                if dir.is_empty() {
                    return Err("--out= names no directory".to_string());
                }
                out.out_dir = dir.to_string();
            } else if let Some(kv) = a.strip_prefix("--") {
                match kv.split_once('=') {
                    Some((k, v)) => out.extra.push((k.to_string(), v.to_string())),
                    None => out.extra.push((kv.to_string(), "true".to_string())),
                }
            } else {
                return Err(format!("unexpected argument \"{a}\""));
            }
        }
        Ok(out)
    }

    /// Looks up an extra flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.extra
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "bbbb"]);
        t.row(&["1".into(), "2".into()]);
        t.row(&["333".into(), "4".into()]);
        let r = t.render();
        assert!(r.contains("a  bbbb") || r.contains("  a  bbbb"));
        assert!(r.lines().count() == 4);
    }

    #[test]
    fn csv_round_trip() {
        let mut t = Table::new(&["x", "y"]);
        t.row(&["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "x,y\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = Table::new(&["a"]);
        t.row(&["1".into(), "2".into()]);
    }

    fn parse(args: &[&str]) -> Result<HarnessArgs, String> {
        HarnessArgs::from_iter(args.iter().map(|s| s.to_string()), "results")
    }

    #[test]
    fn args_parse() {
        let a = parse(&["--full", "--out=/tmp/x", "--k=256", "--eager"]).unwrap();
        assert!(a.full);
        assert_eq!(a.out_dir, "/tmp/x");
        assert_eq!(a.get("k"), Some("256"));
        assert_eq!(a.get("eager"), Some("true"));
        assert_eq!(a.get("missing"), None);
        assert_eq!(parse(&[]).unwrap().out_dir, "results");
    }

    #[test]
    fn args_reject_an_empty_out_dir_and_positional_arguments() {
        assert!(parse(&["--out="]).unwrap_err().contains("--out="));
        assert!(parse(&["--full", "full"]).unwrap_err().contains("\"full\""));
        assert!(parse(&["-full"]).is_err());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f(1.23456), "1.2346");
        assert_eq!(pct(0.0312), "3.12%");
        assert_eq!(mops(123.456), "123.46");
    }
}
