//! Plain-text table rendering, JSON experiment records and per-job
//! trace summaries.

use crate::meta::ArtifactMeta;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use stratmr_mapreduce::{analysis, JobTrace};
use stratmr_telemetry::json;

/// A simple fixed-width text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells);
        self
    }

    /// Render with aligned columns. A headerless table renders as the
    /// empty string.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        if cols == 0 {
            return String::new();
        }
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>width$}", width = widths[c]);
            }
            out.push('\n');
        };
        fmt_row(&self.header, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format a duration in seconds compactly (`ms` below one second).
pub fn fmt_duration_s(secs: f64) -> String {
    if secs >= 100.0 {
        format!("{secs:.0} s")
    } else if secs >= 1.0 {
        format!("{secs:.1} s")
    } else {
        format!("{:.1} ms", secs * 1e3)
    }
}

/// Where experiment records go: `<target dir>/experiments`, the target
/// dir being `target_dir` (the value of `CARGO_TARGET_DIR`) when given,
/// else `target/` at the repository root — the root the `BENCH_*.json`
/// artifacts are written to, whatever the working directory.
fn records_dir(target_dir: Option<std::ffi::OsString>) -> PathBuf {
    target_dir
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target"))
        .join("experiments")
}

/// Write an experiment record as JSON under [`records_dir`], so
/// EXPERIMENTS.md entries are backed by machine-readable data. The file
/// is `{"meta": <header>, "records": <array>}` with the common
/// single-line meta header first.
pub(crate) fn write_record_json(
    name: &str,
    meta: &ArtifactMeta,
    records_json: &str,
) -> std::io::Result<PathBuf> {
    let dir = records_dir(std::env::var_os("CARGO_TARGET_DIR"));
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    let body = json::document(json::INDENT, |w| {
        meta.write_field(w);
        w.key("records").embed(records_json);
    });
    std::fs::write(&path, body)?;
    Ok(path)
}

/// Render one human-readable line per traced job — its critical path
/// (which machine/partition bounded each phase), shuffle skew and any
/// stragglers — followed by a series total. Returns an empty string
/// when no job was traced.
pub(crate) fn render_trace_summary(jobs: &[JobTrace]) -> String {
    if jobs.is_empty() {
        return String::new();
    }
    let mut out = String::from("trace summary (critical path per job):\n");
    for job in jobs {
        let _ = writeln!(out, "  {}", analysis::summarize(job));
    }
    let total: f64 = jobs.iter().map(|j| j.makespan_us).sum();
    let _ = writeln!(
        out,
        "  total: {} jobs, {:.3}s simulated end to end",
        jobs.len(),
        total / 1e6
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_summary_lists_each_job_and_total() {
        use stratmr_mapreduce::{make_splits, Cluster, Emitter, Job, TaskCtx, TraceSink};
        struct Count;
        impl Job for Count {
            type Input = u64;
            type Key = u8;
            type MapOut = u64;
            type ReduceOut = u64;
            fn map(&self, _c: &TaskCtx, r: &u64, out: &mut Emitter<u8, u64>) {
                out.emit((*r % 3) as u8, 1);
            }
            fn reduce(&self, _c: &TaskCtx, _k: &u8, v: Vec<u64>) -> u64 {
                v.into_iter().sum()
            }
        }
        let sink = TraceSink::new();
        let cluster = Cluster::new(2).with_trace(sink.clone());
        let splits = make_splits((0..100).collect(), 4, 2);
        cluster.named("a").try_run(&Count, &splits, 1).unwrap();
        cluster.named("b").try_run(&Count, &splits, 2).unwrap();
        let text = render_trace_summary(&sink.jobs());
        assert!(text.contains("a#0:"), "{text}");
        assert!(text.contains("b#1:"), "{text}");
        assert!(text.contains("total: 2 jobs"), "{text}");
        assert_eq!(render_trace_summary(&[]), "");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["group", "ratio"]);
        t.row(vec!["Small".into(), "62%".into()]);
        t.row(vec!["Medium".into(), "51%".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("group"));
        assert!(lines[2].ends_with("62%"));
        // all rows same width
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn wrong_arity_rejected() {
        Table::new(&["a", "b"]).row(vec!["only one".into()]);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration_s(0.0123), "12.3 ms");
        assert_eq!(fmt_duration_s(2.5), "2.5 s");
        assert_eq!(fmt_duration_s(125.0), "125 s");
    }

    #[test]
    fn record_write_embeds_meta_then_records() {
        let meta = ArtifactMeta::fixed_for_tests("unit", 1, &crate::BenchConfig::default());
        let path =
            write_record_json("unit-test-record", &meta, "[\n  {\n    \"x\": 7\n  }\n]").unwrap();
        let body = std::fs::read_to_string(path).unwrap();
        assert!(
            body.starts_with("{\n  \"meta\": {\"schema_version\": "),
            "{body}"
        );
        assert!(
            body.ends_with("\n  \"records\": [\n    {\n      \"x\": 7\n    }\n  ]\n}\n"),
            "{body}"
        );
        let parsed = serde_json::parse_value_str(&body).expect("valid JSON");
        assert!(parsed.as_object().is_some());
    }

    #[test]
    fn records_dir_is_anchored_at_the_repository_root() {
        let dir = records_dir(None);
        assert!(dir.is_absolute(), "{}", dir.display());
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        assert_eq!(dir, root.join("target/experiments"));
        // the workspace manifest, where bench_suite writes BENCH_*.json
        assert!(root.join("Cargo.toml").is_file() && root.join("bench/baselines").is_dir());
        assert_eq!(
            records_dir(Some("/elsewhere/tgt".into())),
            Path::new("/elsewhere/tgt/experiments")
        );
    }

    #[test]
    fn empty_table_renders_empty() {
        let t = Table::new(&[]);
        assert_eq!(t.render(), "");
    }

    #[test]
    fn single_row_table_aligns_to_widest_cell() {
        let mut t = Table::new(&["metric", "v"]);
        t.row(vec!["makespan".into(), "12".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3, "{s}");
        assert!(lines[0].contains("metric"));
        assert_eq!(lines[1], "-".repeat(lines[2].len()), "{s}");
        assert!(lines[2].ends_with("12"));
    }
}
