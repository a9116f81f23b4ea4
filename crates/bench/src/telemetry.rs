//! The `--telemetry <out.json>` and `--trace <out.json>` flags shared
//! by the bench binaries.
//!
//! With `--telemetry`, a [`Registry`] is threaded through every
//! simulated cluster (and, via the cluster, into the sampling jobs and
//! LP/IP solvers), and the final snapshot is written to the given path
//! as JSON on exit. With `--trace`, a [`TraceSink`] collects one
//! [`stratmr_telemetry::JobTrace`] per MapReduce job and the full
//! series is written in Chrome trace-event JSON (Perfetto-loadable),
//! with a per-job critical-path/skew summary printed to stdout:
//!
//! ```text
//! cargo run --release -p stratmr-bench --bin fig7_running_times -- \
//!     --telemetry fig7_telemetry.json --trace fig7_trace.json
//! ```
//!
//! Simulated times are a function of record and byte counts only, so a
//! fixed-seed trace and the deterministic sections of a telemetry dump
//! are byte-identical across runs. The flags are parsed by
//! [`crate::CliArgs`].

use crate::meta::ArtifactMeta;
use std::path::PathBuf;
use stratmr_telemetry::{json, Registry, TraceSink};

/// A telemetry sink requested on the command line.
pub struct TelemetrySink {
    /// The registry collecting counters, histograms and spans.
    pub registry: Registry,
    pub(crate) path: PathBuf,
}

impl TelemetrySink {
    /// Write the registry snapshot as JSON to the requested path,
    /// stamped with the `meta` header.
    pub fn write(&self, meta: &ArtifactMeta) -> std::io::Result<&std::path::Path> {
        let snapshot = self.registry.snapshot();
        let body = json::document(json::INDENT, |w| {
            meta.write_field(w);
            snapshot.write_fields(w);
        });
        std::fs::write(&self.path, body)?;
        Ok(&self.path)
    }
}

/// Write the telemetry JSON (if a sink is active) and report the path,
/// stamping the given `meta` header. An unwritable path is reported on
/// stderr and exits with status 1 so a scripted run notices the missing
/// dump.
pub fn finish(sink: Option<TelemetrySink>, meta: &ArtifactMeta) {
    if let Some(s) = sink {
        match s.write(meta) {
            Ok(path) => println!("telemetry: {}", path.display()),
            Err(e) => {
                eprintln!("error: cannot write telemetry to {}: {e}", s.path.display());
                std::process::exit(1);
            }
        }
    }
}

/// A per-task trace sink requested on the command line via
/// `--trace <out.json>`.
pub struct TraceFile {
    /// The shared sink every traced cluster appends to.
    pub sink: TraceSink,
    pub(crate) path: PathBuf,
}

/// Write the Chrome-trace JSON (if a sink is active), print the per-job
/// critical-path/skew summary, and report the path, stamping the given
/// `meta` header. Exits with status 1 on an unwritable path, like
/// [`finish`].
pub(crate) fn finish_trace(trace: Option<TraceFile>, meta: &ArtifactMeta) {
    if let Some(t) = trace {
        let jobs = t.sink.jobs();
        print!("{}", crate::report::render_trace_summary(&jobs));
        let body = json::document(TraceSink::JSON_INDENT, |w| {
            meta.write_field(w);
            t.sink.write_fields(w);
        });
        match std::fs::write(&t.path, body) {
            Ok(()) => println!("trace: {} ({} jobs)", t.path.display(), jobs.len()),
            Err(e) => {
                eprintln!("error: cannot write trace to {}: {e}", t.path.display());
                std::process::exit(1);
            }
        }
    }
}
