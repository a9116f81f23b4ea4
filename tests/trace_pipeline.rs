//! Fig. 7-shaped trace determinism over the full stack: a fixed-seed
//! MQE + CPS run on a traced cluster (with the measured-CPU term
//! zeroed, exactly as the bench binaries' `--trace` flag pins it) must
//! export byte-identical Chrome-trace JSON run after run, with every
//! sampling job appearing as a distinct named track.

use stratmr::mapreduce::{analysis, Cluster, CostConfig, TraceSink};
use stratmr::population::dblp::{DblpConfig, DblpGenerator};
use stratmr::population::Placement;
use stratmr::query::{GroupSpec, QueryGenerator};
use stratmr::sampling::cps::{try_mr_cps_on_splits, CpsConfig};
use stratmr::sampling::mqe::try_mr_mqe_on_splits;
use stratmr::sampling::to_input_splits;

fn traced_fig7_export() -> (Vec<String>, String) {
    let data = DblpGenerator::new(DblpConfig::default()).generate(5_000, 3);
    let dist = data.distribute(5, 10, Placement::RoundRobin);
    let splits = to_input_splits(&dist);
    let sink = TraceSink::new();
    // pin the cost model's only host-dependent term, as --trace does
    let cluster = Cluster::new(5)
        .with_costs(CostConfig {
            cpu_slowdown: 0.0,
            ..CostConfig::default()
        })
        .with_trace(sink.clone());
    let qgen = QueryGenerator::new(DblpGenerator::schema());
    let mssd = qgen.generate_paper_group_on(&GroupSpec::SMALL, 100, data.tuples(), 17);

    try_mr_mqe_on_splits(&cluster, &splits, mssd.queries(), None, 5).unwrap();
    try_mr_cps_on_splits(&cluster, &splits, &mssd, CpsConfig::mr_cps(), 5).unwrap();

    let names = sink.jobs().into_iter().map(|j| j.name).collect();
    (names, sink.chrome_trace_json())
}

#[test]
fn fixed_seed_trace_export_is_byte_identical_and_named() {
    let (names_a, json_a) = traced_fig7_export();
    let (names_b, json_b) = traced_fig7_export();
    assert_eq!(json_a, json_b, "trace export must be byte-identical");

    // each sampling phase appears as its own named track
    assert_eq!(names_a, names_b);
    assert_eq!(names_a[0], "mqe");
    assert!(
        names_a.contains(&"cps/initial-mqe".to_string())
            && names_a.contains(&"cps/limits".to_string())
            && names_a.contains(&"cps/combined-sqe".to_string()),
        "missing CPS phase tracks: {names_a:?}"
    );
    for name in &names_a {
        assert!(json_a.contains(&format!("{name}\"")), "{name} not exported");
    }

    // minimal structural validity of the trace-event format (full JSON
    // parsing is covered by the CI smoke step with python3)
    assert!(json_a.starts_with("{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": ["));
    assert!(json_a.trim_end().ends_with('}'));
    assert!(!json_a.contains("NaN") && !json_a.contains("inf"));
}

#[test]
fn analysis_summarizes_every_pipeline_job() {
    let data = DblpGenerator::new(DblpConfig::default()).generate(5_000, 3);
    let dist = data.distribute(4, 8, Placement::RoundRobin);
    let splits = to_input_splits(&dist);
    let sink = TraceSink::new();
    let cluster = Cluster::new(4).with_trace(sink.clone());
    let qgen = QueryGenerator::new(DblpGenerator::schema());
    let mssd = qgen.generate_paper_group_on(&GroupSpec::SMALL, 100, data.tuples(), 17);
    try_mr_cps_on_splits(&cluster, &splits, &mssd, CpsConfig::mr_cps(), 5).unwrap();

    for job in sink.jobs() {
        let cp = analysis::critical_path(&job);
        let rel = (cp.total_us - job.makespan_us).abs() / job.makespan_us.max(1.0);
        assert!(
            rel < 1e-9,
            "{}: critical path {} != makespan {}",
            job.name,
            cp.total_us,
            job.makespan_us
        );
        let line = analysis::summarize(&job);
        assert!(line.contains(&job.name), "{line}");
    }
}
