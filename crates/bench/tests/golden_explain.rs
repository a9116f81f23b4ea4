//! Golden-file test pinning the `EXPLAIN_optimality.json` artifact
//! byte-for-byte at a fixed seed and tiny scale.
//!
//! Like `golden_bench`, the artifact is stamped with
//! [`ArtifactMeta::fixed_for_tests`] so every byte — meta header
//! included — is a pure function of the code. Any change to the plan
//! or quality key layout shows up as a diff here.
//!
//! Regenerate after an intentional schema change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p stratmr-bench --test golden_explain
//! ```

use std::path::PathBuf;
use stratmr_bench::{explain, ArtifactMeta, BenchConfig, BenchEnv};
use stratmr_sampling::CpsConfig;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/EXPLAIN_optimality.json")
}

#[test]
fn explain_artifact_is_byte_stable() {
    let config = BenchConfig {
        population: 500,
        runs: 2,
        scales: vec![30],
        machines: 4,
        splits: 8,
        uniform: false,
        fault_seed: None,
    };
    let env = BenchEnv::new(config.clone());
    let meta = ArtifactMeta::fixed_for_tests("optimality", stratmr_bench::env::DATA_SEED, &config);
    let out = explain::run_explain(&env, CpsConfig::paper(), &meta);

    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &out.json).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        out.json, want,
        "EXPLAIN artifact drifted from the golden file; if the change is \
         intentional, regenerate with UPDATE_GOLDEN=1"
    );

    // the pinned bytes must parse and satisfy the gap invariant
    let value = serde_json::parse_value_str(&want).expect("golden explain parses");
    let fields = value.as_object().expect("object");
    let plan = serde::find_field(fields, "plan")
        .and_then(|p| p.as_object())
        .expect("plan object");
    let gap = match serde::find_field(plan, "optimality_gap").expect("gap present") {
        serde::Value::Float(f) => *f,
        serde::Value::Int(i) => *i as f64,
        serde::Value::UInt(u) => *u as f64,
        other => panic!("gap is not a number: {other:?}"),
    };
    assert!(gap >= 0.0, "optimality gap must be non-negative: {gap}");
    let quality = serde::find_field(fields, "quality")
        .and_then(|q| q.as_object())
        .expect("quality object");
    assert!(serde::find_field(quality, "trails").is_some());
}
