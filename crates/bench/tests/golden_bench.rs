//! Golden-file test pinning the `BENCH_*.json` artifact schema
//! byte-for-byte at a fixed seed and tiny scale.
//!
//! The artifact is rendered with [`ArtifactMeta::fixed_for_tests`] — a
//! constant git SHA, crate version and host subobject — so every byte
//! of the file, meta header included, is a pure function of the code.
//! Any change to the key layout, float formatting or metric naming
//! shows up as a diff here and requires a [`SCHEMA_VERSION`] bump
//! (see DESIGN.md, "Schema versioning").
//!
//! Regenerate after an intentional schema change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p stratmr-bench --test golden_bench
//! ```

use std::path::PathBuf;
use stratmr_bench::experiments::{self, run_to_artifact, Obs};
use stratmr_bench::meta::ArtifactMeta;
use stratmr_bench::{BenchConfig, BenchEnv};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/BENCH_robustness.json")
}

#[test]
fn bench_artifact_schema_is_byte_stable() {
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
    let exp = experiments::ALL
        .iter()
        .find(|e| e.name == "robustness")
        .unwrap();
    let meta = ArtifactMeta::fixed_for_tests(exp.name, stratmr_bench::env::DATA_SEED, &config);
    let (_, artifact) = run_to_artifact(exp, &env, meta, &Obs::full());
    let json = artifact.to_json();

    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &json).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        json, want,
        "BENCH artifact schema drifted from the golden file; if the change \
         is intentional, bump SCHEMA_VERSION and regenerate with UPDATE_GOLDEN=1"
    );

    // and the parser must round-trip the golden bytes
    let back = stratmr_bench::BenchArtifact::from_json(&want).expect("golden artifact parses");
    assert_eq!(back.meta.experiment, "robustness");
    assert!(back.total_samples() > 0);
}
