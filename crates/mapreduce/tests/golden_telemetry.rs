//! Golden-file test for the telemetry JSON export: a fixed-seed job on
//! a fixed cluster must serialise to *byte-identical* JSON run after
//! run. Host-dependent wall-clock measurements are confined to the
//! `"host"` subobject by design and stripped with `without_host()`, so
//! everything that remains — counters, sim-time histograms, span call
//! counts — is a pure function of the computation.
//!
//! Regenerate after an intentional format or accounting change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p stratmr-mapreduce --test golden_telemetry
//! ```

use std::path::PathBuf;
use stratmr_mapreduce::{make_splits, Cluster, CombineJob, Emitter, FaultPlan, TaskCtx};
use stratmr_telemetry::Registry;

struct WordLen;

impl CombineJob for WordLen {
    type Input = String;
    type Key = usize;
    type MapOut = u64;
    type Acc = u64;
    type CombOut = u64;
    type ReduceOut = u64;
    type Side = ();
    fn map(&self, _c: &TaskCtx, r: &String, out: &mut Emitter<usize, u64>) {
        out.emit(r.len(), 1);
    }
    fn start(&self, _c: &TaskCtx, _k: &usize) -> u64 {
        0
    }
    fn observe(&self, acc: &mut u64, v: u64) {
        *acc += v;
    }
    fn finish(&self, acc: u64) -> u64 {
        acc
    }
    fn reduce(&self, _c: &TaskCtx, _k: &usize, v: Vec<u64>) -> u64 {
        v.into_iter().sum()
    }
    fn comb_bytes(&self, _k: &usize, _v: &u64) -> u64 {
        16
    }
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/telemetry.json")
}

#[test]
fn telemetry_json_export_is_byte_stable() {
    let registry = Registry::new();
    // every attempt on every machine fails with probability 0.25
    let flaky = (0..3).fold(FaultPlan::new(), |plan, m| plan.flaky(m, 0.25));
    let cluster = Cluster::new(3)
        .with_fault_plan(flaky)
        .with_telemetry(registry.clone());
    let words: Vec<String> = (0..64u64)
        .map(|i| "x".repeat((i % 7 + 1) as usize))
        .collect();
    let splits = make_splits(words, 5, 3);
    cluster
        .try_run_with_combiner(&WordLen, &splits, 0xDEAD_BEEF)
        .unwrap();

    let json = registry.snapshot().without_host().to_json();
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
        "telemetry JSON drifted from the golden file; if the change is \
         intentional, regenerate with UPDATE_GOLDEN=1"
    );
}
