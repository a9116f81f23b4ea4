//! Telemetry plumbing for the sampling jobs.
//!
//! The MapReduce jobs in this crate run their `map`/`combine`/`reduce`
//! callbacks inside the cluster's parallel sections, so counter handles
//! are prefetched here once per job (taking the registry lock) and the
//! hot paths only touch lock-free atomics.
//!
//! Counter naming scheme (all monotone `u64`):
//!
//! | name | meaning |
//! |---|---|
//! | `<job>.s<k>.requested` | the frequency `f_k` the query asked for |
//! | `<job>.s<k>.candidates` | map-phase tuples matched into stratum `k` |
//! | `<job>.s<k>.sampled` | tuples in stratum `k`'s final sample |
//! | `<job>.s<k>.rejected` | candidates observed but not selected |
//!
//! where `<job>` is `sqe`, `mqe.q<i>` (per query), `cps.combined`
//! (per combined-query stratum) or `cps.residual` (aggregate, because
//! its keys are dynamic `(query, σ)` pairs).
//!
//! Together the quadruple is a per-stratum inclusion-probability trail:
//! each of the `candidates` tuples entered the final sample with
//! probability `sampled / candidates` and therefore represents
//! `candidates / sampled` population members (the Horvitz–Thompson
//! weight). The [`crate::audit`] module turns these counters into a
//! [`crate::audit::QualityReport`].

use stratmr_telemetry::{Counter, Registry};

/// Prefetched per-stratum counter handles for one sampling job.
pub(crate) struct StratumCounters {
    requested: Vec<Counter>,
    candidates: Vec<Counter>,
    sampled: Vec<Counter>,
    rejected: Vec<Counter>,
}

impl StratumCounters {
    /// One `requested`/`candidates`/`sampled`/`rejected` counter
    /// quadruple per stratum, named `<prefix>.s<k>.<field>`, with stratum
    /// `k`'s request `frequencies[k]` recorded.
    pub(crate) fn per_stratum(
        registry: &Registry,
        prefix: &str,
        frequencies: impl IntoIterator<Item = usize>,
    ) -> Self {
        let frequencies: Vec<usize> = frequencies.into_iter().collect();
        let fetch = |field: &str| {
            (0..frequencies.len())
                .map(|k| registry.counter(&format!("{prefix}.s{k}.{field}")))
                .collect()
        };
        let counters = Self {
            requested: fetch("requested"),
            candidates: fetch("candidates"),
            sampled: fetch("sampled"),
            rejected: fetch("rejected"),
        };
        for (k, &f) in frequencies.iter().enumerate() {
            counters.request(k, f as u64);
        }
        counters
    }

    /// A single aggregate quadruple named `<prefix>.<field>`, for jobs
    /// whose key space is not a fixed stratum range. Record with
    /// index 0.
    pub fn aggregate(registry: &Registry, prefix: &str) -> Self {
        let fetch = |field: &str| vec![registry.counter(&format!("{prefix}.{field}"))];
        Self {
            requested: fetch("requested"),
            candidates: fetch("candidates"),
            sampled: fetch("sampled"),
            rejected: fetch("rejected"),
        }
    }

    /// Record the requested frequency `f` for stratum `k` (once, at
    /// job-construction time).
    pub(crate) fn request(&self, k: usize, f: u64) {
        self.requested[k].add(f);
    }

    /// A map-phase match for stratum `k`.
    #[inline]
    pub fn candidate(&self, k: usize) {
        self.candidates[k].inc();
    }

    /// Stratum `k`'s reducer produced `sampled` tuples out of `seen`
    /// observed candidates.
    pub fn reduced(&self, k: usize, sampled: u64, seen: u64) {
        self.sampled[k].add(sampled);
        self.rejected[k].add(seen.saturating_sub(sampled));
    }
}
