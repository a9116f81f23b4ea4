//! Synthetic DBLP-like author population (Table 1 of the paper).
//!
//! The paper extracts ~1M computer-science authors from the DBLP
//! bibliography and fits the attribute distributions listed in Table 1.
//! The raw snapshot is not available offline, so this module *regenerates*
//! a population whose queryable attributes follow exactly those fitted
//! distributions, with the realistic inter-attribute correlations the
//! paper notes ("there are obvious correlations between values of
//! different columns, as in almost any realistic dataset").
//!
//! | attr  | domain        | distribution                                   |
//! |-------|---------------|------------------------------------------------|
//! | nop   | [1, 699]      | Dagum(k=0.68, α=0.52, β=0.89, γ=1)             |
//! | ayp   | [0, 40]       | Dagum(k=0.24, α=0.87, β=0.66, γ=1)             |
//! | myp   | [0, 140]      | Dagum(k=0.16, α=0.86, β=0.78, γ=1)             |
//! | fy    | [1936, 2013]  | PowerFunction(α=7.75, a=1936, b=2013)          |
//! | ly    | [1936, 2013]  | PowerFunction(α=11.83, a=1936, b=2013)         |
//! | cc    | [1, 1000]     | Burr(k=0.47, α=2.96, β=3.05, γ=0)              |
//! | ndcc  | [1, 2500]     | Burr(k=0.32, α=2.92, β=2.83, γ=0)              |
//! | accpp | [0, 129]      | Dagum(k=0.98, α=3.41, β=3.42, γ=0)             |

use crate::dataset::Dataset;
use crate::dist::{Burr, Dagum, InverseCdf, PowerFunction};
use crate::individual::Individual;
use crate::schema::{AttrDef, Schema};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Attribute names of the DBLP schema, in schema order.
pub const DBLP_ATTRS: [&str; 8] = ["nop", "ayp", "myp", "fy", "ly", "cc", "ndcc", "accpp"];

/// Configuration of the generator.
#[derive(Debug, Clone)]
pub struct DblpConfig {
    /// Bytes of stored record per author; the paper assigns ~100 KB.
    pub payload_bytes: u32,
    /// Apply realistic cross-attribute consistency constraints
    /// (`ly ≥ fy`, `myp ≤ nop`, `ayp ≤ myp`, `cc ≤ ndcc`).
    pub correlated: bool,
}

impl Default for DblpConfig {
    fn default() -> Self {
        Self {
            payload_bytes: 100_000,
            correlated: true,
        }
    }
}

/// Generator of synthetic DBLP-like authors per Table 1.
#[derive(Debug, Clone)]
pub struct DblpGenerator {
    config: DblpConfig,
    nop: Dagum,
    ayp: Dagum,
    myp: Dagum,
    fy: PowerFunction,
    ly: PowerFunction,
    cc: Burr,
    ndcc: Burr,
    accpp: Dagum,
}

impl DblpGenerator {
    /// Create a generator with the Table 1 parameters.
    pub fn new(config: DblpConfig) -> Self {
        Self {
            config,
            nop: Dagum::new(0.68, 0.52, 0.89, 1.0),
            ayp: Dagum::new(0.24, 0.87, 0.66, 1.0),
            myp: Dagum::new(0.16, 0.86, 0.78, 1.0),
            fy: PowerFunction::new(7.75, 1936.0, 2013.0),
            ly: PowerFunction::new(11.83, 1936.0, 2013.0),
            cc: Burr::new(0.47, 2.96, 3.05, 0.0),
            ndcc: Burr::new(0.32, 2.92, 2.83, 0.0),
            accpp: Dagum::new(0.98, 3.41, 3.42, 0.0),
        }
    }

    /// The fixed schema of the generated population.
    pub fn schema() -> Schema {
        Schema::new(vec![
            AttrDef::numeric("nop", 1, 699),
            AttrDef::numeric("ayp", 0, 40),
            AttrDef::numeric("myp", 0, 140),
            AttrDef::numeric("fy", 1936, 2013),
            AttrDef::numeric("ly", 1936, 2013),
            AttrDef::numeric("cc", 1, 1000),
            AttrDef::numeric("ndcc", 1, 2500),
            AttrDef::numeric("accpp", 0, 129),
        ])
    }

    /// Generate one author with the given id.
    pub(crate) fn generate_one(&self, id: u64, rng: &mut ChaCha8Rng) -> Individual {
        let nop = self.nop.sample_clamped(rng, 1, 699);
        let mut ayp = self.ayp.sample_clamped(rng, 0, 40);
        let mut myp = self.myp.sample_clamped(rng, 0, 140);
        let mut fy = self.fy.sample_clamped(rng, 1936, 2013);
        let mut ly = self.ly.sample_clamped(rng, 1936, 2013);
        let mut cc = self.cc.sample_clamped(rng, 1, 1000);
        let ndcc = self.ndcc.sample_clamped(rng, 1, 2500);
        let accpp = self.accpp.sample_clamped(rng, 0, 129);
        if self.config.correlated {
            if ly < fy {
                std::mem::swap(&mut fy, &mut ly);
            }
            // a career of `years` with `nop` papers implies a peak year of
            // at least ⌈nop / years⌉ papers
            let years = ly - fy + 1;
            let implied_peak = nop.div_euclid(years) + i64::from(nop % years != 0);
            myp = myp.max(implied_peak).min(nop).min(140);
            ayp = ayp.min(myp.max(1));
            cc = cc.min(ndcc);
        }
        Individual::new(
            id,
            vec![nop, ayp, myp, fy, ly, cc, ndcc, accpp],
            self.config.payload_bytes,
        )
    }

    /// Generate a dataset of `n` authors, deterministically from `seed`.
    pub fn generate(&self, n: usize, seed: u64) -> Dataset {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut tuples = Vec::with_capacity(n);
        for id in 0..n as u64 {
            tuples.push(self.generate_one(id, &mut rng));
        }
        Dataset::new(Self::schema(), tuples)
    }

    /// Theoretical CDF of one attribute at point `x` (for goodness-of-fit
    /// benchmarks regenerating Table 1).
    pub fn attr_cdf(&self, attr_name: &str, x: f64) -> Option<f64> {
        Some(match attr_name {
            "nop" => self.nop.cdf(x),
            "ayp" => self.ayp.cdf(x),
            "myp" => self.myp.cdf(x),
            "fy" => self.fy.cdf(x),
            "ly" => self.ly.cdf(x),
            "cc" => self.cc.cdf(x),
            "ndcc" => self.ndcc.cdf(x),
            "accpp" => self.accpp.cdf(x),
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_matches_table1_domains() {
        let s = DblpGenerator::schema();
        assert_eq!(s.len(), 8);
        for name in DBLP_ATTRS {
            assert!(s.attr_id(name).is_some(), "missing attribute {name}");
        }
        let nop = s.attr(s.attr_id("nop").unwrap());
        assert_eq!((nop.min, nop.max), (1, 699));
        let fy = s.attr(s.attr_id("fy").unwrap());
        assert_eq!((fy.min, fy.max), (1936, 2013));
        let ndcc = s.attr(s.attr_id("ndcc").unwrap());
        assert_eq!((ndcc.min, ndcc.max), (1, 2500));
    }

    #[test]
    fn generation_is_deterministic() {
        let g = DblpGenerator::new(DblpConfig::default());
        let a = g.generate(500, 9);
        let b = g.generate(500, 9);
        assert_eq!(a.tuples(), b.tuples());
        let c = g.generate(500, 10);
        assert_ne!(a.tuples(), c.tuples());
    }

    #[test]
    fn values_stay_in_domain() {
        let g = DblpGenerator::new(DblpConfig::default());
        let d = g.generate(5_000, 1);
        let s = d.schema();
        for t in d.tuples() {
            for (aid, def) in s.iter() {
                let v = t.get(aid);
                assert!(
                    v >= def.min && v <= def.max,
                    "{} = {v} outside [{}, {}]",
                    def.name,
                    def.min,
                    def.max
                );
            }
        }
    }

    #[test]
    fn correlations_hold() {
        let g = DblpGenerator::new(DblpConfig::default());
        let d = g.generate(5_000, 2);
        let s = d.schema();
        let (fy, ly) = (s.attr_id("fy").unwrap(), s.attr_id("ly").unwrap());
        let (nop, myp) = (s.attr_id("nop").unwrap(), s.attr_id("myp").unwrap());
        let (cc, ndcc) = (s.attr_id("cc").unwrap(), s.attr_id("ndcc").unwrap());
        for t in d.tuples() {
            assert!(t.get(ly) >= t.get(fy), "career must not end before start");
            assert!(t.get(myp) <= t.get(nop), "max/year cannot exceed total");
            assert!(
                t.get(cc) <= t.get(ndcc),
                "distinct ≤ non-distinct coauthors"
            );
            // peak year is consistent with the career length (up to the
            // domain cap of 140)
            let years = t.get(ly) - t.get(fy) + 1;
            let implied = t.get(nop).div_euclid(years) + i64::from(t.get(nop) % years != 0);
            assert!(
                t.get(myp) >= implied.min(140).min(t.get(nop)),
                "myp {} below implied peak {} (nop {}, years {})",
                t.get(myp),
                implied,
                t.get(nop),
                years
            );
        }
    }

    #[test]
    fn uncorrelated_mode_skips_fixups() {
        let g = DblpGenerator::new(DblpConfig {
            correlated: false,
            ..DblpConfig::default()
        });
        let d = g.generate(5_000, 3);
        let s = d.schema();
        let (fy, ly) = (s.attr_id("fy").unwrap(), s.attr_id("ly").unwrap());
        // With independent draws some authors must violate ly >= fy.
        let violations = d.tuples().iter().filter(|t| t.get(ly) < t.get(fy)).count();
        assert!(violations > 0, "expected some ly < fy without correlation");
    }

    #[test]
    fn payload_size_is_configurable() {
        let g = DblpGenerator::new(DblpConfig {
            payload_bytes: 1234,
            ..DblpConfig::default()
        });
        let d = g.generate(10, 4);
        assert!(d.tuples().iter().all(|t| t.payload_bytes == 1234));
    }

    /// Chi-square goodness of fit of generated `fy` against the
    /// PowerFunction CDF (uncorrelated mode, since fixups perturb marginals).
    #[test]
    fn fy_marginal_matches_power_function() {
        let g = DblpGenerator::new(DblpConfig {
            correlated: false,
            ..DblpConfig::default()
        });
        let d = g.generate(40_000, 5);
        let s = d.schema();
        let fy = s.attr_id("fy").unwrap();
        let p = PowerFunction::new(7.75, 1936.0, 2013.0);
        // Bins over the year range; expected mass from the CDF.
        let edges = [1936.0, 1975.0, 1990.0, 2000.0, 2007.0, 2014.0];
        let mut observed = [0usize; 5];
        for t in d.tuples() {
            let y = t.get(fy) as f64;
            for b in 0..5 {
                // sample_clamped rounds, so shift bin edges by 0.5
                if y >= edges[b] - 0.5 && y < edges[b + 1] - 0.5 {
                    observed[b] += 1;
                    break;
                }
            }
        }
        let n = d.len() as f64;
        let mut chi2 = 0.0;
        for b in 0..5 {
            let expected = n * (p.cdf(edges[b + 1] - 0.5) - p.cdf(edges[b] - 0.5));
            chi2 += (observed[b] as f64 - expected).powi(2) / expected;
        }
        // 4 dof, α=0.001 critical value is 18.47
        assert!(chi2 < 18.47, "chi2 = {chi2}");
    }
}
