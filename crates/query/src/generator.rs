//! The query-group generation framework of §6.1.2.
//!
//! "The strata are generated by partitioning the domains presented in
//! Table 1 into subranges. The partition is into ranges of equal size,
//! with an 'error' of 10 percent, to create diversity. (Subranges are
//! disjoint and their union covers the domain.)"
//!
//! With `msr` subranges per attribute and `mc` combined subranges per
//! stratum constraint, an SSD has `m = msr^mc` stratum constraints. The
//! count `msr^mc` identifies the combination as a cartesian product of one
//! subrange per chosen attribute — i.e. each stratum constraint is a
//! *conjunction* of `mc` subrange predicates — which also guarantees the
//! pairwise disjointness that SSD validity requires (see DESIGN.md,
//! substitution 5).
//!
//! The paper's three groups:
//!
//! * **Small**:  `n = 3, msr = 4, mc = 2, m = 16`
//! * **Medium**: `n = 6, msr = 4, mc = 3, m = 64`
//! * **Large**:  `n = 9, msr = 4, mc = 4, m = 256`
//!
//! Costs: every interview costs $4 (per [Schuh 2011], the optimal survey
//! participation incentive); sharing any set of interviews costs one
//! interview; and a $10 penalty is attached to randomly chosen pairs of
//! SSDs so that undesired sharing does not pay off.

use crate::costs::CostModel;
use crate::formula::Formula;
use crate::mssd::MssdQuery;
use crate::ssd::{SsdQuery, StratumConstraint};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use stratmr_population::{AttrId, Schema};

/// Parameters of a query group (§6.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupSpec {
    /// Human-readable group name.
    pub name: &'static str,
    /// Number of SSD queries `n` in the group.
    pub n_ssds: usize,
    /// Number of subranges per attribute, `msr`.
    pub msr: usize,
    /// Number of subranges combined into one stratum constraint, `mc`.
    pub mc: usize,
}

impl GroupSpec {
    /// Group *Small*: `n = 3, msr = 4, mc = 2, m = 16`.
    pub const SMALL: GroupSpec = GroupSpec {
        name: "Small",
        n_ssds: 3,
        msr: 4,
        mc: 2,
    };
    /// Group *Medium*: `n = 6, msr = 4, mc = 3, m = 64`.
    pub const MEDIUM: GroupSpec = GroupSpec {
        name: "Medium",
        n_ssds: 6,
        msr: 4,
        mc: 3,
    };
    /// Group *Large*: `n = 9, msr = 4, mc = 4, m = 256`.
    pub const LARGE: GroupSpec = GroupSpec {
        name: "Large",
        n_ssds: 9,
        msr: 4,
        mc: 4,
    };

    /// All three paper groups, in size order.
    pub const ALL: [GroupSpec; 3] = [Self::SMALL, Self::MEDIUM, Self::LARGE];

    /// Number of stratum constraints per SSD, `m = msr^mc`.
    pub fn strata_per_ssd(&self) -> usize {
        self.msr.pow(self.mc as u32)
    }
}

/// Generates SSD queries and MSSD query groups over a schema.
#[derive(Debug, Clone)]
pub struct QueryGenerator {
    schema: Schema,
    queryable: Vec<AttrId>,
}

impl QueryGenerator {
    /// A generator over all attributes of `schema`.
    pub fn new(schema: Schema) -> Self {
        let queryable = schema.iter().map(|(id, _)| id).collect();
        Self { schema, queryable }
    }

    /// Restrict stratification to the named attributes.
    pub fn with_attributes(mut self, names: &[&str]) -> Self {
        self.queryable = names
            .iter()
            .map(|n| {
                self.schema
                    .attr_id(n)
                    .unwrap_or_else(|| panic!("unknown attribute {n}"))
            })
            .collect();
        self
    }

    /// Partition an attribute's domain into `msr` disjoint, covering
    /// subranges of near-equal size with a ±10% boundary jitter.
    pub(crate) fn subranges(
        &self,
        attr: AttrId,
        msr: usize,
        rng: &mut ChaCha8Rng,
    ) -> Vec<(i64, i64)> {
        assert!(msr >= 1);
        let def = self.schema.attr(attr);
        let (lo, hi) = (def.min, def.max);
        let width = (hi - lo + 1) as f64 / msr as f64;
        let mut cuts = Vec::with_capacity(msr + 1);
        cuts.push(lo);
        for i in 1..msr {
            let jitter = rng.gen_range(-0.10..=0.10) * width;
            let c = (lo as f64 + i as f64 * width + jitter).round() as i64;
            // keep boundaries strictly increasing and inside the domain
            let c = c.clamp(cuts[i - 1] + 1, hi - (msr - i) as i64 + 1);
            cuts.push(c);
        }
        cuts.push(hi + 1);
        (0..msr).map(|i| (cuts[i], cuts[i + 1] - 1)).collect()
    }

    /// Choose `mc` random distinct stratification attributes.
    fn choose_attrs(&self, spec: &GroupSpec, rng: &mut ChaCha8Rng) -> Vec<AttrId> {
        assert!(
            spec.mc <= self.queryable.len(),
            "mc exceeds queryable attributes"
        );
        let mut attrs = self.queryable.clone();
        attrs.shuffle(rng);
        attrs.truncate(spec.mc);
        attrs
    }

    /// Build the `msr^mc` stratum formulas of one SSD over the given
    /// attributes: `msr` (freshly jittered) subranges each, strata as
    /// the cartesian product of one subrange per attribute.
    fn generate_strata_on(
        &self,
        spec: &GroupSpec,
        attrs: &[AttrId],
        rng: &mut ChaCha8Rng,
    ) -> Vec<Formula> {
        let ranges: Vec<Vec<(i64, i64)>> = attrs
            .iter()
            .map(|&a| self.subranges(a, spec.msr, rng))
            .collect();

        let m = spec.strata_per_ssd();
        let mut formulas = Vec::with_capacity(m);
        for code in 0..m {
            let mut c = code;
            let mut formula = Formula::tautology();
            for (d, &attr) in attrs.iter().enumerate() {
                let pick = c % spec.msr;
                c /= spec.msr;
                let (lo, hi) = ranges[d][pick];
                formula = formula.and(Formula::between(attr, lo, hi));
            }
            formulas.push(formula);
        }
        formulas
    }

    /// Generate one SSD with *proportional allocation*: each of the
    /// `sample_size` selections is assigned to the stratum of a uniformly
    /// drawn member of `population`, so `f_k ∝ N_k` in expectation — the
    /// classic proportional stratified design, satisfiable w.h.p.
    pub fn generate_ssd_proportional(
        &self,
        spec: &GroupSpec,
        sample_size: usize,
        population: &[stratmr_population::Individual],
        rng: &mut ChaCha8Rng,
    ) -> SsdQuery {
        let attrs = self.choose_attrs(spec, rng);
        self.generate_ssd_proportional_on(spec, &attrs, sample_size, population, rng)
    }

    /// [`generate_ssd_proportional`](Self::generate_ssd_proportional)
    /// over a fixed attribute set (used when a whole query group
    /// stratifies over one attribute pool).
    pub(crate) fn generate_ssd_proportional_on(
        &self,
        spec: &GroupSpec,
        attrs: &[AttrId],
        sample_size: usize,
        population: &[stratmr_population::Individual],
        rng: &mut ChaCha8Rng,
    ) -> SsdQuery {
        assert!(!population.is_empty(), "empty population");
        let formulas = self.generate_strata_on(spec, attrs, rng);
        let mut freqs = vec![0usize; formulas.len()];
        for _ in 0..sample_size {
            let t = &population[rng.gen_range(0..population.len())];
            // the cartesian-product strata cover the attribute space, so
            // exactly one formula matches
            if let Some(k) = formulas.iter().position(|f| f.eval(t)) {
                freqs[k] += 1;
            }
        }
        // strata that receive no selection are dropped (they would be
        // no-ops)
        let constraints = formulas
            .into_iter()
            .zip(freqs)
            .filter(|&(_, f)| f > 0)
            .map(|(formula, f)| StratumConstraint::new(formula, f))
            .collect();
        SsdQuery::new(constraints)
    }

    /// Generate a full MSSD query group with the paper's experimental
    /// defaults (§6.1.2): `spec.n_ssds` SSDs, each asking for
    /// `sample_size` individuals with proportional frequency allocation
    /// over `population`; $4 interviews and $10 penalties on ~30% of SSD
    /// pairs. The whole group stratifies over **one shared attribute
    /// pool**: every SSD uses the same `mc` attributes with freshly
    /// jittered subrange boundaries (the ±10% "error" of §6.1.2). The shared pool keeps
    /// the stratum selections σ coarse, so sharing opportunities exist
    /// on any value distribution — which is what makes the paper's
    /// uniform-dataset rerun (§6.2.1) behave like the DBLP one.
    pub fn generate_paper_group_on(
        &self,
        spec: &GroupSpec,
        sample_size: usize,
        population: &[stratmr_population::Individual],
        seed: u64,
    ) -> MssdQuery {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let attrs = self.choose_attrs(spec, &mut rng);
        let queries: Vec<SsdQuery> = (0..spec.n_ssds)
            .map(|_| {
                self.generate_ssd_proportional_on(spec, &attrs, sample_size, population, &mut rng)
            })
            .collect();
        let mut pairs = Vec::new();
        for i in 0..spec.n_ssds {
            for j in i + 1..spec.n_ssds {
                if rng.gen_bool(0.3) {
                    pairs.push((i, j));
                }
            }
        }
        let costs = CostModel::paper_style(spec.n_ssds, 4.0, &pairs, 10.0);
        MssdQuery::new(queries, costs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stratmr_population::dblp::DblpGenerator;

    fn generator() -> QueryGenerator {
        QueryGenerator::new(DblpGenerator::schema())
    }

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn group_specs_match_paper() {
        assert_eq!(GroupSpec::SMALL.strata_per_ssd(), 16);
        assert_eq!(GroupSpec::MEDIUM.strata_per_ssd(), 64);
        assert_eq!(GroupSpec::LARGE.strata_per_ssd(), 256);
        assert_eq!(GroupSpec::SMALL.n_ssds, 3);
        assert_eq!(GroupSpec::MEDIUM.n_ssds, 6);
        assert_eq!(GroupSpec::LARGE.n_ssds, 9);
    }

    #[test]
    fn subranges_are_disjoint_and_cover() {
        let g = generator();
        let schema = DblpGenerator::schema();
        for name in ["nop", "fy", "cc"] {
            let attr = schema.attr_id(name).unwrap();
            let def = schema.attr(attr);
            let mut r = rng(11);
            for _ in 0..20 {
                let subs = g.subranges(attr, 4, &mut r);
                assert_eq!(subs.len(), 4);
                assert_eq!(subs[0].0, def.min);
                assert_eq!(subs[3].1, def.max);
                for w in subs.windows(2) {
                    assert_eq!(w[1].0, w[0].1 + 1, "gap or overlap in {subs:?}");
                    assert!(w[0].0 <= w[0].1, "empty subrange in {subs:?}");
                }
            }
        }
    }

    #[test]
    fn subrange_sizes_are_near_equal() {
        let g = generator();
        let schema = DblpGenerator::schema();
        let attr = schema.attr_id("ndcc").unwrap(); // domain [1, 2500]
        let mut r = rng(5);
        let subs = g.subranges(attr, 4, &mut r);
        let ideal = 2500.0 / 4.0;
        for &(lo, hi) in &subs {
            let size = (hi - lo + 1) as f64;
            // ±10% jitter on each boundary → at most ±20% size deviation
            assert!(
                (size - ideal).abs() <= 0.21 * ideal,
                "subrange size {size} deviates too much from {ideal}"
            );
        }
    }

    #[test]
    fn ssd_total_frequency_matches_request() {
        let g = generator();
        let data = DblpGenerator::new(Default::default()).generate(2_000, 3);
        let mut r = rng(9);
        for spec in &GroupSpec::ALL {
            let q = g.generate_ssd_proportional(spec, 500, data.tuples(), &mut r);
            assert_eq!(q.total_frequency(), 500);
            assert!(q.len() <= spec.strata_per_ssd());
            // no zero-frequency strata survive
            assert!(q.constraints().iter().all(|s| s.frequency > 0));
        }
    }

    #[test]
    fn small_sample_sizes_drop_empty_strata() {
        let g = generator();
        let data = DblpGenerator::new(Default::default()).generate(2_000, 3);
        let mut r = rng(13);
        // 10 draws over 256 strata → at most 10 constraints
        let q = g.generate_ssd_proportional(&GroupSpec::LARGE, 10, data.tuples(), &mut r);
        assert!(q.len() <= 10);
        assert_eq!(q.total_frequency(), 10);
    }

    #[test]
    fn group_cost_model_matches_paper_defaults() {
        let g = generator();
        let data = DblpGenerator::new(Default::default()).generate(2_000, 1);
        let mssd = g.generate_paper_group_on(&GroupSpec::MEDIUM, 100, data.tuples(), 17);
        assert_eq!(mssd.len(), 6);
        let costs = mssd.costs();
        for i in 0..6 {
            assert_eq!(costs.interview_cost(i), 4.0);
        }
        // penalties are $10 pairs
        for &(i, j, p) in costs.penalties() {
            assert!(i < j && j < 6);
            assert_eq!(p, 10.0);
        }
    }

    #[test]
    fn proportional_allocation_tracks_stratum_sizes() {
        let g = generator();
        let data = DblpGenerator::new(Default::default()).generate(20_000, 31);
        let mut r = rng(41);
        let q = g.generate_ssd_proportional(&GroupSpec::SMALL, 400, data.tuples(), &mut r);
        assert_eq!(q.total_frequency(), 400);
        // the query should be satisfiable (enough tuples per stratum) —
        // the point of proportional allocation
        assert!(
            q.validate_satisfiable(data.tuples().iter()).is_ok(),
            "proportional allocation should be satisfiable"
        );
        // frequencies follow stratum population: the most populated
        // stratum should get the largest frequency, within noise
        let sizes: Vec<usize> = q
            .constraints()
            .iter()
            .map(|s| data.tuples().iter().filter(|t| s.matches(t)).count())
            .collect();
        let max_f = q
            .constraints()
            .iter()
            .enumerate()
            .max_by_key(|(_, s)| s.frequency)
            .unwrap()
            .0;
        let max_n = sizes.iter().enumerate().max_by_key(|&(_, &n)| n).unwrap().0;
        assert_eq!(max_f, max_n, "largest stratum should get most samples");
    }

    #[test]
    fn proportional_group_is_deterministic() {
        let g = generator();
        let data = DblpGenerator::new(Default::default()).generate(2_000, 1);
        let a = g.generate_paper_group_on(&GroupSpec::SMALL, 50, data.tuples(), 5);
        let b = g.generate_paper_group_on(&GroupSpec::SMALL, 50, data.tuples(), 5);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        let c = g.generate_paper_group_on(&GroupSpec::SMALL, 50, data.tuples(), 6);
        assert_ne!(a, c);
    }

    #[test]
    fn restricted_attributes_are_respected() {
        let g = generator().with_attributes(&["fy", "ly"]);
        let data = DblpGenerator::new(Default::default()).generate(2_000, 2);
        let mut r = rng(2);
        let q = g.generate_ssd_proportional(&GroupSpec::SMALL, 50, data.tuples(), &mut r);
        let schema = DblpGenerator::schema();
        let fy = schema.attr_id("fy").unwrap();
        let ly = schema.attr_id("ly").unwrap();
        // every formula only references fy / ly
        fn attrs_of(f: &Formula, out: &mut Vec<AttrId>) {
            match f {
                Formula::Atom(a, _, _) | Formula::InRange(a, _, _) => out.push(*a),
                Formula::And(fs) | Formula::Or(fs) => fs.iter().for_each(|f| attrs_of(f, out)),
                Formula::Not(f) => attrs_of(f, out),
                Formula::Const(_) => {}
            }
        }
        for s in q.constraints() {
            let mut used = Vec::new();
            attrs_of(&s.formula, &mut used);
            assert!(used.iter().all(|a| *a == fy || *a == ly));
        }
    }
}
