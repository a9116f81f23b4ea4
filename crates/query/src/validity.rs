//! Static SSD validity checking.
//!
//! §3.2.1 requires the strata of an SSD query to be pairwise disjoint
//! over the dataset. [`SsdQuery::validate_disjoint`] checks this against
//! actual tuples; this module proves it *statically* where possible, by
//! exhaustive evaluation over the schema's domain grid restricted to the
//! attributes the query mentions — exact (not conservative) whenever the
//! mentioned attributes' joint domain is small enough to enumerate, which
//! covers the paper's generated queries (`msr^mc` rectangles) and most
//! hand-written designs.

use crate::formula::Formula;
use crate::ssd::SsdQuery;
use stratmr_population::{Individual, Schema};

/// Outcome of a static check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StaticCheck {
    /// The strata are pairwise disjoint over the entire domain.
    Disjoint,
    /// A value assignment satisfying two strata exists.
    Overlap {
        /// First overlapping stratum.
        first: usize,
        /// Second overlapping stratum.
        second: usize,
        /// A witness tuple (attribute values in schema order).
        witness: Vec<i64>,
    },
    /// The joint domain of the mentioned attributes exceeds `budget`
    /// points, so the exhaustive check was not attempted.
    TooLarge {
        /// The number of points that would need checking.
        points: u128,
    },
}

/// Statically check pairwise stratum disjointness by enumerating the
/// *relevant value grid*: for each attribute the query mentions, the
/// distinct comparison constants split the domain into intervals, and
/// one representative per interval suffices (formulas are built from
/// interval-inducing comparisons, so they are constant on the grid
/// cells). Unmentioned attributes cannot affect the outcome and are
/// fixed to their minimum.
pub fn check_disjoint_static(query: &SsdQuery, schema: &Schema, budget: u128) -> StaticCheck {
    // collect mentioned attributes and their cut points
    let mut cuts: Vec<Vec<i64>> = vec![Vec::new(); schema.len()];
    let mut mentioned = vec![false; schema.len()];
    for s in query.constraints() {
        collect_cuts(&s.formula, &mut cuts, &mut mentioned);
    }
    // representatives per mentioned attribute
    let mut reps: Vec<Vec<i64>> = Vec::with_capacity(schema.len());
    let mut points: u128 = 1;
    for (i, (aid, def)) in schema.iter().enumerate() {
        let _ = aid;
        if !mentioned[i] {
            reps.push(vec![def.min]);
            continue;
        }
        let mut c = cuts[i].clone();
        c.push(def.min);
        c.push(def.max);
        c.sort_unstable();
        c.dedup();
        // representatives: each cut value, plus a point between
        // consecutive cuts
        let mut r = Vec::with_capacity(c.len() * 2);
        for (j, &v) in c.iter().enumerate() {
            if v >= def.min && v <= def.max {
                r.push(v);
            }
            if j + 1 < c.len() {
                let mid = v.saturating_add(1);
                if mid < c[j + 1] && mid >= def.min && mid <= def.max {
                    r.push(mid);
                }
            }
        }
        r.sort_unstable();
        r.dedup();
        points = points.saturating_mul(r.len() as u128);
        reps.push(r);
    }
    if points > budget {
        return StaticCheck::TooLarge { points };
    }

    // enumerate the grid
    let n = schema.len();
    let mut idx = vec![0usize; n];
    let mut values: Vec<i64> = idx.iter().enumerate().map(|(i, _)| reps[i][0]).collect();
    loop {
        let t = Individual::new(0, values.clone(), 0);
        let mut first_match: Option<usize> = None;
        for (k, s) in query.constraints().iter().enumerate() {
            if s.matches(&t) {
                if let Some(f) = first_match {
                    return StaticCheck::Overlap {
                        first: f,
                        second: k,
                        witness: values,
                    };
                }
                first_match = Some(k);
            }
        }
        // advance the odometer
        let mut d = 0;
        loop {
            if d == n {
                return StaticCheck::Disjoint;
            }
            idx[d] += 1;
            if idx[d] < reps[d].len() {
                values[d] = reps[d][idx[d]];
                break;
            }
            idx[d] = 0;
            values[d] = reps[d][0];
            d += 1;
        }
    }
}

/// Collect comparison cut points per attribute. Every comparison's
/// behaviour changes only at (or adjacent to) its constant, so the set
/// of constants (±1 handled via the between-cuts representatives) forms
/// a sufficient grid.
fn collect_cuts(f: &Formula, cuts: &mut [Vec<i64>], mentioned: &mut [bool]) {
    match f {
        Formula::Atom(a, _, c) => {
            mentioned[a.index()] = true;
            cuts[a.index()].push(c.saturating_sub(1));
            cuts[a.index()].push(*c);
            cuts[a.index()].push(c.saturating_add(1));
        }
        Formula::InRange(a, lo, hi) => {
            mentioned[a.index()] = true;
            cuts[a.index()].push(lo.saturating_sub(1));
            cuts[a.index()].push(*lo);
            cuts[a.index()].push(*hi);
            cuts[a.index()].push(hi.saturating_add(1));
        }
        Formula::And(fs) | Formula::Or(fs) => {
            fs.iter().for_each(|f| collect_cuts(f, cuts, mentioned))
        }
        Formula::Not(f) => collect_cuts(f, cuts, mentioned),
        Formula::Const(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{GroupSpec, QueryGenerator};
    use crate::ssd::StratumConstraint;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use stratmr_population::dblp::DblpGenerator;
    use stratmr_population::{AttrDef, AttrId};

    fn schema() -> Schema {
        Schema::new(vec![
            AttrDef::numeric("x", 0, 99),
            AttrDef::numeric("y", 0, 99),
        ])
    }

    fn x() -> AttrId {
        AttrId(0)
    }

    fn y() -> AttrId {
        AttrId(1)
    }

    #[test]
    fn disjoint_bands_verify() {
        let q = SsdQuery::new(vec![
            StratumConstraint::new(Formula::lt(x(), 50), 1),
            StratumConstraint::new(Formula::ge(x(), 50), 1),
        ]);
        assert_eq!(
            check_disjoint_static(&q, &schema(), 1_000_000),
            StaticCheck::Disjoint
        );
    }

    #[test]
    fn overlap_found_with_witness() {
        let q = SsdQuery::new(vec![
            StratumConstraint::new(Formula::lt(x(), 60), 1),
            StratumConstraint::new(Formula::ge(x(), 40), 1),
        ]);
        match check_disjoint_static(&q, &schema(), 1_000_000) {
            StaticCheck::Overlap {
                first,
                second,
                witness,
            } => {
                assert_eq!((first, second), (0, 1));
                let t = Individual::new(0, witness, 0);
                assert!(q.stratum(0).matches(&t) && q.stratum(1).matches(&t));
            }
            other => panic!("expected overlap, got {other:?}"),
        }
    }

    #[test]
    fn multi_attribute_rectangles() {
        // rectangles overlapping only in x, not jointly
        let q = SsdQuery::new(vec![
            StratumConstraint::new(
                Formula::between(x(), 0, 50).and(Formula::between(y(), 0, 40)),
                1,
            ),
            StratumConstraint::new(
                Formula::between(x(), 30, 99).and(Formula::between(y(), 41, 99)),
                1,
            ),
        ]);
        assert_eq!(
            check_disjoint_static(&q, &schema(), 1_000_000),
            StaticCheck::Disjoint
        );
        // shift the second rectangle to overlap at (30..=50, 40)
        let q2 = SsdQuery::new(vec![
            StratumConstraint::new(
                Formula::between(x(), 0, 50).and(Formula::between(y(), 0, 40)),
                1,
            ),
            StratumConstraint::new(
                Formula::between(x(), 30, 99).and(Formula::between(y(), 40, 99)),
                1,
            ),
        ]);
        assert!(matches!(
            check_disjoint_static(&q2, &schema(), 1_000_000),
            StaticCheck::Overlap { .. }
        ));
    }

    #[test]
    fn negations_handled_exactly() {
        let q = SsdQuery::new(vec![
            StratumConstraint::new(Formula::between(x(), 10, 20), 1),
            StratumConstraint::new(Formula::between(x(), 10, 20).not(), 1),
        ]);
        assert_eq!(
            check_disjoint_static(&q, &schema(), 1_000_000),
            StaticCheck::Disjoint
        );
    }

    #[test]
    fn generated_paper_queries_verify_statically() {
        let data = DblpGenerator::new(Default::default()).generate(500, 1);
        let qgen = QueryGenerator::new(DblpGenerator::schema());
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for spec in [GroupSpec::SMALL, GroupSpec::MEDIUM] {
            let q = qgen.generate_ssd_proportional(&spec, 100, data.tuples(), &mut rng);
            assert_eq!(
                check_disjoint_static(&q, &DblpGenerator::schema(), 10_000_000),
                StaticCheck::Disjoint,
                "group {} failed static validation",
                spec.name
            );
        }
    }

    #[test]
    fn budget_exceeded_is_reported() {
        // a query over many attributes with many cuts → large grid
        let schema = DblpGenerator::schema();
        let constraints = (0..8u16)
            .map(|a| {
                StratumConstraint::new(
                    Formula::between(AttrId(a), 1, 2).and(Formula::eq(AttrId((a + 1) % 8), 5)),
                    1,
                )
            })
            .collect();
        let q = SsdQuery::new(constraints);
        match check_disjoint_static(&q, &schema, 10) {
            StaticCheck::TooLarge { points } => assert!(points > 10),
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }
}
