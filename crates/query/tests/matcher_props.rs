//! Differential tests of the compiled stratum matcher against the
//! reference scan `SsdQuery::matching_stratum`: both must return the
//! same first-matching stratum on every tuple, whatever the formula
//! shapes, overlaps and bounds.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use stratmr_population::dblp::{DblpConfig, DblpGenerator};
use stratmr_population::{AttrId, Individual};
use stratmr_query::{
    CmpOp, Formula, GroupSpec, QueryGenerator, SsdQuery, StratumConstraint, StratumMatcher,
};

const ATTRS: u16 = 3;

/// Small values that collide often, plus the ends of the `i64` range.
fn value() -> impl Strategy<Value = i64> {
    prop_oneof![
        -6i64..=6,
        -6i64..=6,
        Just(i64::MIN),
        Just(i64::MIN + 1),
        Just(i64::MAX - 1),
        Just(i64::MAX),
    ]
}

/// A range-shaped conjunct: an inclusive range (possibly empty, with
/// lo > hi), a comparison other than ≠, or a constant.
fn range_leaf() -> impl Strategy<Value = Formula> {
    let range = (0u16..ATTRS, value(), value())
        .prop_map(|(a, lo, hi)| Formula::InRange(AttrId(a), lo, hi))
        .boxed();
    let cmp = (0u16..ATTRS, 0usize..5, value())
        .prop_map(|(a, op, c)| {
            let op = [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][op];
            Formula::Atom(AttrId(a), op, c)
        })
        .boxed();
    prop_oneof![
        range.clone(),
        range,
        cmp.clone(),
        cmp,
        Just(Formula::Const(true)),
        Just(Formula::Const(false)),
    ]
}

/// A box: one conjunct, or a raw (unfolded) conjunction of up to four,
/// including the empty conjunction.
fn box_formula() -> impl Strategy<Value = Formula> {
    prop_oneof![
        range_leaf(),
        prop::collection::vec(range_leaf(), 0..5).prop_map(Formula::And),
    ]
}

/// A formula the matcher cannot compile: ≠, ∨ or ¬ somewhere.
fn other_formula() -> impl Strategy<Value = Formula> {
    let ne = (0u16..ATTRS, value())
        .prop_map(|(a, c)| Formula::ne(AttrId(a), c))
        .boxed();
    prop_oneof![
        ne.clone(),
        (box_formula(), ne).prop_map(|(b, n)| Formula::And(vec![b, n])),
        (box_formula(), box_formula()).prop_map(|(a, b)| Formula::Or(vec![a, b])),
        box_formula().prop_map(|f| Formula::Not(Box::new(f))),
    ]
}

fn query_of(formulas: Vec<Formula>) -> SsdQuery {
    SsdQuery::new(
        formulas
            .into_iter()
            .map(|f| StratumConstraint::new(f, 1))
            .collect(),
    )
}

fn tuples() -> impl Strategy<Value = Vec<Individual>> {
    prop::collection::vec(
        prop::collection::vec(value(), ATTRS as usize).prop_map(|v| Individual::new(0, v, 0)),
        64,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Queries of boxes — overlapping, empty, unbounded, constant —
    /// always compile and agree with the scan on the first match.
    #[test]
    fn boxes_compile_and_match_first(
        formulas in prop::collection::vec(box_formula(), 0..12),
        ts in tuples(),
    ) {
        let q = query_of(formulas);
        let m = StratumMatcher::new(&q);
        prop_assert!(m.is_compiled());
        for t in &ts {
            prop_assert_eq!(m.matching_stratum(t), q.matching_stratum(t), "{:?} on {:?}", t.values(), q);
        }
    }

    /// One stratum of another shape sends the whole query to the scan,
    /// which then answers exactly as the reference.
    #[test]
    fn other_shapes_fall_back_to_the_scan(
        formulas in prop::collection::vec(box_formula(), 0..6),
        other in other_formula(),
        at in 0usize..6,
        ts in tuples(),
    ) {
        let mut formulas = formulas;
        formulas.insert(at.min(formulas.len()), other);
        let q = query_of(formulas);
        let m = StratumMatcher::new(&q);
        prop_assert!(!m.is_compiled());
        for t in &ts {
            prop_assert_eq!(m.matching_stratum(t), q.matching_stratum(t));
        }
    }
}

#[test]
fn first_match_wins_on_overlapping_boxes() {
    let (x, y) = (AttrId(0), AttrId(1));
    let q = query_of(vec![
        Formula::between(x, 0, 10).and(Formula::between(y, 0, 10)),
        Formula::between(x, 5, 15),
        Formula::tautology(),
        Formula::between(x, 0, 100),
    ]);
    let m = StratumMatcher::new(&q);
    assert!(m.is_compiled());
    for (vx, vy, want) in [(5, 5, 0), (5, 11, 1), (12, 0, 1), (16, 0, 2), (-1, -1, 2)] {
        let t = Individual::new(0, vec![vx, vy], 0);
        assert_eq!(m.matching_stratum(&t), Some(want), "x={vx} y={vy}");
        assert_eq!(q.matching_stratum(&t), Some(want));
    }
}

#[test]
fn ranges_reaching_the_ends_of_i64_include_them() {
    let x = AttrId(0);
    let q = query_of(vec![
        Formula::ge(x, i64::MAX),
        Formula::between(x, i64::MIN, i64::MIN),
        Formula::gt(x, i64::MAX),
        Formula::lt(x, i64::MIN),
        Formula::between(x, 0, i64::MAX),
    ]);
    let m = StratumMatcher::new(&q);
    assert!(m.is_compiled());
    for (v, want) in [
        (i64::MAX, Some(0)),
        (i64::MAX - 1, Some(4)),
        (i64::MIN, Some(1)),
        (i64::MIN + 1, None),
        (0, Some(4)),
        (-1, None),
    ] {
        let t = Individual::new(0, vec![v], 0);
        assert_eq!(m.matching_stratum(&t), want, "x={v}");
        assert_eq!(q.matching_stratum(&t), want, "x={v}");
    }
}

/// Every paper query group over generated DBLP tuples compiles and
/// agrees with the scan, on the population and on values outside every
/// attribute's schema domain.
#[test]
fn paper_groups_over_dblp_agree_with_the_scan() {
    let data = DblpGenerator::new(DblpConfig::default()).generate(2_000, 5);
    let schema = DblpGenerator::schema();
    let qgen = QueryGenerator::new(schema.clone());
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let mut probes: Vec<Individual> = data.tuples().to_vec();
    for t in data.tuples().iter().take(200) {
        for (attr, def) in schema.iter() {
            for v in [def.min - 1, def.max + 1, i64::MIN, i64::MAX] {
                let mut values = t.values().to_vec();
                values[attr.index()] = v;
                probes.push(Individual::new(t.id, values, 0));
            }
        }
    }
    for spec in &GroupSpec::ALL {
        let group = qgen.generate_paper_group_on(spec, 300, data.tuples(), 11);
        let single = qgen.generate_ssd_proportional(spec, 300, data.tuples(), &mut rng);
        for q in group.queries().iter().chain([&single]) {
            let m = StratumMatcher::new(q);
            assert!(m.is_compiled(), "{} query did not compile", spec.name);
            for t in &probes {
                assert_eq!(m.matching_stratum(t), q.matching_stratum(t));
            }
        }
    }
}
