//! Differential tests of the compiled stratum matcher against the
//! reference scan `SsdQuery::matching_stratum`: both must return the
//! same first-matching stratum of every query on every tuple, whatever
//! the formula shapes, overlaps and bounds, on one query or many.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use stratmr_population::dblp::{DblpConfig, DblpGenerator};
use stratmr_population::{AttrId, Individual};
use stratmr_query::{
    CmpOp, Formula, GroupSpec, QueryGenerator, SelectionMatcher, SsdQuery, StratumConstraint,
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

/// The matcher of a single query.
fn single(q: &SsdQuery) -> SelectionMatcher<'_> {
    SelectionMatcher::new(std::slice::from_ref(q))
}

/// The stratum a single-query matcher gives `t`.
fn stratum_of(m: &SelectionMatcher<'_>, t: &Individual) -> Option<usize> {
    let mut stratum = None;
    m.for_each_stratum(t, |_, k| stratum = k);
    stratum
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
        let m = single(&q);
        prop_assert!(m.is_joint());
        for t in &ts {
            prop_assert_eq!(stratum_of(&m, t), q.matching_stratum(t), "{:?} on {:?}", t.values(), q);
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
        let m = single(&q);
        prop_assert!(!m.is_joint());
        for t in &ts {
            prop_assert_eq!(stratum_of(&m, t), q.matching_stratum(t));
        }
    }
}

/// The strata a [`SelectionMatcher`] gives `t`, one per query.
fn selection_of(m: &SelectionMatcher<'_>, t: &Individual) -> Vec<Option<usize>> {
    let mut got = Vec::new();
    m.for_each_stratum(t, |i, k| {
        assert_eq!(i, got.len());
        got.push(k);
    });
    got
}

/// Each query's formulas on attributes `offset..offset + ATTRS`: shared
/// attributes when every offset is 0, disjoint ones otherwise.
fn shifted(formulas: Vec<Formula>, offset: u16) -> SsdQuery {
    let shift = |f: &Formula| -> Formula {
        fn go(f: &Formula, d: u16) -> Formula {
            match f {
                Formula::InRange(a, lo, hi) => Formula::InRange(AttrId(a.0 + d), *lo, *hi),
                Formula::Atom(a, op, c) => Formula::Atom(AttrId(a.0 + d), *op, *c),
                Formula::And(fs) => Formula::And(fs.iter().map(|f| go(f, d)).collect()),
                Formula::Or(fs) => Formula::Or(fs.iter().map(|f| go(f, d)).collect()),
                Formula::Not(f) => Formula::Not(Box::new(go(f, d))),
                Formula::Const(b) => Formula::Const(*b),
            }
        }
        go(f, offset)
    };
    query_of(formulas.iter().map(shift).collect())
}

fn wide_tuples() -> impl Strategy<Value = Vec<Individual>> {
    prop::collection::vec(
        prop::collection::vec(value(), 2 * ATTRS as usize).prop_map(|v| Individual::new(0, v, 0)),
        64,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// MSSDs of boxes — overlapping, empty, leaving cells in no stratum,
    /// on shared or disjoint attributes — share one grid, and every
    /// query's stratum is the reference's first match.
    #[test]
    fn joint_grid_matches_every_query(
        surveys in prop::collection::vec((prop::collection::vec(box_formula(), 0..8), 0u16..2), 1..5),
        ts in wide_tuples(),
    ) {
        let qs: Vec<SsdQuery> =
            surveys.into_iter().map(|(f, d)| shifted(f, d * ATTRS)).collect();
        let m = SelectionMatcher::new(&qs);
        prop_assert!(m.is_joint());
        prop_assert_eq!(m.len(), qs.len());
        // selection index ↔ selection, both ways
        let mut by_index: HashMap<usize, Vec<Option<usize>>> = HashMap::new();
        let mut by_selection: HashMap<Vec<Option<usize>>, usize> = HashMap::new();
        for t in &ts {
            let want: Vec<Option<usize>> = qs.iter().map(|q| q.matching_stratum(t)).collect();
            let index = m.for_each_stratum(t, |_, _| {}).expect("joint grid");
            prop_assert_eq!(selection_of(&m, t), want.clone());
            prop_assert_eq!(by_index.entry(index).or_insert_with(|| want.clone()), &want);
            prop_assert_eq!(*by_selection.entry(want).or_insert(index), index);
        }
    }

    /// One survey with a stratum of another shape sends every lookup to
    /// the per-query matchers, with the same answers.
    #[test]
    fn non_box_survey_falls_back_per_query(
        boxes in prop::collection::vec(box_formula(), 0..6),
        other in other_formula(),
        ts in wide_tuples(),
    ) {
        let qs = vec![query_of(boxes.clone()), query_of(vec![other]), query_of(boxes)];
        let m = SelectionMatcher::new(&qs);
        prop_assert!(!m.is_joint());
        for t in &ts {
            let want: Vec<Option<usize>> = qs.iter().map(|q| q.matching_stratum(t)).collect();
            prop_assert_eq!(selection_of(&m, t), want);
            prop_assert_eq!(m.for_each_stratum(t, |_, _| {}), None);
        }
    }
}

#[test]
fn joint_grid_past_the_cell_budget_falls_back() {
    // each survey alone compiles (301 cells), jointly 301² > 2^16 cells
    let pinned = |a: u16, v: i64| Formula::between(AttrId(a), v, v);
    let qs = vec![
        query_of((0..150).map(|k| pinned(0, 2 * k)).collect()),
        query_of((0..150).map(|k| pinned(1, 2 * k)).collect()),
    ];
    assert!(qs.iter().all(|q| single(q).is_joint()));
    let m = SelectionMatcher::new(&qs);
    assert!(!m.is_joint());
    for v in -2..302 {
        let t = Individual::new(0, vec![v, 300 - v], 0);
        let want: Vec<Option<usize>> = qs.iter().map(|q| q.matching_stratum(&t)).collect();
        assert_eq!(selection_of(&m, &t), want);
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
    let m = single(&q);
    assert!(m.is_joint());
    for (vx, vy, want) in [(5, 5, 0), (5, 11, 1), (12, 0, 1), (16, 0, 2), (-1, -1, 2)] {
        let t = Individual::new(0, vec![vx, vy], 0);
        assert_eq!(stratum_of(&m, &t), Some(want), "x={vx} y={vy}");
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
    let m = single(&q);
    assert!(m.is_joint());
    for (v, want) in [
        (i64::MAX, Some(0)),
        (i64::MAX - 1, Some(4)),
        (i64::MIN, Some(1)),
        (i64::MIN + 1, None),
        (0, Some(4)),
        (-1, None),
    ] {
        let t = Individual::new(0, vec![v], 0);
        assert_eq!(stratum_of(&m, &t), want, "x={v}");
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
        let joint = SelectionMatcher::new(group.queries());
        assert!(joint.is_joint(), "{} group has no joint grid", spec.name);
        for t in &probes {
            let want: Vec<Option<usize>> = group
                .queries()
                .iter()
                .map(|q| q.matching_stratum(t))
                .collect();
            assert_eq!(selection_of(&joint, t), want);
        }
        let ssd = qgen.generate_ssd_proportional(spec, 300, data.tuples(), &mut rng);
        for q in group.queries().iter().chain([&ssd]) {
            let m = single(q);
            assert!(m.is_joint(), "{} query did not compile", spec.name);
            for t in &probes {
                assert_eq!(stratum_of(&m, t), q.matching_stratum(t));
            }
        }
    }
}
