//! Answer-digest regression: MR-SQE, MR-MQE and MR-CPS answers on a
//! fixed small population and seed set — every selected id, stratum by
//! stratum, in order — together with each job's shuffle bytes and
//! combiner output pairs, folded into one FNV-1a digest per algorithm.
//!
//! The pinned digests were produced by the engine before the fold
//! combiner and the compiled stratum matcher; a changed digest means a
//! change to the samples themselves, not just to how fast they are drawn.

use stratmr::mapreduce::{Cluster, InputSplit, JobStats};
use stratmr::population::dblp::{DblpConfig, DblpGenerator};
use stratmr::population::{Individual, Placement};
use stratmr::query::{GroupSpec, MssdAnswer, MssdQuery, QueryGenerator, SsdAnswer};
use stratmr::sampling::{
    to_input_splits, try_mr_cps_on_splits, try_mr_mqe_on_splits, try_mr_sqe_on_splits, CpsConfig,
};

const SEEDS: [u64; 3] = [11, 12, 13];

/// 64-bit FNV-1a over little-endian words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn ssd(&mut self, answer: &SsdAnswer) {
        self.word(answer.num_strata() as u64);
        for k in 0..answer.num_strata() {
            let stratum = answer.stratum(k);
            self.word(stratum.len() as u64);
            for t in stratum {
                self.word(t.id);
            }
        }
    }

    fn mssd(&mut self, answer: &MssdAnswer) {
        for a in answer.answers() {
            self.ssd(a);
        }
    }

    fn stats(&mut self, stats: &JobStats) {
        self.word(stats.shuffle_bytes);
        self.word(stats.combine_output_pairs);
    }
}

fn fixture() -> (Vec<InputSplit<Individual>>, MssdQuery, MssdQuery) {
    let data = DblpGenerator::new(DblpConfig::default()).generate(3_000, 41);
    let splits = to_input_splits(&data.distribute(4, 12, Placement::RoundRobin));
    let qgen = QueryGenerator::new(DblpGenerator::schema());
    let large = qgen.generate_paper_group_on(&GroupSpec::LARGE, 300, data.tuples(), 42);
    let medium = qgen.generate_paper_group_on(&GroupSpec::MEDIUM, 200, data.tuples(), 43);
    (splits, large, medium)
}

#[test]
fn sampling_answers_match_their_pinned_digests() {
    let (splits, large, medium) = fixture();
    let cluster = Cluster::new(4);

    let mut sqe = Digest::new();
    for &seed in &SEEDS {
        for q in large.queries() {
            let run = try_mr_sqe_on_splits(&cluster, &splits, q, seed).unwrap();
            sqe.ssd(&run.answer);
            sqe.stats(&run.stats);
        }
    }

    let mut mqe = Digest::new();
    let mut cps = Digest::new();
    for &seed in &SEEDS {
        let run = try_mr_mqe_on_splits(&cluster, &splits, medium.queries(), None, seed).unwrap();
        mqe.mssd(&run.answer);
        mqe.stats(&run.stats);

        let run = try_mr_cps_on_splits(&cluster, &splits, &medium, CpsConfig::mr_cps(), seed)
            .expect("the Medium group is solvable");
        cps.mssd(&run.answer);
        for (_, stats) in &run.phase_stats {
            cps.stats(stats);
        }
    }

    let got = [sqe.0, mqe.0, cps.0];
    assert_eq!(
        got,
        [
            0x4373_a7f8_4777_2678,
            0x04b7_4d04_88d3_77d8,
            0x861c_5609_b4b7_e45a
        ],
        "answer digests (sqe, mqe, cps) changed: {got:#018x?}"
    );
}
