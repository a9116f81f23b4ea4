//! The Figure 2 combiner and reducer over row ids, shared by MR-SQE,
//! MR-MQE and MR-CPS's combined and residual phases: Algorithm R per
//! `(map task, key)`, then the unified sampler per key. A [`Strata`]
//! supplies the keys and frequencies; map tasks emit each tuple's
//! [`RowId`] instead of a clone of it. No draw looks at the items, so
//! the same positions are kept as with tuples, and reduce clones only
//! the picks. The simulated shuffle still charges each shipped tuple's
//! projected bytes ([`wire_bytes`]), summed when the map task finishes
//! its reservoir, while the task's split is still in cache.

use crate::input::wire_bytes;
use crate::reservoir::SeededReservoir;
use crate::unified::{unified_sampler, IntermediateSample};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hash::Hash;
use stratmr_mapreduce::cluster::OutputOf;
use stratmr_mapreduce::{Cluster, CombineJob, Emitter, InputSplit, JobError, TaskCtx};
use stratmr_population::Individual;

/// Where a tuple sits in a job's input: its split's position in the
/// slice and its index within that split.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowId {
    pub split: u32,
    pub row: u32,
}

/// What reduce hands back per picked row: the record, or the row id.
pub(crate) trait Pick: Send {
    fn pick(record: &Individual, id: RowId) -> Self;
}

impl Pick for Individual {
    fn pick(record: &Individual, _id: RowId) -> Self {
        record.clone()
    }
}

impl Pick for RowId {
    fn pick(_record: &Individual, id: RowId) -> Self {
        id
    }
}

/// A map task's intermediate sample of one key, with the wire bytes of
/// the tuples it references.
pub(crate) struct Shipped {
    sample: IntermediateSample<RowId>,
    bytes: u64,
}

/// The per-job part of a row-id sampling job: which keys a tuple is
/// emitted under, and how many tuples each key asks for.
pub(crate) trait Strata: Send + Sync {
    /// Intermediate key.
    type Key: Clone + Eq + Hash + Send + Sync;
    /// Per-map-task side state (`()` for none).
    type Side: Default + Send;
    /// What each picked row becomes in the answer.
    type Pick: Pick;

    /// Emit `row` (the row id of `t`) under every key `t` qualifies for.
    fn map(&self, t: &Individual, row: RowId, out: &mut Emitter<Self::Key, RowId, Self::Side>);

    /// The number of tuples `key` asks for.
    fn frequency(&self, key: &Self::Key) -> usize;

    /// Reduce picked `sampled` of the `seen` tuples emitted under `key`.
    fn reduced(&self, key: &Self::Key, sampled: u64, seen: u64);

    /// See [`CombineJob::side_bytes`].
    fn side_bytes(&self, _side: &Self::Side) -> u64 {
        0
    }

    /// See [`CombineJob::key_slots`].
    fn key_slots(&self) -> usize {
        0
    }

    /// See [`CombineJob::key_slot`].
    fn key_slot(&self, _key: &Self::Key) -> usize {
        unreachable!("a job with key_slots() > 0 must define key_slot")
    }
}

/// A [`Strata`] run as a MapReduce job over `splits`.
pub(crate) struct RowSampler<'a, J> {
    splits: &'a [InputSplit<Individual>],
    strata: J,
}

impl<'a, J: Strata> RowSampler<'a, J> {
    /// # Panics
    /// Panics if a split position or row index does not fit in 32 bits.
    pub fn new(splits: &'a [InputSplit<Individual>], strata: J) -> Self {
        let fits = |n: usize| u32::try_from(n).is_ok();
        assert!(fits(splits.len()) && splits.iter().all(|s| fits(s.records.len())));
        Self { splits, strata }
    }

    /// Run the job on its splits.
    pub fn run(&self, cluster: &Cluster, seed: u64) -> Result<OutputOf<Self>, JobError> {
        cluster.try_run_with_combiner(self, self.splits, seed)
    }

    /// The record at `id`.
    pub fn record(&self, id: RowId) -> &'a Individual {
        &self.splits[id.split as usize].records[id.row as usize]
    }
}

impl<J: Strata> CombineJob for RowSampler<'_, J> {
    type Input = Individual;
    type Key = J::Key;
    type MapOut = RowId;
    type Acc = SeededReservoir<RowId>;
    type CombOut = Shipped;
    type ReduceOut = Vec<J::Pick>;
    type Side = J::Side;

    fn map(&self, _ctx: &TaskCtx, t: &Individual, out: &mut Emitter<J::Key, RowId, J::Side>) {
        let (split, row) = out.row();
        let id = RowId {
            split: split as u32,
            row: row as u32,
        };
        self.strata.map(t, id, out);
    }

    fn start(&self, ctx: &TaskCtx, key: &J::Key) -> Self::Acc {
        SeededReservoir::new(self.strata.frequency(key), ctx.seed)
    }

    fn observe(&self, acc: &mut Self::Acc, id: RowId) {
        acc.observe(id);
    }

    fn finish(&self, acc: Self::Acc) -> Shipped {
        let sample = acc.finish();
        let bytes = sample
            .sample
            .iter()
            .map(|&id| wire_bytes(self.record(id)))
            .sum();
        Shipped { sample, bytes }
    }

    fn reduce(&self, ctx: &TaskCtx, key: &J::Key, values: Vec<Shipped>) -> Vec<J::Pick> {
        let values: Vec<IntermediateSample<RowId>> = values.into_iter().map(|s| s.sample).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(ctx.seed);
        let seen: u64 = values.iter().map(|s| s.drawn_from as u64).sum();
        let picks = unified_sampler(values, self.strata.frequency(key), &mut rng);
        self.strata.reduced(key, picks.len() as u64, seen);
        picks
            .into_iter()
            .map(|id| J::Pick::pick(self.record(id), id))
            .collect()
    }

    fn input_bytes(&self, t: &Individual) -> u64 {
        t.payload_bytes as u64
    }

    fn comb_bytes(&self, _key: &J::Key, s: &Shipped) -> u64 {
        // the intermediate sample's projected tuples plus the (key, N̄) header
        s.bytes + 16
    }

    fn side_bytes(&self, side: &J::Side) -> u64 {
        self.strata.side_bytes(side)
    }

    fn key_slots(&self) -> usize {
        self.strata.key_slots()
    }

    #[inline]
    fn key_slot(&self, key: &J::Key) -> usize {
        self.strata.key_slot(key)
    }
}
