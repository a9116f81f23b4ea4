//! Job traits: the map / combine / reduce contract.
//!
//! A MapReduce program (Dean & Ghemawat) specifies a *map* function
//! producing intermediate key-value pairs and a *reduce* function merging
//! all values of one intermediate key. An optional *combiner* performs a
//! partial, map-side aggregation before pairs are sent over the network —
//! the mechanism MR-SQE exploits to ship intermediate samples instead of
//! whole strata.
//!
//! Unlike Hadoop, the combiner here may change the value type
//! (`MapOut → CombOut`), because the paper's combiner output
//! `(S̄, N̄)` — an intermediate sample annotated with the size of the set
//! it was drawn from — is structurally different from a single tuple.
//!
//! The combiner is a *fold*: the engine starts one accumulator per
//! `(map task, key)` when the key is first emitted, feeds it each value
//! as the map function emits it, and finishes it once the task's input
//! is exhausted. Map-side state is therefore one accumulator per key
//! (O(keys × sample size) for a reservoir) instead of every emitted pair.

use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Deterministic per-task context handed to every user function.
///
/// Engine-provided randomness is exposed only as a seed, so jobs that
/// sample can build their own deterministic RNG; the whole job is then a
/// pure function of `(input, job seed)`.
#[derive(Debug, Clone, Copy)]
pub struct TaskCtx {
    /// The seed passed to [`Cluster::try_run`](crate::Cluster::try_run).
    pub job_seed: u64,
    /// Input split id (map side) or reduce partition id (reduce side).
    pub task_id: usize,
    /// The machine executing this task.
    pub machine: usize,
    /// A seed unique to this (job, task, key-group) invocation.
    pub seed: u64,
}

/// Collects the key-value pairs emitted by one `map` call.
#[derive(Debug)]
pub struct Emitter<K, V> {
    pairs: Vec<(K, V)>,
}

impl<K, V> Emitter<K, V> {
    pub(crate) fn new() -> Self {
        Self { pairs: Vec::new() }
    }

    /// Emit one intermediate pair.
    #[inline]
    pub fn emit(&mut self, key: K, value: V) {
        self.pairs.push((key, value));
    }

    /// Number of pairs emitted for the current record (the engine hands
    /// each record's pairs to the combiner before the next `map` call).
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when nothing was emitted for the current record.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Take the pairs emitted so far, in emit order.
    pub(crate) fn drain(&mut self) -> std::vec::Drain<'_, (K, V)> {
        self.pairs.drain(..)
    }
}

/// A MapReduce job with a combiner.
///
/// `map` is invoked once per input record. The combiner is a fold per
/// `(map task, key)`: `start` when the task first emits the key,
/// `observe` for each value the task emits for it, in emit order, and
/// `finish` once the task's input is exhausted. `reduce` is invoked once
/// per key with the finished values from every map task.
pub trait CombineJob: Send + Sync {
    /// Input record type.
    type Input: Send + Sync;
    /// Intermediate key.
    type Key: Clone + Eq + Hash + Send + Sync;
    /// Map output value.
    type MapOut: Send;
    /// Combiner state of one `(map task, key)`.
    type Acc: Send;
    /// Combiner output value (what actually crosses the network).
    type CombOut: Send;
    /// Final per-key result.
    type ReduceOut: Send;

    /// Process one input record, emitting intermediate pairs.
    fn map(&self, ctx: &TaskCtx, record: &Self::Input, out: &mut Emitter<Self::Key, Self::MapOut>);

    /// Fresh combiner state for a key the task has just emitted for the
    /// first time; `ctx.seed` is unique to the `(task, key)` pair.
    fn start(&self, ctx: &TaskCtx, key: &Self::Key) -> Self::Acc;

    /// Fold one emitted value into the key's state.
    fn observe(&self, acc: &mut Self::Acc, value: Self::MapOut);

    /// The combined value of a key once the task's input is exhausted.
    fn finish(&self, acc: Self::Acc) -> Self::CombOut;

    /// Merge one key's combined values from all map tasks.
    fn reduce(&self, ctx: &TaskCtx, key: &Self::Key, values: Vec<Self::CombOut>)
        -> Self::ReduceOut;

    /// Simulated record size scanned from the backing store per input
    /// record (drives the cost model's map-phase disk time).
    fn input_bytes(&self, _record: &Self::Input) -> u64 {
        0
    }

    /// Simulated wire size of one combiner output pair (drives the cost
    /// model's shuffle time).
    fn comb_bytes(&self, _key: &Self::Key, _value: &Self::CombOut) -> u64 {
        0
    }

    /// Whether the job really has a combiner; the engine charges combiner
    /// CPU only when true. (The [`Job`] adapter reports `false`.)
    fn has_combiner(&self) -> bool {
        true
    }
}

/// A plain MapReduce job without a combiner (e.g. the naive sampler of
/// Figure 1, where every matching tuple crosses the network).
pub trait Job: Send + Sync {
    /// Input record type.
    type Input: Send + Sync;
    /// Intermediate key.
    type Key: Clone + Eq + Hash + Send + Sync;
    /// Map output value.
    type MapOut: Send;
    /// Final per-key result.
    type ReduceOut: Send;

    /// Process one input record, emitting intermediate pairs.
    fn map(&self, ctx: &TaskCtx, record: &Self::Input, out: &mut Emitter<Self::Key, Self::MapOut>);

    /// Merge all values of one key.
    fn reduce(&self, ctx: &TaskCtx, key: &Self::Key, values: Vec<Self::MapOut>) -> Self::ReduceOut;

    /// See [`CombineJob::input_bytes`].
    fn input_bytes(&self, _record: &Self::Input) -> u64 {
        0
    }

    /// Simulated wire size of one intermediate pair.
    fn pair_bytes(&self, _key: &Self::Key, _value: &Self::MapOut) -> u64 {
        0
    }
}

/// Adapter running a combiner-less [`Job`] on the combiner engine: the
/// "combiner" passes values through untouched.
pub(crate) struct NoCombiner<'a, J>(pub &'a J);

impl<J: Job> CombineJob for NoCombiner<'_, J> {
    type Input = J::Input;
    type Key = J::Key;
    type MapOut = J::MapOut;
    type Acc = Vec<J::MapOut>;
    type CombOut = Vec<J::MapOut>;
    type ReduceOut = J::ReduceOut;

    fn map(&self, ctx: &TaskCtx, record: &Self::Input, out: &mut Emitter<Self::Key, Self::MapOut>) {
        self.0.map(ctx, record, out);
    }

    fn start(&self, _ctx: &TaskCtx, _key: &Self::Key) -> Self::Acc {
        Vec::new()
    }

    fn observe(&self, acc: &mut Self::Acc, value: Self::MapOut) {
        acc.push(value);
    }

    fn finish(&self, acc: Self::Acc) -> Self::CombOut {
        acc
    }

    fn reduce(
        &self,
        ctx: &TaskCtx,
        key: &Self::Key,
        values: Vec<Self::CombOut>,
    ) -> Self::ReduceOut {
        let flat: Vec<J::MapOut> = values.into_iter().flatten().collect();
        self.0.reduce(ctx, key, flat)
    }

    fn input_bytes(&self, record: &Self::Input) -> u64 {
        self.0.input_bytes(record)
    }

    fn comb_bytes(&self, key: &Self::Key, value: &Self::CombOut) -> u64 {
        value.iter().map(|v| self.0.pair_bytes(key, v)).sum()
    }

    fn has_combiner(&self) -> bool {
        false
    }
}

/// Fx-style multiplicative hasher for the engine's key-grouping indexes
/// (map-side accumulators, reduce-side groups).
///
/// Fixed-keyed and cheap on small integer keys; the hash only locates a
/// key's group and never reaches a result (reduce partitions are chosen
/// by `partition_of`'s SipHash).
#[derive(Default, Clone, Copy)]
pub(crate) struct FxHasher(u64);

/// `BuildHasher` of [`FxHasher`].
pub(crate) type FxBuild = BuildHasherDefault<FxHasher>;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Deterministic 64-bit mixer (splitmix64 finalizer) used to derive
/// per-task and per-group seeds from the job seed.
#[inline]
pub(crate) fn mix_seed(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitter_collects_pairs_in_order() {
        let mut e: Emitter<u32, &str> = Emitter::new();
        assert!(e.is_empty());
        e.emit(1, "a");
        e.emit(2, "b");
        e.emit(1, "c");
        assert_eq!(e.len(), 3);
        assert_eq!(
            e.drain().collect::<Vec<_>>(),
            vec![(1, "a"), (2, "b"), (1, "c")]
        );
        assert!(e.is_empty());
    }

    #[test]
    fn mix_seed_is_deterministic_and_spreads() {
        assert_eq!(mix_seed(1, 2), mix_seed(1, 2));
        assert_ne!(mix_seed(1, 2), mix_seed(2, 1));
        assert_ne!(mix_seed(0, 0), mix_seed(0, 1));
        // consecutive inputs should differ in many bits
        let d = (mix_seed(7, 1) ^ mix_seed(7, 2)).count_ones();
        assert!(d > 10, "poor diffusion: {d} differing bits");
    }
}
