//! Datasets and their distributed, partitioned form.
//!
//! In the paper's setting (§3.2.3) "the dataset R is stored on several
//! machines such that each machine can execute queries over the tuples it
//! stores or send tuples to other machines". [`DistributedDataset`] models
//! this: the population is cut into input *splits*, each resident on a home
//! machine. The [`Placement`] strategies include the *non-random* placement
//! the paper warns about ("the typical case where machines in a certain
//! geographical region store data coming from this region"), under which
//! naive split-local sampling would be biased.

use crate::individual::Individual;
use crate::schema::{AttrId, Schema};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// An in-memory population with its schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    schema: Schema,
    tuples: Vec<Individual>,
}

impl Dataset {
    /// Wrap tuples with their schema.
    pub fn new(schema: Schema, tuples: Vec<Individual>) -> Self {
        Self { schema, tuples }
    }

    /// The dataset schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// All individuals.
    pub fn tuples(&self) -> &[Individual] {
        &self.tuples
    }

    /// Consume the dataset, returning its tuples.
    pub fn into_tuples(self) -> Vec<Individual> {
        self.tuples
    }

    /// Number of individuals.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when the population is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Total simulated storage footprint in bytes (record payloads).
    pub fn total_bytes(&self) -> u64 {
        self.tuples.iter().map(|t| t.payload_bytes as u64).sum()
    }

    /// Distribute the dataset onto `machines` machines as `splits` input
    /// splits using the given placement strategy.
    ///
    /// # Panics
    /// Panics if `machines == 0` or `splits == 0`.
    pub fn distribute(
        &self,
        machines: usize,
        splits: usize,
        placement: Placement,
    ) -> DistributedDataset {
        DistributedDataset::from_dataset(self, machines, splits, placement)
    }
}

/// How tuples are assigned to input splits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Tuple `i` goes to split `i % splits`: every split is close to a
    /// random sample of the data (the assumption Grover & Carey's sampling
    /// extension relies on, per §2).
    RoundRobin,
    /// Tuples are placed in generation order, cut into contiguous chunks.
    Contiguous,
    /// Tuples are sorted by an attribute before contiguous placement,
    /// modelling geographic/temporal skew: split contents are *not*
    /// representative of the population.
    SortedBy(AttrId),
    /// Shuffled with the given seed, then placed contiguously.
    Shuffled(u64),
}

/// One input split of a distributed dataset.
#[derive(Debug, Clone)]
pub struct Split {
    /// Split index, unique within the dataset.
    pub id: usize,
    /// The machine holding this split.
    pub home_machine: usize,
    /// Tuples resident in this split.
    pub tuples: Vec<Individual>,
}

/// A population partitioned into splits placed on machines.
#[derive(Debug, Clone)]
pub struct DistributedDataset {
    schema: Schema,
    machines: usize,
    splits: Vec<Split>,
}

impl DistributedDataset {
    /// Build from explicitly placed splits (e.g. to model a specific
    /// machine layout, like Example 5's 36/28 split).
    ///
    /// # Panics
    /// Panics if `machines == 0` or a split's home machine is out of
    /// range.
    pub fn from_splits(schema: Schema, machines: usize, splits: Vec<Split>) -> Self {
        assert!(machines > 0, "need at least one machine");
        for s in &splits {
            assert!(s.home_machine < machines, "split on unknown machine");
        }
        Self {
            schema,
            machines,
            splits,
        }
    }

    fn from_dataset(data: &Dataset, machines: usize, splits: usize, placement: Placement) -> Self {
        assert!(machines > 0, "need at least one machine");
        assert!(splits > 0, "need at least one split");
        let n = data.len();
        let mut ordered: Vec<Individual>;
        let mut split_vecs: Vec<Vec<Individual>> = vec![Vec::new(); splits];
        match placement {
            Placement::RoundRobin => {
                for (i, t) in data.tuples().iter().enumerate() {
                    split_vecs[i % splits].push(t.clone());
                }
            }
            Placement::Contiguous | Placement::SortedBy(_) | Placement::Shuffled(_) => {
                ordered = data.tuples().to_vec();
                match placement {
                    Placement::SortedBy(attr) => {
                        ordered.sort_by_key(|t| (t.get(attr), t.id));
                    }
                    Placement::Shuffled(seed) => {
                        let mut rng = ChaCha8Rng::seed_from_u64(seed);
                        ordered.shuffle(&mut rng);
                    }
                    _ => {}
                }
                // Contiguous chunks of near-equal size.
                let base = n / splits;
                let extra = n % splits;
                let mut it = ordered.into_iter();
                for (s, v) in split_vecs.iter_mut().enumerate() {
                    let take = base + usize::from(s < extra);
                    v.extend(it.by_ref().take(take));
                }
            }
        }
        let splits = split_vecs
            .into_iter()
            .enumerate()
            .map(|(id, tuples)| Split {
                id,
                home_machine: id % machines,
                tuples,
            })
            .collect();
        Self {
            schema: data.schema().clone(),
            machines,
            splits,
        }
    }

    /// The dataset schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of machines the data is spread over.
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// The input splits.
    pub fn splits(&self) -> &[Split] {
        &self.splits
    }

    /// Total number of individuals across all splits.
    pub fn len(&self) -> usize {
        self.splits.iter().map(|s| s.tuples.len()).sum()
    }

    /// True when the population is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate over every individual (all splits, split order).
    pub fn iter(&self) -> impl Iterator<Item = &Individual> {
        self.splits.iter().flat_map(|s| s.tuples.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrDef;

    fn tiny(n: usize) -> Dataset {
        let schema = Schema::new(vec![AttrDef::numeric("x", 0, 1_000_000)]);
        let tuples = (0..n as u64)
            .map(|i| Individual::new(i, vec![(i as i64 * 37) % 1000], 10))
            .collect();
        Dataset::new(schema, tuples)
    }

    #[test]
    fn round_robin_balances_splits() {
        let d = tiny(103);
        let dd = d.distribute(4, 10, Placement::RoundRobin);
        assert_eq!(dd.len(), 103);
        assert_eq!(dd.splits().len(), 10);
        for s in dd.splits() {
            assert!(s.tuples.len() == 10 || s.tuples.len() == 11);
        }
    }

    #[test]
    fn contiguous_preserves_order_and_total() {
        let d = tiny(100);
        let dd = d.distribute(3, 7, Placement::Contiguous);
        let ids: Vec<u64> = dd.iter().map(|t| t.id).collect();
        assert_eq!(ids, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sorted_placement_skews_splits() {
        let d = tiny(1000);
        let attr = AttrId(0);
        let dd = d.distribute(2, 2, Placement::SortedBy(attr));
        let max_first = dd.splits()[0]
            .tuples
            .iter()
            .map(|t| t.get(attr))
            .max()
            .unwrap();
        let min_second = dd.splits()[1]
            .tuples
            .iter()
            .map(|t| t.get(attr))
            .min()
            .unwrap();
        assert!(max_first <= min_second, "sorted split boundary violated");
    }

    #[test]
    fn shuffled_is_deterministic_and_complete() {
        let d = tiny(50);
        let a = d.distribute(2, 5, Placement::Shuffled(3));
        let b = d.distribute(2, 5, Placement::Shuffled(3));
        for (sa, sb) in a.splits().iter().zip(b.splits()) {
            assert_eq!(sa.tuples, sb.tuples);
        }
        let mut ids: Vec<u64> = a.iter().map(|t| t.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn machines_assigned_round_robin_over_splits() {
        let d = tiny(30);
        let dd = d.distribute(3, 7, Placement::RoundRobin);
        for s in dd.splits() {
            assert_eq!(s.home_machine, s.id % 3);
        }
        assert_eq!(dd.machines(), 3);
    }

    #[test]
    fn distribute_round_trips() {
        let d = tiny(64);
        let dd = d.distribute(4, 8, Placement::RoundRobin);
        let mut ids: Vec<u64> = dd.iter().map(|t| t.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..64).collect::<Vec<_>>());
        assert_eq!(dd.schema(), d.schema());
    }

    #[test]
    fn total_bytes_sums_payloads() {
        let d = tiny(5);
        assert_eq!(d.total_bytes(), 50);
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn zero_machines_rejected() {
        tiny(5).distribute(0, 1, Placement::RoundRobin);
    }
}
