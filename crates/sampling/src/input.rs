//! Bridging populations to MapReduce input splits.

use stratmr_mapreduce::InputSplit;
use stratmr_population::{DistributedDataset, Individual};

/// Wire size of one tuple in the shuffle: id + header + the queryable
/// attribute values.
///
/// The simulated shuffle charges *projected* tuples — the individual's id
/// and attributes — not the full stored record (`payload_bytes`, ~100 KB
/// in the paper's dataset); the survey fetches full records by id after
/// sampling. The map phase still pays the full record scan via
/// `CombineJob::input_bytes`. The sampling jobs ship row ids in memory
/// and charge this size for the tuple each id refers to (DESIGN.md,
/// substitution 8); the naive Figure 1 job ships the tuples themselves.
#[inline]
pub fn wire_bytes(t: &Individual) -> u64 {
    24 + 8 * t.arity() as u64
}

/// Convert a distributed dataset's splits into MapReduce input splits.
///
/// Individuals are reference-counted, so this clones handles, not
/// attribute data. Call once per dataset and reuse the result across jobs
/// when running many queries.
pub fn to_input_splits(data: &DistributedDataset) -> Vec<InputSplit<Individual>> {
    data.splits()
        .iter()
        .map(|s| InputSplit::new(s.id, s.home_machine, s.tuples.clone()))
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use stratmr_population::{AttrDef, Dataset, Placement, Schema};

    /// `n` individuals with `x = id mod 100` and a 1000-byte record each.
    pub(crate) fn dataset(n: usize) -> Dataset {
        let schema = Schema::new(vec![AttrDef::numeric("x", 0, 99)]);
        let tuples = (0..n as u64)
            .map(|i| Individual::new(i, vec![(i % 100) as i64], 1000))
            .collect();
        Dataset::new(schema, tuples)
    }

    #[test]
    fn splits_mirror_dataset_layout() {
        let schema = Schema::new(vec![AttrDef::numeric("x", 0, 9)]);
        let tuples = (0..20u64)
            .map(|i| Individual::new(i, vec![(i % 10) as i64], 5))
            .collect();
        let data = Dataset::new(schema, tuples).distribute(3, 6, Placement::RoundRobin);
        let splits = to_input_splits(&data);
        assert_eq!(splits.len(), 6);
        for (mr, ds) in splits.iter().zip(data.splits()) {
            assert_eq!(mr.id, ds.id);
            assert_eq!(mr.home_machine, ds.home_machine);
            assert_eq!(mr.records, ds.tuples);
        }
    }
}
