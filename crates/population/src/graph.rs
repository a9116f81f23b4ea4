//! A synthetic online social network.
//!
//! The paper samples populations of *social networks*, and its data
//! model explicitly allows attributes that "relate to edges of the
//! network, such as the existence of a specific edge or the number of
//! neighbors of an individual" (§3.1). This module provides a
//! Barabási–Albert preferential-attachment generator — the standard
//! model for the heavy-tailed degree distributions of real social
//! graphs — and derives per-individual structural attributes
//! (degree, triangle count, average neighbor degree) so stratified
//! sampling designs can stratify on network position.

use crate::dataset::Dataset;
use crate::individual::Individual;
use crate::schema::{AttrDef, Schema};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// An undirected social graph with node ids `0..n`.
#[derive(Debug, Clone)]
pub struct SocialGraph {
    /// Sorted adjacency lists, one per node.
    adjacency: Vec<Vec<u32>>,
}

impl SocialGraph {
    /// Generate a Barabási–Albert graph: start from a small clique and
    /// attach each new node to `m` existing nodes chosen with
    /// probability proportional to their degree.
    ///
    /// # Panics
    /// Panics if `n < m + 1` or `m == 0`.
    pub fn generate_ba(n: usize, m: usize, seed: u64) -> Self {
        assert!(m >= 1, "attachment count must be positive");
        assert!(n > m, "need more nodes than the attachment count");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut adjacency: Vec<Vec<u32>> = vec![Vec::new(); n];
        // repeated-endpoints list: sampling an element uniformly is
        // sampling a node proportional to degree
        let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n * m);

        // seed clique over the first m + 1 nodes
        for u in 0..=m {
            for v in (u + 1)..=m {
                adjacency[u].push(v as u32);
                adjacency[v].push(u as u32);
                endpoints.push(u as u32);
                endpoints.push(v as u32);
            }
        }

        for u in (m + 1)..n {
            let mut targets: Vec<u32> = Vec::with_capacity(m);
            while targets.len() < m {
                let candidate = endpoints[rng.gen_range(0..endpoints.len())];
                if candidate as usize != u && !targets.contains(&candidate) {
                    targets.push(candidate);
                }
            }
            for &v in &targets {
                adjacency[u].push(v);
                adjacency[v as usize].push(u as u32);
                endpoints.push(u as u32);
                endpoints.push(v);
            }
        }
        for adj in &mut adjacency {
            adj.sort_unstable();
        }
        Self { adjacency }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adjacency.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.adjacency.iter().map(|a| a.len()).sum::<usize>() / 2
    }

    /// Degree of node `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.adjacency[v].len()
    }

    /// The (sorted) neighbors of node `v`.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.adjacency[v]
    }

    /// Is `{u, v}` an edge?
    pub(crate) fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adjacency[u].binary_search(&(v as u32)).is_ok()
    }

    /// Number of triangles through node `v`.
    pub fn triangles(&self, v: usize) -> usize {
        let nbrs = &self.adjacency[v];
        let mut count = 0;
        for (i, &a) in nbrs.iter().enumerate() {
            for &b in &nbrs[i + 1..] {
                if self.has_edge(a as usize, b as usize) {
                    count += 1;
                }
            }
        }
        count
    }

    /// Average degree over the neighbors of `v` (0 for isolated nodes).
    pub(crate) fn avg_neighbor_degree(&self, v: usize) -> f64 {
        let nbrs = &self.adjacency[v];
        if nbrs.is_empty() {
            return 0.0;
        }
        nbrs.iter().map(|&u| self.degree(u as usize)).sum::<usize>() as f64 / nbrs.len() as f64
    }

    /// The schema of [`SocialGraph::to_population`]:
    /// `degree`, `triangles`, `and_x10` (average neighbor degree ×10,
    /// as an integer).
    pub(crate) fn population_schema(&self) -> Schema {
        let n = self.len() as i64;
        Schema::new(vec![
            AttrDef::numeric("degree", 0, n.max(1) - 1),
            AttrDef::numeric("triangles", 0, i64::MAX / 2),
            AttrDef::numeric("and_x10", 0, 10 * n.max(1)),
        ])
    }

    /// Materialize the nodes as a population whose attributes are the
    /// structural statistics, ready for stratified sampling.
    pub fn to_population(&self, payload_bytes: u32) -> Dataset {
        let schema = self.population_schema();
        let tuples = (0..self.len())
            .map(|v| {
                Individual::new(
                    v as u64,
                    vec![
                        self.degree(v) as i64,
                        self.triangles(v) as i64,
                        (self.avg_neighbor_degree(v) * 10.0).round() as i64,
                    ],
                    payload_bytes,
                )
            })
            .collect();
        Dataset::new(schema, tuples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ba_graph_shape() {
        let g = SocialGraph::generate_ba(2_000, 4, 7);
        assert_eq!(g.len(), 2_000);
        // clique edges + 4 per subsequent node
        let expected_edges = (5 * 4) / 2 + (2_000 - 5) * 4;
        assert_eq!(g.num_edges(), expected_edges);
        // handshake lemma
        let degree_sum: usize = (0..g.len()).map(|v| g.degree(v)).sum();
        assert_eq!(degree_sum, 2 * g.num_edges());
        // no self-loops, no duplicate edges
        for v in 0..g.len() {
            let nbrs = g.neighbors(v);
            assert!(!nbrs.contains(&(v as u32)), "self-loop at {v}");
            let mut d = nbrs.to_vec();
            d.dedup();
            assert_eq!(d.len(), nbrs.len(), "duplicate edge at {v}");
        }
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let g = SocialGraph::generate_ba(5_000, 3, 1);
        let mut degrees: Vec<usize> = (0..g.len()).map(|v| g.degree(v)).collect();
        degrees.sort_unstable();
        let median = degrees[degrees.len() / 2];
        let max = *degrees.last().unwrap();
        // preferential attachment: hubs dwarf the median node
        assert!(max > 10 * median, "no hubs: max {max} vs median {median}");
        // most nodes stay near the attachment count
        assert!(median <= 5, "median {median}");
    }

    #[test]
    fn deterministic_generation() {
        let a = SocialGraph::generate_ba(500, 3, 9);
        let b = SocialGraph::generate_ba(500, 3, 9);
        assert_eq!(a.adjacency, b.adjacency);
        let c = SocialGraph::generate_ba(500, 3, 10);
        assert_ne!(a.adjacency, c.adjacency);
    }

    #[test]
    fn edge_queries() {
        let g = SocialGraph::generate_ba(50, 2, 3);
        for v in 0..g.len() {
            for &u in g.neighbors(v) {
                assert!(g.has_edge(v, u as usize));
                assert!(g.has_edge(u as usize, v), "edge not symmetric");
            }
        }
        // the seed clique is fully connected
        assert!(g.has_edge(0, 1) && g.has_edge(1, 2) && g.has_edge(0, 2));
    }

    #[test]
    fn triangles_in_seed_clique() {
        // nodes 0..=3 form a K4 → each clique node sees the 3 triangles
        // of the other clique members (plus any formed by later nodes)
        let g = SocialGraph::generate_ba(100, 3, 4);
        assert!(g.triangles(0) >= 3);
    }

    #[test]
    fn population_attributes_match_graph() {
        let g = SocialGraph::generate_ba(300, 3, 5);
        let pop = g.to_population(64);
        assert_eq!(pop.len(), 300);
        let schema = pop.schema();
        let degree = schema.attr_id("degree").unwrap();
        let triangles = schema.attr_id("triangles").unwrap();
        for t in pop.tuples() {
            let v = t.id as usize;
            assert_eq!(t.get(degree) as usize, g.degree(v));
            assert_eq!(t.get(triangles) as usize, g.triangles(v));
            assert_eq!(t.payload_bytes, 64);
        }
    }

    #[test]
    #[should_panic(expected = "more nodes")]
    fn tiny_graph_rejected() {
        SocialGraph::generate_ba(3, 3, 0);
    }
}
