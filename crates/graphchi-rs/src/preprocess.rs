//! Preprocessing: CSR construction (the stand-in for GraphChi's shard
//! creation) and interval layout.

use datagen::Graph;

/// In- and out-CSR indexes over a graph, with per-edge ids that address the
/// persistent edge-value array.
/// Built once in the control path; identical for `P` and `P'` runs.
#[derive(Debug, Clone)]
pub struct Csr {
    /// Number of vertices.
    pub vertices: u32,
    /// Number of edges.
    pub edges: u64,
    /// Out-adjacency offsets, length `vertices + 1`.
    pub out_offsets: Vec<u32>,
    /// Out-neighbors, ordered by source.
    pub out_dst: Vec<u32>,
    /// Global edge id of each out-adjacency slot.
    pub out_eid: Vec<u32>,
    /// In-adjacency offsets, length `vertices + 1`.
    pub in_offsets: Vec<u32>,
    /// In-neighbors (sources), ordered by destination.
    pub in_src: Vec<u32>,
    /// Global edge id of each in-adjacency slot.
    pub in_eid: Vec<u32>,
}

impl Csr {
    /// Builds both CSR directions from an edge list. Edge `i` of the input
    /// gets global edge id `i`.
    pub fn build(graph: &Graph) -> Self {
        let n = graph.vertices as usize;
        let m = graph.edges.len();

        let mut out_offsets = vec![0u32; n + 1];
        let mut in_offsets = vec![0u32; n + 1];
        for &(s, d) in &graph.edges {
            out_offsets[s as usize + 1] += 1;
            in_offsets[d as usize + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut out_dst = vec![0u32; m];
        let mut out_eid = vec![0u32; m];
        let mut in_src = vec![0u32; m];
        let mut in_eid = vec![0u32; m];
        let mut out_cursor = out_offsets.clone();
        let mut in_cursor = in_offsets.clone();
        for (eid, &(s, d)) in graph.edges.iter().enumerate() {
            let o = out_cursor[s as usize] as usize;
            out_dst[o] = d;
            out_eid[o] = eid as u32;
            out_cursor[s as usize] += 1;
            let i = in_cursor[d as usize] as usize;
            in_src[i] = s;
            in_eid[i] = eid as u32;
            in_cursor[d as usize] += 1;
        }
        Self {
            vertices: graph.vertices,
            edges: m as u64,
            out_offsets,
            out_dst,
            out_eid,
            in_offsets,
            in_src,
            in_eid,
        }
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: u32) -> u32 {
        self.out_offsets[v as usize + 1] - self.out_offsets[v as usize]
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: u32) -> u32 {
        self.in_offsets[v as usize + 1] - self.in_offsets[v as usize]
    }

    /// Total degree (in + out) of `v` — the loading cost of the vertex.
    pub fn degree(&self, v: u32) -> u32 {
        self.out_degree(v) + self.in_degree(v)
    }

    /// Splits `0..vertices` into `count` equal-width intervals (GraphChi's
    /// execution intervals; the shard count of the paper's setup).
    pub fn intervals(&self, count: usize) -> Vec<(u32, u32)> {
        let count = count.clamp(1, self.vertices.max(1) as usize) as u32;
        let width = self.vertices.div_ceil(count);
        (0..count)
            .map(|i| (i * width, ((i + 1) * width).min(self.vertices)))
            .filter(|(a, b)| a < b)
            .collect()
    }

    /// Splits an interval into subintervals whose total degree stays within
    /// `edge_budget` (the adaptive loading of §4.1). Every subinterval
    /// contains at least one vertex.
    pub fn subintervals(&self, interval: (u32, u32), edge_budget: u64) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        let (mut start, end) = interval;
        while start < end {
            let mut v = start;
            let mut load = 0u64;
            while v < end {
                let d = u64::from(self.degree(v));
                if v > start && load + d > edge_budget {
                    break;
                }
                load += d;
                v += 1;
            }
            out.push((start, v));
            start = v;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::GraphSpec;

    fn small() -> Csr {
        let g = Graph {
            vertices: 4,
            edges: vec![(0, 1), (0, 2), (1, 2), (2, 3), (3, 0)],
        };
        Csr::build(&g)
    }

    #[test]
    fn csr_offsets_and_neighbors() {
        let c = small();
        assert_eq!(c.out_degree(0), 2);
        assert_eq!(c.in_degree(2), 2);
        assert_eq!(c.degree(2), 3);
        // Out-neighbors of 0 are {1, 2}.
        let o = c.out_offsets[0] as usize..c.out_offsets[1] as usize;
        let mut nbrs: Vec<u32> = c.out_dst[o].to_vec();
        nbrs.sort_unstable();
        assert_eq!(nbrs, vec![1, 2]);
    }

    #[test]
    fn edge_ids_are_consistent_across_directions() {
        let c = small();
        // Edge (1, 2) has id 2; it must appear with id 2 in both CSRs.
        let out_slot = (c.out_offsets[1] as usize..c.out_offsets[2] as usize)
            .find(|&i| c.out_dst[i] == 2)
            .unwrap();
        assert_eq!(c.out_eid[out_slot], 2);
        let in_slot = (c.in_offsets[2] as usize..c.in_offsets[3] as usize)
            .find(|&i| c.in_src[i] == 1)
            .unwrap();
        assert_eq!(c.in_eid[in_slot], 2);
    }

    #[test]
    fn intervals_cover_the_vertex_set() {
        let g = Graph::generate(&GraphSpec::new(1000, 5000, 3));
        let c = Csr::build(&g);
        let ivs = c.intervals(7);
        assert_eq!(ivs[0].0, 0);
        assert_eq!(ivs.last().unwrap().1, 1000);
        for w in ivs.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
    }

    #[test]
    fn subintervals_respect_the_edge_budget() {
        let g = Graph::generate(&GraphSpec::new(1000, 20_000, 4));
        let c = Csr::build(&g);
        for iv in c.intervals(4) {
            for (a, b) in c.subintervals(iv, 500) {
                assert!(a < b);
                let load: u64 = (a..b).map(|v| u64::from(c.degree(v))).sum();
                // Within budget unless it is a single heavy vertex.
                assert!(load <= 500 || b - a == 1, "load {load} for {a}..{b}");
            }
        }
    }

    #[test]
    fn subintervals_concatenate_to_interval() {
        let g = Graph::generate(&GraphSpec::new(500, 3000, 5));
        let c = Csr::build(&g);
        let iv = (100, 300);
        let subs = c.subintervals(iv, 100);
        assert_eq!(subs[0].0, 100);
        assert_eq!(subs.last().unwrap().1, 300);
        for w in subs.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
    }
}
