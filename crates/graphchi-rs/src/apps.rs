//! Vertex programs: the update callbacks GraphChi applications implement,
//! plus the two applications the paper evaluates (PR and CC).

use data_store::{Rec, Store};

/// Field indices of the `ChiVertex` record class (see `engine.rs`).
///
/// Both backends share the class shape; they differ in what the edge
/// fields point at. Under the heap backend (`P`), `IN_EDGES`/`OUT_EDGES`
/// are reference arrays of `ChiPointer` records — the Java object graph
/// the paper profiles. Under the facade backend (`P'`), the compiler's
/// record-inlining optimization (§3.6: FACADE "inlines all data records
/// whose size can be statically determined") flattens the pointers into
/// two parallel primitive arrays per direction: metadata
/// (`neighbor, edge-id` interleaved) and values.
pub(crate) mod vertex_fields {
    pub const ID: usize = 0;
    pub const VALUE: usize = 1;
    pub const NUM_IN: usize = 2;
    pub const NUM_OUT: usize = 3;
    /// P: ref array of ChiPointer. P': i32 array `[nbr, eid]*`.
    pub const IN_EDGES: usize = 4;
    /// P: ref array of ChiPointer. P': i32 array `[nbr, eid]*`.
    pub const OUT_EDGES: usize = 5;
    /// P': f64 array of in-edge values (unused under P).
    pub const IN_VALUES: usize = 6;
    /// P': f64 array of out-edge values (unused under P).
    pub const OUT_VALUES: usize = 7;
}

/// Field indices of the `ChiPointer` record class (heap backend only).
pub(crate) mod pointer_fields {
    pub const NEIGHBOR: usize = 0;
    pub const EDGE_ID: usize = 1;
    pub const VALUE: usize = 2;
}

/// A loaded vertex: the view a [`VertexProgram`] updates. All reads and
/// writes go through the record store — this *is* the data path.
#[derive(Debug)]
pub struct VertexView<'a> {
    store: &'a mut Store,
    vertex: Rec,
    inlined: bool,
    /// The vertex's edge arrays, resolved once when the view is built:
    /// `ChiPointer` ref arrays under P, `[nbr, eid]` runs under P'.
    in_edges: Rec,
    out_edges: Rec,
    /// The edge-value arrays under P' (null under P).
    in_values: Rec,
    out_values: Rec,
}

impl<'a> VertexView<'a> {
    /// A view of `vertex`, with its four edge-array refs read up front so
    /// each edge access below costs one store call fewer.
    pub(crate) fn new(store: &'a mut Store, vertex: Rec, inlined: bool) -> Self {
        let in_edges = store.get_rec(vertex, vertex_fields::IN_EDGES);
        let out_edges = store.get_rec(vertex, vertex_fields::OUT_EDGES);
        let in_values = store.get_rec(vertex, vertex_fields::IN_VALUES);
        let out_values = store.get_rec(vertex, vertex_fields::OUT_VALUES);
        Self {
            store,
            vertex,
            inlined,
            in_edges,
            out_edges,
            in_values,
            out_values,
        }
    }

    /// The vertex id.
    pub fn id(&self) -> u32 {
        self.store.get_i32(self.vertex, vertex_fields::ID) as u32
    }

    /// The current vertex value.
    pub fn value(&self) -> f64 {
        self.store.get_f64(self.vertex, vertex_fields::VALUE)
    }

    /// Sets the vertex value.
    pub fn set_value(&mut self, v: f64) {
        self.store.set_f64(self.vertex, vertex_fields::VALUE, v);
    }

    /// Number of in-edges.
    pub fn num_in(&self) -> usize {
        self.store.get_i32(self.vertex, vertex_fields::NUM_IN) as usize
    }

    /// Number of out-edges.
    pub fn num_out(&self) -> usize {
        self.store.get_i32(self.vertex, vertex_fields::NUM_OUT) as usize
    }

    fn in_edge(&self, i: usize) -> Rec {
        self.store.array_get_rec(self.in_edges, i)
    }

    fn out_edge(&self, i: usize) -> Rec {
        self.store.array_get_rec(self.out_edges, i)
    }

    /// The value carried by in-edge `i`.
    pub fn in_edge_value(&self, i: usize) -> f64 {
        if self.inlined {
            self.store.array_get_f64(self.in_values, i)
        } else {
            let e = self.in_edge(i);
            self.store.get_f64(e, pointer_fields::VALUE)
        }
    }

    /// Writes the value of in-edge `i` (used by undirected algorithms such
    /// as connected components).
    pub fn set_in_edge_value(&mut self, i: usize, v: f64) {
        if self.inlined {
            self.store.array_set_f64(self.in_values, i, v);
        } else {
            let e = self.in_edge(i);
            self.store.set_f64(e, pointer_fields::VALUE, v);
        }
    }

    /// The source vertex of in-edge `i`.
    pub fn in_neighbor(&self, i: usize) -> u32 {
        if self.inlined {
            self.store.array_get_i32(self.in_edges, 2 * i) as u32
        } else {
            let e = self.in_edge(i);
            self.store.get_i32(e, pointer_fields::NEIGHBOR) as u32
        }
    }

    /// The value carried by out-edge `i`.
    pub fn out_edge_value(&self, i: usize) -> f64 {
        if self.inlined {
            self.store.array_get_f64(self.out_values, i)
        } else {
            let e = self.out_edge(i);
            self.store.get_f64(e, pointer_fields::VALUE)
        }
    }

    /// Writes the value of out-edge `i`.
    pub fn set_out_edge_value(&mut self, i: usize, v: f64) {
        if self.inlined {
            self.store.array_set_f64(self.out_values, i, v);
        } else {
            let e = self.out_edge(i);
            self.store.set_f64(e, pointer_fields::VALUE, v);
        }
    }

    /// The destination vertex of out-edge `i`.
    pub fn out_neighbor(&self, i: usize) -> u32 {
        if self.inlined {
            self.store.array_get_i32(self.out_edges, 2 * i) as u32
        } else {
            let e = self.out_edge(i);
            self.store.get_i32(e, pointer_fields::NEIGHBOR) as u32
        }
    }
}

/// A GraphChi vertex program. `Sync` because the engine's workers share
/// one program across subinterval threads; programs hold read-only
/// parameters, not per-vertex state.
pub trait VertexProgram: Sync {
    /// Application name for reports (`PR`, `CC`, ...).
    fn name(&self) -> &'static str;

    /// Maximum number of full passes over the graph.
    fn iterations(&self) -> usize;

    /// Initial vertex value.
    fn initial_value(&self, vertex: u32, out_degree: u32) -> f64;

    /// Initial edge value, given the edge's source and its out-degree.
    fn initial_edge_value(&self, src: u32, src_out_degree: u32) -> f64;

    /// Whether updates write in-edges too (undirected propagation); the
    /// engine then persists in-edge values on writeback.
    fn writes_in_edges(&self) -> bool {
        false
    }

    /// Folds a written edge value into persistent edge storage. In real
    /// GraphChi both endpoints of an in-memory edge share one `ChiPointer`;
    /// with per-endpoint record copies, this hook defines how concurrent
    /// writes to the same edge combine. The default is last-writer-wins
    /// (fine when only one endpoint writes, as in PR); monotone algorithms
    /// like CC fold with `min` so a stale copy can never overwrite a fresher
    /// lower label.
    fn fold_edge_value(&self, stored: f64, written: f64) -> f64 {
        let _ = stored;
        written
    }

    /// Updates one vertex; returns `true` if the vertex changed (drives
    /// early convergence).
    fn update(&self, v: &mut VertexView<'_>) -> bool;
}

/// PageRank with the standard 0.15/0.85 damping, as run in Table 2.
#[derive(Debug, Clone)]
pub struct PageRank {
    iterations: usize,
}

impl PageRank {
    /// PageRank for `iterations` passes.
    pub fn new(iterations: usize) -> Self {
        Self { iterations }
    }
}

impl VertexProgram for PageRank {
    fn name(&self) -> &'static str {
        "PR"
    }

    fn iterations(&self) -> usize {
        self.iterations
    }

    fn initial_value(&self, _vertex: u32, _out_degree: u32) -> f64 {
        1.0
    }

    fn initial_edge_value(&self, _src: u32, src_out_degree: u32) -> f64 {
        1.0 / f64::from(src_out_degree.max(1))
    }

    fn update(&self, v: &mut VertexView<'_>) -> bool {
        let mut sum = 0.0;
        for i in 0..v.num_in() {
            sum += v.in_edge_value(i);
        }
        let rank = 0.15 + 0.85 * sum;
        v.set_value(rank);
        let share = rank / v.num_out().max(1) as f64;
        for i in 0..v.num_out() {
            v.set_out_edge_value(i, share);
        }
        true
    }
}

/// Connected components by undirected min-label propagation, as run in
/// Table 2 (CC).
#[derive(Debug, Clone)]
pub struct ConnectedComponents {
    max_iterations: usize,
}

impl ConnectedComponents {
    /// CC with an upper bound on passes (propagation usually converges much
    /// earlier; the engine stops on a pass with no changes).
    pub fn new(max_iterations: usize) -> Self {
        Self { max_iterations }
    }
}

impl VertexProgram for ConnectedComponents {
    fn name(&self) -> &'static str {
        "CC"
    }

    fn iterations(&self) -> usize {
        self.max_iterations
    }

    fn initial_value(&self, vertex: u32, _out_degree: u32) -> f64 {
        f64::from(vertex)
    }

    fn initial_edge_value(&self, src: u32, _src_out_degree: u32) -> f64 {
        f64::from(src)
    }

    fn writes_in_edges(&self) -> bool {
        true
    }

    fn fold_edge_value(&self, stored: f64, written: f64) -> f64 {
        stored.min(written)
    }

    fn update(&self, v: &mut VertexView<'_>) -> bool {
        let mut label = v.value();
        for i in 0..v.num_in() {
            label = label.min(v.in_edge_value(i));
        }
        for i in 0..v.num_out() {
            label = label.min(v.out_edge_value(i));
        }
        let changed = label < v.value();
        v.set_value(label);
        // Labels may only *decrease*: an unconditional write would clobber
        // a fresher, lower label that a neighbour updated into the shared
        // edge earlier in the same pass, livelocking propagation.
        for i in 0..v.num_in() {
            if label < v.in_edge_value(i) {
                v.set_in_edge_value(i, label);
            }
        }
        for i in 0..v.num_out() {
            if label < v.out_edge_value(i) {
                v.set_out_edge_value(i, label);
            }
        }
        changed
    }
}

/// Single-source shortest paths by relaxation over unit-weight edges — the
/// third classic GraphChi application shape (monotone like CC, but seeded
/// from one vertex).
#[derive(Debug, Clone)]
pub struct ShortestPaths {
    source: u32,
    max_iterations: usize,
}

impl ShortestPaths {
    /// SSSP from `source` with an upper bound on passes.
    pub fn new(source: u32, max_iterations: usize) -> Self {
        Self {
            source,
            max_iterations,
        }
    }
}

/// The "unreachable" distance.
pub const SSSP_INFINITY: f64 = 1.0e18;

impl VertexProgram for ShortestPaths {
    fn name(&self) -> &'static str {
        "SSSP"
    }

    fn iterations(&self) -> usize {
        self.max_iterations
    }

    fn initial_value(&self, vertex: u32, _out_degree: u32) -> f64 {
        if vertex == self.source {
            0.0
        } else {
            SSSP_INFINITY
        }
    }

    fn initial_edge_value(&self, src: u32, _src_out_degree: u32) -> f64 {
        if src == self.source {
            1.0
        } else {
            SSSP_INFINITY
        }
    }

    fn fold_edge_value(&self, stored: f64, written: f64) -> f64 {
        stored.min(written)
    }

    fn update(&self, v: &mut VertexView<'_>) -> bool {
        // dist = min(dist, min over in-edges of (neighbor dist + 1)).
        let mut dist = v.value();
        for i in 0..v.num_in() {
            dist = dist.min(v.in_edge_value(i));
        }
        let changed = dist < v.value();
        v.set_value(dist);
        // Out-edges carry dist + 1 to successors.
        let relaxed = dist + 1.0;
        for i in 0..v.num_out() {
            if relaxed < v.out_edge_value(i) {
                v.set_out_edge_value(i, relaxed);
            }
        }
        changed
    }
}
