//! The resident dataset jobs run against.

use datagen::{CorpusSpec, Graph, GraphSpec, corpus};
use graphchi_rs::Csr;
use std::sync::{Arc, OnceLock};

/// The inputs a job host keeps resident: one corpus (WC/ES) and one graph
/// (PR/CC), shared by reference across every concurrent job — loading or
/// generating them is paid once, not per submission. The graph's CSR is
/// built lazily by the first vertex job and then stays resident too.
/// Cloning a `Dataset` clones three `Arc`s; clones share the CSR.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The text corpus cluster workloads consume.
    pub corpus: Arc<Vec<String>>,
    /// The graph the vertex workloads consume.
    pub graph: Arc<Graph>,
    csr: Arc<OnceLock<Arc<Csr>>>,
}

impl Dataset {
    /// A dataset from already-loaded inputs.
    pub fn new(corpus: Vec<String>, graph: Graph) -> Dataset {
        Dataset {
            corpus: Arc::new(corpus),
            graph: Arc::new(graph),
            csr: Arc::default(),
        }
    }

    /// The graph's CSR index (GraphChi's shards), built on first use and
    /// shared by every later vertex job: about 16 bytes per edge held for
    /// the dataset's lifetime, instead of one build per job.
    pub fn csr(&self) -> Arc<Csr> {
        Arc::clone(self.csr.get_or_init(|| Arc::new(Csr::build(&self.graph))))
    }

    /// The deterministic synthetic dataset: `corpus_bytes` of Zipfian text
    /// and a `vertices`/`edges` power-law graph, both seeded — two hosts
    /// booted with the same arguments serve bit-identical jobs.
    pub fn synthetic(vertices: u32, edges: u64, corpus_bytes: usize, seed: u64) -> Dataset {
        Dataset::new(
            corpus(&CorpusSpec::new(corpus_bytes, seed)),
            Graph::generate(&GraphSpec::new(vertices, edges, seed)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_datasets_are_deterministic_and_cheap_to_clone() {
        let a = Dataset::synthetic(200, 800, 10_000, 42);
        let b = Dataset::synthetic(200, 800, 10_000, 42);
        assert_eq!(*a.corpus, *b.corpus);
        assert_eq!(a.graph.edges.len(), b.graph.edges.len());
        let c = a.clone();
        assert!(Arc::ptr_eq(&a.corpus, &c.corpus), "clone shares the corpus");
    }

    #[test]
    fn csr_is_built_once_and_shared_by_clones() {
        let a = Dataset::synthetic(200, 800, 1_000, 42);
        let b = a.clone();
        let first = b.csr();
        assert!(Arc::ptr_eq(&first, &a.csr()), "a clone's build is reused");
        assert_eq!(first.edges, 800);
    }
}
