//! The six workloads. Names are final: later issues cite them.

/// Generator and size of a workload's graph.
#[derive(Clone, Copy, Debug)]
pub enum Model {
    /// LFR benchmark graph, mixing μ = 0.3.
    Lfr { n: usize },
    /// R-MAT with the paper's parameters, edge factor 16.
    Rmat { scale: u32 },
}

#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// One `parcom detect` process per operation.
    Batch {
        algo: &'static str,
        /// `--threads 1` (the control) instead of `--threads T`.
        single_thread: bool,
        /// Read the METIS text instead of the converted `.pcg`.
        text_input: bool,
    },
    /// One request (or edit + request) against the resident daemon.
    Serve { edits: bool },
}

pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`; the README has the long form.
    pub why: &'static str,
    model: Model,
    pub kind: Kind,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "plm-lfr-t1",
        why: "single-thread control on a community-rich graph: core move/coarsen kernels only, the executor does nothing",
        model: Model::Lfr { n: 50_000 },
        kind: Kind::Batch { algo: "plm", single_thread: true, text_input: false },
    },
    Workload {
        name: "plm-lfr-tN",
        why: "same input at T threads: strong scaling through the rayon shim's regions and the per-thread coarsening merge",
        model: Model::Lfr { n: 50_000 },
        kind: Kind::Batch { algo: "plm", single_thread: false, text_input: false },
    },
    Workload {
        name: "plm-rmat-tN",
        why: "hub-skewed degrees at T threads: where static one-chunk-per-thread splitting loses and load balancing should win",
        model: Model::Rmat { scale: 15 },
        kind: Kind::Batch { algo: "plm", single_thread: false, text_input: false },
    },
    Workload {
        name: "ingest-text-plp-tN",
        why: "12 MB METIS text into the cheap PLP detector: parse and CSR assembly dominate, PLM work does not show",
        model: Model::Lfr { n: 120_000 },
        kind: Kind::Batch { algo: "plp", single_thread: false, text_input: true },
    },
    Workload {
        name: "serve-detect",
        why: "reads against a resident graph: http, handlers, snapshot, report JSON and PLP with no parse and no rebuild",
        model: Model::Lfr { n: 120_000 },
        kind: Kind::Serve { edits: false },
    },
    Workload {
        name: "serve-edit-detect",
        why: "a 256-op edit batch then a detect: WAL append + fsync, pending-op fold and CSR rebuild beside the read path",
        model: Model::Lfr { n: 120_000 },
        kind: Kind::Serve { edits: true },
    },
];

/// T of the common protocol: `min(nproc, 4)`.
pub fn thread_count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

impl Workload {
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The instance generated; `--quick` shrinks it about 25-fold.
    pub fn model(&self, quick: bool) -> Model {
        match (self.model, quick) {
            (model, false) => model,
            (Model::Lfr { n }, true) => Model::Lfr { n: n / 25 },
            (Model::Rmat { scale }, true) => Model::Rmat { scale: scale - 5 },
        }
    }

    /// Modularity below this fails the operation. The quick instances are
    /// too small for the full-size floors to mean anything.
    pub fn modularity_floor(&self, quick: bool) -> f64 {
        match (self.model, quick) {
            (Model::Lfr { .. }, false) => 0.65,
            (Model::Rmat { .. }, false) => 0.08,
            (Model::Lfr { .. }, true) => 0.4,
            (Model::Rmat { .. }, true) => 0.02,
        }
    }

    /// Threads the operation's detection runs on.
    pub fn threads(&self) -> usize {
        match self.kind {
            Kind::Batch {
                single_thread: true,
                ..
            } => 1,
            // the daemon has no thread flag: it uses every core
            Kind::Serve { .. } => std::thread::available_parallelism().map_or(1, |n| n.get()),
            Kind::Batch { .. } => thread_count(),
        }
    }

    /// The detector the operation runs; the serve workloads request PLP.
    pub fn algo(&self) -> &'static str {
        match self.kind {
            Kind::Batch { algo, .. } => algo,
            Kind::Serve { .. } => "plp",
        }
    }

    /// The detector spec of the operation, as `DetectorSpec::parse` and the
    /// daemon's `"spec"` field read it.
    pub fn spec(&self, seed: u64) -> String {
        format!("{}:seed={seed}", self.algo())
    }
}
