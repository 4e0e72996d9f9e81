//! Differential test of the carried community aggregates: one resident
//! graph takes a few hundred edit batches, each folded and followed by a
//! warm PLP detect through the request handler. After every fold the warm
//! slot's aggregates — patched, never rescanned — must equal a scan of the
//! new CSR, and after every detect the reported modularity and the slot's
//! new aggregates must equal a scan of the answer. On integer weights every
//! sum is exact, so equality is bit for bit; on weights that are not
//! dyadic fractions the carried sums may differ from the scan's in the
//! last bits, within a relative 1e-9. The detects run on two threads, so
//! the movers each run records come from racing workers (the T = 1 half,
//! against the O(n) compare the record replaced, is in `plp.rs`).

use parcom_core::quality::{
    community_aggregates, modularity_gamma, start_label, CommunityAggregates,
};
use parcom_core::CancelToken;
use parcom_generators::{lfr, LfrParams};
use parcom_graph::parallel::with_threads;
use parcom_graph::{Graph, Node, Partition};
use parcom_obs::json::{self, Value};
use parcom_serve::handlers;
use parcom_serve::store::{lock_entry, EdgeOp, GraphStore};

/// xorshift64*: the serve crate has no `rand` dev-dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// How carried values are held against scanned ones.
#[derive(Clone, Copy)]
enum Exactness {
    Bits,
    Relative(f64),
}

impl Exactness {
    fn check(self, got: f64, want: f64, what: &str) {
        match self {
            Exactness::Bits => assert_eq!(got.to_bits(), want.to_bits(), "{what}: {got} vs {want}"),
            Exactness::Relative(tol) => assert!(
                (got - want).abs() <= tol * want.abs().max(1.0),
                "{what}: {got} vs {want}"
            ),
        }
    }

    fn check_all(self, got: &CommunityAggregates, want: &CommunityAggregates, what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: communities");
        for c in 0..want.len() {
            self.check(
                got.intra_weight[c],
                want.intra_weight[c],
                &format!("{what}: ω({c})"),
            );
            self.check(got.volume[c], want.volume[c], &format!("{what}: vol({c})"));
        }
    }
}

/// One batch of edits in every shape a resident graph sees: inserts
/// between random nodes, removes and reweights of present edges,
/// self-loops coming (`loops` keeps their nodes), reweighted and going,
/// and — on some steps — a node stripped of every edge it has, or the
/// node range growing past a gap.
fn batch(
    rng: &mut Rng,
    g: &Graph,
    step: usize,
    loops: &mut Vec<Node>,
    weight: &(dyn Fn(&mut Rng) -> f64 + Sync),
) -> Vec<EdgeOp> {
    let n = g.node_count();
    let mut ops = Vec::new();
    let present = |rng: &mut Rng| loop {
        let u = rng.below(n) as Node;
        if let Some(&v) = g.neighbors(u).get(rng.below(g.degree(u).max(1))) {
            return (u, v);
        }
    };
    for _ in 0..6 {
        let (u, v) = (rng.below(n) as Node, rng.below(n) as Node);
        ops.push(EdgeOp::Insert(u, v, weight(rng)));
    }
    for _ in 0..3 {
        let (u, v) = present(rng);
        ops.push(EdgeOp::Remove(u, v));
        let (u, v) = present(rng);
        ops.push(EdgeOp::Insert(u, v, weight(rng)));
    }
    let u = rng.below(n) as Node;
    ops.push(EdgeOp::Insert(u, u, weight(rng)));
    loops.push(u);
    if step.is_multiple_of(3) {
        let u = loops[rng.below(loops.len())];
        ops.push(EdgeOp::Insert(u, u, weight(rng)));
        let u = loops.swap_remove(rng.below(loops.len()));
        ops.push(EdgeOp::Remove(u, u));
    }
    if step.is_multiple_of(7) {
        let loser = rng.below(n) as Node;
        ops.extend(g.neighbors(loser).iter().map(|&v| EdgeOp::Remove(loser, v)));
    }
    if step.is_multiple_of(10) {
        let far = (n + rng.below(3)) as Node;
        ops.push(EdgeOp::Insert(rng.below(n) as Node, far, weight(rng)));
    }
    ops
}

fn detect(store: &GraphStore, spec: &str) -> Value {
    let body = format!("{{\"graph\":\"g\",\"spec\":\"{spec}\",\"include_partition\":true}}");
    let (status, reply) = handlers::detect(store, body.as_bytes(), CancelToken::new());
    assert_eq!(status, 200, "{reply}");
    json::parse(&reply).unwrap()
}

fn chain(steps: usize, seed: u64, exactness: Exactness, weight: &(dyn Fn(&mut Rng) -> f64 + Sync)) {
    let spec = format!("plp:seed={seed}");
    let store = GraphStore::new();
    store.insert("g", lfr(LfrParams::benchmark(1500, 0.3), seed).0);
    let entry = store.get("g").unwrap();
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let first = detect(&store, &spec);
    assert_eq!(first.get("warm").and_then(Value::as_bool), Some(false));
    let (mut grown, mut loops) = (false, Vec::new());
    for step in 0..steps {
        let what = format!("step {step}");
        // fold: the slot's patched aggregates against a scan of the new CSR
        let (graph, base, carried) = {
            let mut e = lock_entry(&entry);
            let g = e.current().0;
            e.buffer_ops(batch(&mut rng, &g, step, &mut loops, weight));
            e.rebuild();
            let (_, start) = e.warm_start(&spec).expect("the slot survives every batch");
            (
                e.current().0,
                start.base,
                start.aggregates.expect("carried"),
            )
        };
        grown |= graph.node_count() > base.len();
        let labels = (graph.nodes()).map(|v| start_label(&base, v)).collect();
        let scanned = community_aggregates(&graph, &Partition::from_vec(labels));
        exactness.check_all(&carried, &scanned, &format!("{what}, folded"));

        // detect: the carried Q and the stored aggregates against scans
        let reply = detect(&store, &spec);
        let report = reply.get("report").unwrap();
        let counter = |key| {
            report
                .get("counters")
                .and_then(|c| c.get(key))
                .and_then(Value::as_u64)
        };
        assert_eq!(
            (counter("warm"), counter("carried")),
            (Some(1), Some(1)),
            "{what}"
        );
        let labels = reply.get("partition").and_then(Value::as_array).unwrap();
        let zeta = Partition::from_vec(labels.iter().map(|c| c.as_u64().unwrap() as u32).collect());
        assert_eq!(zeta.len(), graph.node_count(), "{what}");
        let q = report
            .get("metrics")
            .and_then(|m| m.get("modularity"))
            .and_then(Value::as_f64);
        exactness.check(
            q.unwrap(),
            modularity_gamma(&graph, &zeta, 1.0),
            &format!("{what}: Q"),
        );
        assert_eq!(
            counter("communities"),
            Some(zeta.number_of_subsets() as u64),
            "{what}"
        );
        let (_, start) = lock_entry(&entry).warm_start(&spec).unwrap();
        assert_eq!(*start.base, zeta, "{what}: the slot holds the answer");
        let stored = start.aggregates.expect("the answer's aggregates");
        exactness.check_all(
            &stored,
            &community_aggregates(&graph, &zeta),
            &format!("{what}, stored"),
        );
    }
    assert!(grown, "no batch grew the graph");
}

#[test]
fn carried_aggregates_are_the_scan_bit_for_bit_on_integer_weights() {
    // new edges weigh 1, reweights go to 2 or 3: integers, exact in f64
    with_threads(2, || {
        chain(200, 3, Exactness::Bits, &|rng| 1.0 + rng.below(3) as f64)
    });
}

#[test]
fn carried_aggregates_stay_within_1e_9_of_the_scan_on_decimal_weights() {
    // tenths are not dyadic: every sum rounds, differently in each order
    with_threads(2, || {
        chain(150, 4, Exactness::Relative(1e-9), &|rng| {
            0.1 * (1 + rng.below(29)) as f64
        })
    });
}
