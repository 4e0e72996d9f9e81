//! The LFR benchmark generator (Lancichinetti–Fortunato–Radicchi).
//!
//! LFR graphs are the established ground-truth benchmark the paper uses in
//! Fig. 8: node degrees follow a truncated power law (exponent τ1), planted
//! community sizes follow a power law (exponent τ2), and every node spends a
//! fraction μ of its degree on edges leaving its community. Detection
//! accuracy is then measured against the planted partition while μ (the
//! "noise") increases.
//!
//! This implementation follows the standard construction: sample a degree
//! sequence, split each degree into an intra- and inter-community part via
//! μ, sample community sizes until they cover `n`, assign nodes to
//! communities subject to the feasibility constraint `intra(v) ≤ |C| − 1`,
//! then realize the intra layers (per-community configuration model) and the
//! inter layer (global configuration model that forbids intra-community
//! pairs). Stub matching discards a small remainder of unmatchable stubs, so
//! realized degrees can fall slightly below their targets — the same
//! behaviour as the reference implementation's rewiring cutoff.

use crate::config_model::configuration_model_edges;
use crate::powerlaw::PowerLaw;
use parcom_graph::{Graph, GraphBuilder, Node, Partition};
use rand::{rngs::SmallRng, seq::SliceRandom, Rng, SeedableRng};

/// Parameters of the LFR benchmark.
#[derive(Clone, Copy, Debug)]
pub struct LfrParams {
    /// Number of nodes.
    pub n: usize,
    /// Mixing parameter μ ∈ [0, 1): fraction of each node's degree that
    /// leaves its community. Higher μ means harder instances.
    pub mu: f64,
    /// Degree power-law exponent τ1 (typically 2–3).
    pub degree_exponent: f64,
    /// Minimum degree.
    pub min_degree: u64,
    /// Maximum degree.
    pub max_degree: u64,
    /// Community-size power-law exponent τ2 (typically 1–2).
    pub community_exponent: f64,
    /// Minimum community size.
    pub min_community: u64,
    /// Maximum community size.
    pub max_community: u64,
}

impl LfrParams {
    /// The commonly used benchmark setting (degrees 10–50 at τ1 = 2.5,
    /// community sizes 20–100 at τ2 = 1.5), matching the "B"-style runs of
    /// the original LFR paper.
    pub fn benchmark(n: usize, mu: f64) -> Self {
        Self {
            n,
            mu,
            degree_exponent: 2.5,
            min_degree: 10,
            max_degree: 50,
            community_exponent: 1.5,
            min_community: 20,
            max_community: 100,
        }
    }
}

/// Generates an LFR graph; returns it with the planted partition.
///
/// # Examples
///
/// ```
/// use parcom_generators::{lfr, LfrParams};
///
/// let (graph, truth) = lfr(LfrParams::benchmark(1000, 0.3), 42);
/// assert_eq!(graph.node_count(), 1000);
/// assert_eq!(truth.len(), 1000);
/// assert!(truth.number_of_subsets() > 1);
/// ```
pub fn lfr(params: LfrParams, seed: u64) -> (Graph, Partition) {
    let LfrParams {
        n,
        mu,
        degree_exponent,
        min_degree,
        max_degree,
        community_exponent,
        min_community,
        max_community,
    } = params;
    assert!((0.0..1.0).contains(&mu), "mu must be in [0, 1)");
    assert!(min_degree >= 1 && min_degree <= max_degree);
    assert!(min_community >= 2 && min_community <= max_community);
    assert!(
        max_community as usize <= n,
        "max community size exceeds node count"
    );

    let mut rng = SmallRng::seed_from_u64(seed);

    // 1. Degree sequence and its intra/inter split.
    let degree_dist = PowerLaw::new(min_degree, max_degree, degree_exponent);
    let degrees = degree_dist.sample_n(&mut rng, n);
    let mut intra: Vec<u64> = degrees
        .iter()
        .map(|&d| (((1.0 - mu) * d as f64).round() as u64).min(d))
        .collect();

    // 2. Community sizes covering exactly n nodes.
    let size_dist = PowerLaw::new(min_community, max_community, community_exponent);
    let mut sizes: Vec<u64> = Vec::new();
    let mut covered = 0u64;
    while covered < n as u64 {
        let s = size_dist.sample(&mut rng);
        sizes.push(s);
        covered += s;
    }
    // trim overshoot from the last community; merge into the previous one if
    // it would fall below the minimum size
    let overshoot = covered - n as u64;
    let last = *sizes.last().unwrap();
    if last > overshoot && last - overshoot >= min_community {
        *sizes.last_mut().unwrap() -= overshoot;
    } else {
        let leftover = last - overshoot.min(last);
        sizes.pop();
        if sizes.is_empty() {
            sizes.push(n as u64);
        } else {
            // spread the remainder over existing communities
            let mut rem = leftover;
            let mut i = 0usize;
            let klen = sizes.len();
            while rem > 0 {
                sizes[i % klen] += 1;
                rem -= 1;
                i += 1;
            }
        }
        let total: u64 = sizes.iter().sum();
        debug_assert!(total <= n as u64);
        let mut rem = n as u64 - total;
        let mut i = 0usize;
        let klen = sizes.len();
        while rem > 0 {
            sizes[i % klen] += 1;
            rem -= 1;
            i += 1;
        }
    }
    debug_assert_eq!(sizes.iter().sum::<u64>(), n as u64);
    let k = sizes.len();

    // 3. Assign nodes to communities: random order, feasibility constraint
    //    intra(v) <= size - 1, capacity-respecting with bounded retries.
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);
    let mut capacity: Vec<u64> = sizes.clone();
    let mut open: Vec<usize> = (0..k).collect(); // communities with capacity
    let mut community_of: Vec<u32> = vec![0; n];
    for &v in &order {
        let mut placed = false;
        for _ in 0..64 {
            if open.is_empty() {
                break;
            }
            let idx = rng.gen_range(0..open.len());
            let c = open[idx];
            if intra[v] < sizes[c] {
                community_of[v] = c as u32;
                capacity[c] -= 1;
                if capacity[c] == 0 {
                    open.swap_remove(idx);
                }
                placed = true;
                break;
            }
        }
        if !placed {
            // fall back to the largest open community, clamping intra degree
            let (idx, &c) = open
                .iter()
                .enumerate()
                .max_by_key(|&(_, &c)| sizes[c])
                .expect("capacities sum to n, so an open community exists");
            community_of[v] = c as u32;
            intra[v] = intra[v].min(sizes[c] - 1);
            capacity[c] -= 1;
            if capacity[c] == 0 {
                open.swap_remove(idx);
            }
        }
    }

    // 4. Intra-community layers.
    let mut members: Vec<Vec<Node>> = vec![Vec::new(); k];
    for v in 0..n {
        members[community_of[v] as usize].push(v as Node);
    }
    let mut edges: Vec<(Node, Node)> = Vec::new();
    for nodes in members.iter().take(k) {
        let degs: Vec<u64> = nodes.iter().map(|&v| intra[v as usize]).collect();
        edges.extend(configuration_model_edges(
            nodes,
            &degs,
            &mut rng,
            10,
            |_, _| false,
        ));
    }

    // 5. Inter-community layer (forbids intra pairs).
    let all_nodes: Vec<Node> = (0..n as Node).collect();
    let ext: Vec<u64> = (0..n).map(|v| degrees[v] - intra[v]).collect();
    let community_ref = &community_of;
    edges.extend(configuration_model_edges(
        &all_nodes,
        &ext,
        &mut rng,
        10,
        |u, v| community_ref[u as usize] == community_ref[v as usize],
    ));

    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for (u, v) in edges {
        b.add_unweighted_edge(u, v);
    }
    (b.build(), Partition::from_vec(community_of))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fraction of edge endpoints that leave their ground-truth community — the
    /// empirical mixing of a generated instance (should track the requested μ).
    fn empirical_mixing(g: &Graph, truth: &Partition) -> f64 {
        let mut cut = 0.0;
        let mut total = 0.0;
        g.for_edges(|u, v, w| {
            if u != v {
                total += w;
                if !truth.in_same_subset(u, v) {
                    cut += w;
                }
            }
        });
        if total == 0.0 {
            0.0
        } else {
            cut / total
        }
    }

    #[test]
    fn community_sizes_cover_all_nodes() {
        let (g, t) = lfr(LfrParams::benchmark(2000, 0.3), 1);
        assert_eq!(g.node_count(), 2000);
        assert_eq!(t.len(), 2000);
        let sizes = t.subset_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 2000);
    }

    #[test]
    fn community_sizes_mostly_within_bounds() {
        let (_, t) = lfr(LfrParams::benchmark(3000, 0.2), 2);
        let sizes: Vec<usize> = t.subset_sizes().into_iter().filter(|&s| s > 0).collect();
        // remainder spreading can push a couple of communities past max
        let within = sizes.iter().filter(|&&s| (20..=110).contains(&s)).count();
        assert!(
            within as f64 >= 0.9 * sizes.len() as f64,
            "sizes out of range: {sizes:?}"
        );
    }

    #[test]
    fn empirical_mixing_tracks_mu() {
        for &mu in &[0.1, 0.3, 0.5] {
            let (g, t) = lfr(LfrParams::benchmark(3000, mu), 3);
            let got = empirical_mixing(&g, &t);
            assert!((got - mu).abs() < 0.1, "mu target {mu}, empirical {got}");
        }
    }

    #[test]
    fn realized_degrees_close_to_targets() {
        let p = LfrParams::benchmark(2000, 0.3);
        let (g, _) = lfr(p, 4);
        let avg = 2.0 * g.edge_count() as f64 / g.node_count() as f64;
        // target average degree of PowerLaw(10, 50, 2.5) is ~16
        assert!(avg > 10.0, "too many stubs dropped: avg degree {avg}");
        assert!(g.max_degree() as u64 <= 2 * p.max_degree);
    }

    #[test]
    fn graph_is_simple() {
        let (g, _) = lfr(LfrParams::benchmark(1000, 0.4), 5);
        for u in g.nodes() {
            assert!(!g.has_edge(u, u));
        }
        assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    fn deterministic_in_seed() {
        let (a, ta) = lfr(LfrParams::benchmark(800, 0.3), 6);
        let (b, tb) = lfr(LfrParams::benchmark(800, 0.3), 6);
        assert_eq!(ta.as_slice(), tb.as_slice());
        for u in a.nodes() {
            assert_eq!(a.neighbors(u), b.neighbors(u));
        }
    }

    #[test]
    fn zero_mixing_keeps_edges_internal() {
        let (g, t) = lfr(LfrParams::benchmark(1000, 0.0), 7);
        let mixing = empirical_mixing(&g, &t);
        assert!(mixing < 0.01, "mu=0 but empirical mixing {mixing}");
    }

    #[test]
    #[should_panic(expected = "mu")]
    fn rejects_mu_one() {
        lfr(LfrParams::benchmark(100, 1.0), 0);
    }
}
