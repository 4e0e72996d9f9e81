//! The benchmark's own judge of the program's outputs: an edge list parsed
//! from the generated METIS text, modularity recomputed from it, partition
//! validity, and a shadow edge set that tracks the edit workload. Nothing
//! here calls `parcom_core::quality` or `parcom_io`, so a bug there cannot
//! vouch for itself. Everything runs outside the timed interval.

use std::collections::HashSet;

pub type Edge = (u32, u32);

/// An undirected, unweighted simple graph as a list of `u <= v` edges.
pub struct EdgeList {
    pub n: usize,
    pub edges: Vec<Edge>,
}

/// Parses unweighted METIS text: header `n m`, then line `i` lists the
/// 1-based neighbours of node `i`. The benchmark only ever generates this
/// dialect; anything else (weights, comments) is an error, not a guess.
pub fn parse_metis(text: &str) -> Result<EdgeList, String> {
    let mut lines = text.lines();
    let header: Vec<usize> = lines
        .next()
        .ok_or("empty METIS file")?
        .split_ascii_whitespace()
        .map(|t| t.parse().map_err(|_| format!("bad header token `{t}`")))
        .collect::<Result<_, _>>()?;
    let [n, m] = header[..] else {
        return Err("expected an unweighted `n m` header".into());
    };
    let mut edges = Vec::with_capacity(m);
    for (u, line) in lines.take(n).enumerate() {
        for token in line.split_ascii_whitespace() {
            let v: usize = token
                .parse()
                .map_err(|_| format!("bad neighbour `{token}`"))?;
            if v == 0 || v > n {
                return Err(format!("neighbour {v} outside 1..={n}"));
            }
            // each edge appears in both endpoints' lines; keep it once
            if u < v {
                edges.push((u as u32, (v - 1) as u32));
            }
        }
    }
    if edges.len() != m {
        return Err(format!(
            "header claims {m} edges, body holds {}",
            edges.len()
        ));
    }
    Ok(EdgeList { n, edges })
}

/// Newman modularity of `labels` over unit-weight `edges`:
/// Σ_c [ inside_c / m − (vol_c / 2m)² ].
pub fn modularity<'a>(edges: impl IntoIterator<Item = &'a Edge>, labels: &[u32]) -> f64 {
    let bound = labels.iter().max().map_or(0, |&c| c as usize + 1);
    let mut inside = vec![0u64; bound];
    let mut volume = vec![0u64; bound];
    let mut m = 0u64;
    for &(u, v) in edges {
        let (cu, cv) = (labels[u as usize] as usize, labels[v as usize] as usize);
        m += 1;
        volume[cu] += 1;
        volume[cv] += 1;
        if cu == cv {
            inside[cu] += 1;
        }
    }
    if m == 0 {
        return 0.0;
    }
    let m = m as f64;
    (inside.iter().zip(&volume))
        .map(|(&i, &vol)| i as f64 / m - (vol as f64 / (2.0 * m)).powi(2))
        .sum()
}

/// Parses a partition file (one label per line) and checks it holds exactly
/// `n` labels.
pub fn parse_partition(text: &str, n: usize) -> Option<Vec<u32>> {
    let labels: Vec<u32> = text
        .lines()
        .map(|l| l.trim().parse().ok())
        .collect::<Option<_>>()?;
    (labels.len() == n).then_some(labels)
}

/// SplitMix64 — the benchmark's own generator, so the edit sequence
/// depends on nothing but the seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

pub const BATCH_INSERTS: usize = 192;
pub const BATCH_REMOVES: usize = 64;

/// One edit request: inserts of absent edges, removes of present ones.
pub struct EditBatch {
    pub insert: Vec<Edge>,
    pub remove: Vec<Edge>,
}

impl EditBatch {
    /// The `POST /graphs/{name}/edges` body.
    pub fn to_json(&self) -> String {
        let rows = |edges: &[Edge]| {
            let cells: Vec<String> = edges.iter().map(|(u, v)| format!("[{u},{v}]")).collect();
            cells.join(",")
        };
        format!(
            "{{\"insert\":[{}],\"remove\":[{}]}}",
            rows(&self.insert),
            rows(&self.remove)
        )
    }
}

/// What the daemon's graph must look like after every acknowledged batch.
/// `edges` and `present` hold the same set; the vector makes uniform
/// sampling of a present edge O(1).
pub struct Shadow {
    n: usize,
    edges: Vec<Edge>,
    present: HashSet<Edge>,
    rng: Rng,
}

impl Shadow {
    pub fn new(graph: EdgeList, seed: u64) -> Self {
        Self {
            n: graph.n,
            present: graph.edges.iter().copied().collect(),
            edges: graph.edges,
            rng: Rng::new(seed),
        }
    }

    pub fn node_count(&self) -> usize {
        self.n
    }

    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Draws the next batch and applies it, so `edge_count` is the count
    /// the daemon must report once it has folded the batch in. No edge is
    /// touched twice within a batch, so the outcome does not depend on the
    /// order the daemon applies the two arrays in.
    pub fn next_batch(&mut self) -> EditBatch {
        let mut batch = EditBatch {
            insert: Vec::with_capacity(BATCH_INSERTS),
            remove: Vec::with_capacity(BATCH_REMOVES),
        };
        while batch.remove.len() < BATCH_REMOVES {
            let at = self.rng.below(self.edges.len());
            let edge = self.edges.swap_remove(at);
            self.present.remove(&edge);
            batch.remove.push(edge);
        }
        while batch.insert.len() < BATCH_INSERTS {
            let (a, b) = (self.rng.below(self.n) as u32, self.rng.below(self.n) as u32);
            let edge = (a.min(b), a.max(b));
            if a != b && !batch.remove.contains(&edge) && self.present.insert(edge) {
                self.edges.push(edge);
                batch.insert.push(edge);
            }
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcom_graph::Partition;

    fn karate() -> (parcom_graph::Graph, EdgeList) {
        let (g, _) = parcom_generators::karate_club();
        let mut text = Vec::new();
        parcom_io::write_metis_to(&g, &mut text).unwrap();
        let list = parse_metis(std::str::from_utf8(&text).unwrap()).unwrap();
        (g, list)
    }

    #[test]
    fn own_modularity_agrees_with_parcom_on_karate() {
        let (g, list) = karate();
        assert_eq!((list.n, list.edges.len()), (34, 78));
        let by_parity: Vec<u32> = (0..34).map(|v| v % 2).collect();
        let by_thirds: Vec<u32> = (0..34).map(|v| v / 12).collect();
        for labels in [by_parity, by_thirds, vec![0; 34], (0..34).collect()] {
            let theirs = parcom_core::quality::modularity(&g, &Partition::from_vec(labels.clone()));
            let ours = modularity(&list.edges, &labels);
            assert!((ours - theirs).abs() < 1e-12, "{ours} vs {theirs}");
        }
        // hand-checked: two triangles joined by one edge, split at the bridge
        let two_triangles = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)];
        let q = modularity(&two_triangles, &[0, 0, 0, 1, 1, 1]);
        assert!((q - (6.0 / 7.0 - 0.5)).abs() < 1e-12);
    }

    #[test]
    fn metis_parser_rejects_what_it_does_not_understand() {
        assert!(parse_metis("3 2\n2 3\n1\n1\n").is_ok());
        assert!(
            parse_metis("3 2 1\n2 5 3 5\n1 5\n1 5\n").is_err(),
            "weighted"
        );
        assert!(parse_metis("3 3\n2 3\n1\n1\n").is_err(), "edge count");
        assert!(parse_metis("3 2\n2 4\n1\n1\n").is_err(), "range");
        assert!(parse_metis("").is_err());
    }

    #[test]
    fn partition_needs_exactly_n_labels() {
        assert_eq!(parse_partition("0\n0\n2\n", 3), Some(vec![0, 0, 2]));
        assert_eq!(parse_partition("0\n0\n", 3), None);
        assert_eq!(parse_partition("0\n-1\n2\n", 3), None);
        assert_eq!(parse_partition("0\nx\n2\n", 3), None);
    }

    #[test]
    fn edit_sequence_is_a_function_of_the_seed() {
        let batches = |seed| {
            let (_, list) = karate();
            let mut shadow = Shadow::new(list, seed);
            let bodies: Vec<String> = (0..3).map(|_| shadow.next_batch().to_json()).collect();
            (bodies, shadow.edge_count())
        };
        assert_eq!(batches(7), batches(7));
        assert_ne!(batches(7).0, batches(8).0);
        assert_eq!(batches(7).1, 78 + 3 * (BATCH_INSERTS - BATCH_REMOVES));
    }

    #[test]
    fn batches_insert_absent_and_remove_present_edges() {
        let (_, list) = karate();
        let before: HashSet<Edge> = list.edges.iter().copied().collect();
        let mut shadow = Shadow::new(list, 1);
        let batch = shadow.next_batch();
        assert_eq!(batch.remove.len(), BATCH_REMOVES);
        assert_eq!(batch.insert.len(), BATCH_INSERTS);
        assert!(batch.remove.iter().all(|e| before.contains(e)));
        assert!(batch
            .insert
            .iter()
            .all(|e| !before.contains(e) && e.0 < e.1));
        let after: HashSet<Edge> = shadow.edges().iter().copied().collect();
        assert_eq!(after.len(), shadow.edge_count(), "no duplicates");
    }
}
