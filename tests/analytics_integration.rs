//! Integration of the degree-assortativity analytic (a Table I companion)
//! with the generators.

use parcom::generators::{barabasi_albert, lfr, LfrParams};
use parcom::graph::assortativity::degree_assortativity;

#[test]
fn assortativity_separates_categories() {
    let ba = degree_assortativity(&barabasi_albert(3000, 2, 7)).unwrap();
    let (lfr_g, _) = lfr(LfrParams::benchmark(3000, 0.3), 7);
    let lf = degree_assortativity(&lfr_g).unwrap();
    // BA is disassortative; configuration-model LFR is near neutral
    assert!(ba < lf + 0.05, "BA {ba} vs LFR {lf}");
    assert!(ba < 0.05);
    assert!(lf.abs() < 0.3);
}
