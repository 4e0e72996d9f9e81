// Golden fixture workspace: a deterministic mix of violations, a
// suppressed finding, and an unused marker, whose report
// tests/golden_report.rs pins. Do not reformat casually: lines and
// columns are part of the pinned evidence. Never compiled.
static mut COUNTER: u64 = 0;

fn run_guarded(g: &Graph, budget: &Budget) {
    helper(g);
}

fn helper(g: &Graph) {
    g.nodes().par_iter().for_each(|u| work(u).unwrap());
}

fn sizes(v: &[u64]) -> u32 {
    v.len() as u32 // audit:allow(lossy-cast): checked at construction
}

// audit:allow(static-mut): stale marker, suppresses nothing
fn anchor() {}

// unreachable-pub census (the root is examples/demo.rs): fires
pub fn orphan() {}

// audit:allow(unreachable-pub): the reference the census keeps on purpose
pub fn reference() {}

// reached only as a fn pointer from the root: does not fire
pub fn as_pointer(x: &u64) -> bool {
    *x > 0
}

// reached only through a `use` re-export: fires
mod inner {
    pub fn reexported_only() {}
}
pub use inner::reexported_only;
