// The golden workspace's one root file for the unreachable-pub census.
fn main() {
    let xs = [1u64, 2];
    assert!(xs.iter().all(golden::as_pointer));
}
