// The block's `snapshot` closure ends with its braces, so the second
// `snapshot(..)` is the free fn, which panics.  A binding is not in
// scope in its own initializer: `let pick = pick(..)` calls the fn.
pub fn sample_partition(left: u64) -> u64 {
    let inner = {
        let snapshot = |x: u64| x + 1;
        snapshot(left)
    };
    let pick = pick(left);
    inner + snapshot(left) + pick
}

fn snapshot(left: u64) -> u64 {
    assert!(left > 0, "nothing to snapshot");
    left
}

fn pick(left: u64) -> u64 {
    assert!(left > 1, "nothing to pick");
    left
}
