// Each panicking fn is handed on by value, never called by name here:
// `apply` gets `halve` as an argument, a match arm picks `third` (by
// turbofish), and a `let` binds `quarter`.  Whoever holds them calls.
pub fn sample_partition(left: u64) -> u64 {
    let split = match left {
        0 => third::<1>,
        _ => third::<3>,
    };
    let cut = quarter;
    apply(left, halve) + split(left) + cut(left)
}

fn apply(left: u64, f: impl Fn(u64) -> u64) -> u64 {
    f(left)
}

fn halve(left: u64) -> u64 {
    assert!(left > 1, "nothing to halve");
    left / 2
}

fn third<const N: u64>(left: u64) -> u64 {
    assert!(left > N, "nothing to split");
    left / 3
}

fn quarter(left: u64) -> u64 {
    assert!(left > 3, "nothing to cut");
    left / 4
}
