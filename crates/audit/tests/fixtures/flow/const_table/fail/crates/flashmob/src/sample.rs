// `SETTERS` is a const item: naming it runs what its initializer calls,
// and its second setter calls `halve`, which panics.  The `fn` type
// alias is no item of its own.
type Setter = fn(u64) -> u64;

const SETTERS: &[(&str, Setter)] = &[("--keep", |x| x), ("--halve", |x| halve(x))];

pub fn sample_partition(flag: usize, left: u64) -> u64 {
    (SETTERS[flag].1)(left)
}

fn halve(left: u64) -> u64 {
    assert!(left % 2 == 0, "odd");
    left / 2
}
