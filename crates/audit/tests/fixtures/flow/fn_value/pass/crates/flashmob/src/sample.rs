// `halve`, `third` and `quarter` are panicking workspace fns, but here
// each name is a binding — a `let` closure, a fn parameter, a match
// arm's pattern, a tuple `let` pattern, a closure parameter — or a
// field, where a fn value could stand.
pub struct Cuts {
    quarter: u64,
}

pub fn sample_partition(left: u64, third: Option<u64>, cuts: &Cuts) -> u64 {
    let halve = |x: u64| x + 1;
    let split = match third {
        Some(third) => third,
        None => cuts.quarter,
    };
    let (kept, quarter) = (apply(left, halve), split);
    let sum = [kept, quarter].iter().map(|&quarter| apply(quarter, halve)).sum::<u64>();
    let cuts = Cuts { quarter: sum };
    apply(cuts.quarter, halve)
}

fn apply(left: u64, f: impl Fn(u64) -> u64) -> u64 {
    f(left)
}

pub fn halve(left: u64) -> u64 {
    assert!(left > 1, "nothing to halve");
    left / 2
}

pub fn third(left: u64) -> u64 {
    assert!(left > 2, "nothing to split");
    left / 3
}

pub fn quarter(left: u64) -> u64 {
    assert!(left > 3, "nothing to cut");
    left / 4
}
