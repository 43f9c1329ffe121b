// `snapshot`, `pick` and `scale` are bindings where they are called: a
// `let` closure, a closure parameter and a fn parameter.  The workspace
// fns of those names panic, and bare-name resolution would wire every
// call to them (`State::snapshot` included).
pub struct State {
    left: u64,
}

impl State {
    pub fn snapshot(&self) -> u64 {
        assert!(self.left > 0, "nothing to snapshot");
        self.left
    }
}

pub fn sample_partition(left: u64, scale: impl Fn(u64) -> u64) -> u64 {
    let snapshot = |x: u64| State { left: x }.left;
    let first = snapshot(left);
    let picked = [first, left].iter().map(|&w| apply(w, |pick: u64| pick * 2)).sum::<u64>();
    scale(picked)
}

fn apply(w: u64, pick: impl Fn(u64) -> u64) -> u64 {
    pick(w)
}

pub fn snapshot(left: u64) -> u64 {
    assert!(left > 0, "nothing to snapshot");
    left
}

pub fn pick(left: u64) -> u64 {
    assert!(left > 1, "nothing to pick");
    left
}

pub fn scale(left: u64) -> u64 {
    assert!(left > 2, "nothing to scale");
    left
}
