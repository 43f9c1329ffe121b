// Violates panic-reachability three times: an unwrap on the sample loop
// path; a typed receiver's `drain` — a std method name, resolved by the
// receiver's stated type — that asserts; and an asserting fn that the
// loop hands on by value, never naming it in a call.
pub fn sample_partition(slots: &[u64], cursor: usize, stage: &mut Stage) -> u64 {
    hot_pick(slots, cursor) + stage.drain() + skip_on(cursor, skip_chain)
}

fn hot_pick(slots: &[u64], cursor: usize) -> u64 {
    *slots.get(cursor).unwrap()
}

pub struct Stage {
    parked: u64,
}

impl Stage {
    pub fn drain(&mut self) -> u64 {
        assert!(self.parked > 0, "drained an empty stage");
        self.parked
    }
}

fn skip_on(n: usize, chain: impl Fn(usize) -> u64) -> u64 {
    chain(n)
}

fn skip_chain(n: usize) -> u64 {
    assert!(n > 0, "skipped an empty chain");
    n as u64
}
