// Violates panic-reachability twice: an unwrap on the sample loop path,
// and a typed receiver's `drain` — a std method name, resolved by the
// receiver's stated type — that asserts.
pub fn sample_partition(slots: &[u64], cursor: usize, stage: &mut Stage) -> u64 {
    hot_pick(slots, cursor) + stage.drain()
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
