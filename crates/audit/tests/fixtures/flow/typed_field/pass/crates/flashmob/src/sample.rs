// `self.buffers` is a `Buffers` by its declaration: the call reaches
// `Buffers::pick` alone, not the panicking `Probe::pick`.
pub struct Buffers {
    slots: Vec<u64>,
}

impl Buffers {
    pub fn pick(&self, cursor: usize) -> u64 {
        self.slots.get(cursor).copied().unwrap_or(0)
    }
}

pub struct Probe {
    slots: Vec<u64>,
}

impl Probe {
    pub fn pick(&self, cursor: usize) -> u64 {
        assert!(cursor < self.slots.len(), "cursor in range");
        self.slots[cursor]
    }
}

pub struct Task {
    pub buffers: Buffers,
}

impl Task {
    pub fn sample_partition(&self, cursor: usize) -> u64 {
        self.buffers.pick(cursor)
    }
}
