// `self.buffers` is a `Buffers` by its declaration: the call reaches
// `Buffers::pick`, which panics.
pub struct Buffers {
    slots: Vec<u64>,
}

impl Buffers {
    pub fn pick(&self, cursor: usize) -> u64 {
        *self.slots.get(cursor).expect("cursor in range")
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
