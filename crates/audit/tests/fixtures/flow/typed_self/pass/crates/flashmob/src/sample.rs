// `self` is the impl type: `self.pick` is `Hot::pick` alone.  By bare
// name it would also reach `Cold::pick`, which panics.
pub struct Hot {
    slots: Vec<u64>,
}

impl Hot {
    pub fn sample_partition(&self, cursor: usize) -> u64 {
        self.pick(cursor)
    }

    fn pick(&self, cursor: usize) -> u64 {
        self.slots.get(cursor).copied().unwrap_or(0)
    }
}

pub struct Cold {
    slots: Vec<u64>,
}

impl Cold {
    pub fn pick(&self, cursor: usize) -> u64 {
        assert!(cursor < self.slots.len(), "cursor in range");
        self.slots[cursor]
    }
}
