// `self` is the impl type: `self.pick` is `Hot::pick`, which panics.
pub struct Hot {
    slots: Vec<u64>,
}

impl Hot {
    pub fn sample_partition(&self, cursor: usize) -> u64 {
        self.pick(cursor)
    }

    fn pick(&self, cursor: usize) -> u64 {
        *self.slots.get(cursor).expect("cursor in range")
    }
}
