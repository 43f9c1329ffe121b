// `pick::<u64>(..)` and `.peek::<u64>(..)` are calls: both reach a
// panic site.
pub struct Buffer {
    slots: Vec<u64>,
}

impl Buffer {
    pub fn peek<T: From<u64>>(&self, cursor: usize) -> T {
        T::from(*self.slots.get(cursor).expect("cursor in range"))
    }
}

pub fn sample_partition(buf: &Buffer, slots: &[u64], cursor: usize) -> u64 {
    pick::<u64>(slots, cursor) + buf.peek::<u64>(cursor)
}

fn pick<T: Copy>(slots: &[T], cursor: usize) -> T {
    *slots.get(cursor).unwrap()
}
