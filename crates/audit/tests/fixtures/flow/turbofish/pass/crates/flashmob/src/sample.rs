// `pick::<u64>(..)` and `.peek::<u64>(..)` are calls to panic-free
// fns.  `Vec::<u64>::with_capacity` is std's: the qualifier past its
// turbofish is `Vec`, so the call does not fall back to the workspace's
// panicking `with_capacity`.
pub struct Buffer {
    slots: Vec<u64>,
}

impl Buffer {
    pub fn peek<T: From<u64>>(&self, cursor: usize) -> T {
        T::from(self.slots.get(cursor).copied().unwrap_or(0))
    }
}

pub fn sample_partition(buf: &Buffer, slots: &[u64], cursor: usize) -> u64 {
    let mut out = Vec::<u64>::with_capacity(2);
    out.push(pick::<u64>(slots, cursor));
    out.push(buf.peek::<u64>(cursor));
    out.iter().sum::<u64>()
}

fn pick<T: Copy + Default>(slots: &[T], cursor: usize) -> T {
    slots.get(cursor).copied().unwrap_or_default()
}

pub mod pool {
    pub fn with_capacity(n: usize) -> Vec<u64> {
        assert!(n > 0, "an empty pool");
        Vec::new()
    }
}
