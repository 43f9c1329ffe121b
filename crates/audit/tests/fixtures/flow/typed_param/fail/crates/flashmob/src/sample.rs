// Each parameter's stated type names the `pick` it reaches; all three
// panic.
pub struct ByValue(u64);
pub struct ByRef(u64);
pub struct ByMut(u64);

impl ByValue {
    pub fn pick(self) -> u64 {
        panic!("by value")
    }
}

impl ByRef {
    pub fn pick(&self) -> u64 {
        panic!("by reference")
    }
}

impl ByMut {
    pub fn pick(&mut self) -> u64 {
        panic!("by mutable reference")
    }
}

pub fn sample_partition(a: ByValue, b: &ByRef, mut c: &mut ByMut) -> u64 {
    a.pick() + b.pick() + c.pick()
}
