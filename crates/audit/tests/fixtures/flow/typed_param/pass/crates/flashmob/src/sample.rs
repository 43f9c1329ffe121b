// Each parameter's stated type names the `pick` it reaches; none of
// those panic.  `Decoy::pick` does, and bare-name resolution would
// wire every call to it.
pub struct ByValue(u64);
pub struct ByRef(u64);
pub struct ByMut(u64);
pub struct Decoy(u64);

impl ByValue {
    pub fn pick(self) -> u64 {
        self.0
    }
}

impl ByRef {
    pub fn pick(&self) -> u64 {
        self.0
    }
}

impl ByMut {
    pub fn pick(&mut self) -> u64 {
        self.0 += 1;
        self.0
    }
}

impl Decoy {
    pub fn pick(&self) -> u64 {
        panic!("never reached from the sample loop")
    }
}

pub fn sample_partition(a: ByValue, b: &ByRef, mut c: &mut ByMut) -> u64 {
    a.pick() + b.pick() + c.pick()
}
