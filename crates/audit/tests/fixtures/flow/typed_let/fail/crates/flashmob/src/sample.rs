// `let a: Annotated` and `let b = Literal { .. }` state the types whose
// `drain` each call reaches; both panic.
pub struct Annotated {
    left: u64,
}

pub struct Literal {
    left: u64,
}

impl Annotated {
    pub fn drain(&mut self) -> u64 {
        assert!(self.left > 0, "nothing to drain");
        self.left
    }
}

impl Literal {
    pub fn drain(&mut self) -> u64 {
        assert!(self.left > 0, "nothing to drain");
        self.left
    }
}

pub fn sample_partition(left: u64) -> u64 {
    let mut a: Annotated = make(left);
    let mut b = Literal { left };
    a.drain() + b.drain()
}

fn make(left: u64) -> Annotated {
    Annotated { left }
}
