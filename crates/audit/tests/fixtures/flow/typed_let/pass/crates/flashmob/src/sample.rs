// `let a: Annotated` and `let b = Literal { .. }` state the types whose
// `drain` each call reaches; neither panics.  `Decoy::drain` does, and
// bare-name resolution would wire both calls to it.
pub struct Annotated {
    left: u64,
}

pub struct Literal {
    left: u64,
}

pub struct Decoy {
    left: u64,
}

impl Annotated {
    pub fn drain(&mut self) -> u64 {
        self.left
    }
}

impl Literal {
    pub fn drain(&mut self) -> u64 {
        self.left
    }
}

impl Decoy {
    pub fn drain(&mut self) -> u64 {
        assert!(self.left > 0, "nothing to drain");
        self.left
    }
}

pub fn sample_partition(left: u64, pending: Vec<u64>) -> u64 {
    let mut a: Annotated = make(left);
    let mut b = Literal { left };
    let drained = a.drain() + b.drain();
    // Rebound to a value of unstated type: resolved by name, and `drain`
    // is a std name (an open edge).
    let mut b = pending;
    drained + b.drain(..).count() as u64
}

fn make(left: u64) -> Annotated {
    Annotated { left }
}
