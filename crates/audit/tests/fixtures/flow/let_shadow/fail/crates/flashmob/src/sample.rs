// The initializer of `let stage: Ready = stage.ready()` reads the
// parameter `stage: Raw`, so it calls `Raw::ready`, which panics; the
// new type, `Ready`, holds only from the statement's end.
pub struct Raw {
    left: u64,
}

pub struct Ready {
    left: u64,
}

impl Raw {
    pub fn ready(self) -> Ready {
        assert!(self.left > 0, "nothing to ready");
        Ready { left: self.left }
    }
}

impl Ready {
    pub fn ready(self) -> Ready {
        self
    }
}

pub fn sample_partition(stage: Raw) -> u64 {
    let stage: Ready = stage.ready();
    stage.left
}
