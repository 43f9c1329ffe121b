// `let stage: Raw = stage.lower()` calls `Ready::lower` (the parameter's
// type), and the `stage.finish()` after it calls `Raw::finish`.  The
// same-named methods of the other type panic: typing `stage` at the
// `let` token, or never, would reach them.
pub struct Raw {
    left: u64,
}

pub struct Ready {
    left: u64,
}

impl Raw {
    pub fn lower(self) -> Raw {
        assert!(self.left > 0, "lowered twice");
        self
    }

    pub fn finish(self) -> u64 {
        self.left
    }
}

impl Ready {
    pub fn lower(self) -> Raw {
        Raw { left: self.left }
    }

    pub fn finish(self) -> u64 {
        assert!(self.left > 0, "finished before lowering");
        self.left
    }
}

pub fn sample_partition(stage: Ready) -> u64 {
    let stage: Raw = stage.lower();
    stage.finish()
}
