// `stage` is rebound by an `if let` and by a match arm, whose blocks
// end before `stage.finish()` and `stage.settle()`: those call the
// parameter's `Ready` methods.  `Raw`'s panic, and an untyped `stage`
// past the block, or the arm's type kept, would reach them.
pub struct Raw {
    left: u64,
}

pub struct Ready {
    left: u64,
}

impl Raw {
    pub fn finish(self) -> u64 {
        assert!(self.left > 0, "finished empty");
        self.left
    }

    pub fn settle(self) -> u64 {
        assert!(self.left > 1, "settleed short");
        self.left
    }
}

impl Ready {
    pub fn finish(&self) -> u64 {
        self.left
    }

    pub fn settle(&self) -> u64 {
        self.left
    }
}

pub fn sample_partition(stage: Ready, pending: Option<u64>, queued: Option<u64>) -> u64 {
    if let Some(stage) = pending {
        return stage + 1;
    }
    let second = match queued {
        Some(stage) => stage,
        None => 0,
    };
    stage.finish() + stage.settle() + second
}
