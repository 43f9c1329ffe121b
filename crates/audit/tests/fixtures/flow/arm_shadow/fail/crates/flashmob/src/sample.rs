// `stage` in the `if let` block and in the `Some` arm is the `Raw` the
// pattern binds, not the parameter's `Ready`: `stage.finish()` and
// `stage.settle()` there call `Raw`'s, which panic.  A pattern states no
// type, so the calls reach every method of their names.
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
    pub fn finish(self) -> u64 {
        self.left
    }

    pub fn settle(self) -> u64 {
        self.left
    }
}

pub fn sample_partition(stage: Ready, pending: Option<Raw>, queued: Option<Raw>) -> u64 {
    let first = if let Some(stage) = pending { stage.finish() } else { 0 };
    let second = match queued {
        None => 0,
        Some(stage) => stage.settle(),
    };
    first + second + stage.left
}
