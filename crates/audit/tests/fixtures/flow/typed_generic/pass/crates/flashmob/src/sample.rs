// `P: Probe` and `where Q: Probe` bound the receivers: `step` reaches
// the impls of `Probe` alone, none of which panics.  `Engine::step`
// does, and bare-name resolution would wire both calls to it.
pub trait Probe {
    fn step(&mut self) {}
}

pub struct Null;

impl Probe for Null {}

pub struct Counter {
    steps: u64,
}

impl Probe for Counter {
    fn step(&mut self) {
        self.steps = self.steps.wrapping_add(1);
    }
}

pub struct Engine {
    programs: u32,
}

impl Engine {
    pub fn step(&self) -> u32 {
        assert!(self.programs < 3, "program outside the engine's catalogue");
        self.programs
    }
}

pub fn sample_partition<P: Probe>(probe: &mut P) {
    probe.step();
}

pub fn sample_partition_bounded<Q>(probe: &mut Q)
where
    Q: Probe,
{
    probe.step();
}
