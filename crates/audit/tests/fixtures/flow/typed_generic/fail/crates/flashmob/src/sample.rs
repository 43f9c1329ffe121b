// `P: Probe` and `where Q: Probe` bound the receivers: `step` reaches
// every impl of `Probe`, and `Sim::step` panics.
pub trait Probe {
    fn step(&mut self);
}

pub struct Sim {
    steps: u64,
}

impl Probe for Sim {
    fn step(&mut self) {
        assert!(self.steps < u64::MAX, "step counter overflow");
        self.steps += 1;
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
