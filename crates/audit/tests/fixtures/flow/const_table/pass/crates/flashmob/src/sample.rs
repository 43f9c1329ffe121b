// The root names `SETTERS`, whose setters are calm; `STRICT` calls the
// panicking `halve`, but nothing the root reaches names it.  A field of
// the same name is not the item.
type Setter = fn(u64) -> u64;

const SETTERS: &[(&str, Setter)] = &[("--keep", |x| x), ("--double", |x| double(x))];

const STRICT: &[(&str, Setter)] = &[("--halve", |x| halve(x))];

pub struct Flags {
    pub STRICT: usize,
}

pub fn sample_partition(flags: &Flags, left: u64) -> u64 {
    (SETTERS[flags.STRICT].1)(left)
}

pub fn strict(left: u64) -> u64 {
    (STRICT[0].1)(left)
}

fn double(left: u64) -> u64 {
    left.wrapping_mul(2)
}

fn halve(left: u64) -> u64 {
    assert!(left % 2 == 0, "odd");
    left / 2
}
