// Type aliases in every position the item parser meets them: none is a
// fn, whatever `fn` type it names, and the items after each still
// parse with their own names and bodies.
type Setter<A> = fn(&mut A, &mut Cursor) -> Result<(), ParseError>;
pub type Table<A> = [(&'static str, Setter<A>)];
type Sized4 = [u8; 4];
pub(crate) type Hook = fn(u64) -> [u8; 4];

pub fn apply(x: &mut u64, c: &mut Cursor) -> Result<(), ParseError> {
    set(x, c)
}

trait Walk {
    type Step: Copy;
    type Pick = fn() -> u64;
    fn step(&self) -> Self::Step;
}

impl Walk for u64 {
    type Step = fn(u64) -> u64;
    fn step(&self) -> Self::Step {
        halve
    }
}

fn halve(x: u64) -> u64 {
    x / 2
}
