//! Walker's alias method for O(1) weighted discrete sampling.
//!
//! Used for static weighted transition probabilities: after an O(n)
//! construction over a vertex's edge weights, every draw costs one random
//! number, one table lookup, and one comparison.

use crate::Rng64;

/// A precomputed alias table over `n` weighted outcomes.
///
/// # Examples
///
/// ```
/// use fm_rng::{AliasTable, Rng64, Xorshift64Star};
///
/// let table = AliasTable::new(&[1.0, 2.0, 1.0]).unwrap();
/// let mut rng = Xorshift64Star::new(1);
/// let idx = table.sample(&mut rng);
/// assert!(idx < 3);
/// ```
#[derive(Debug, Clone)]
pub struct AliasTable {
    /// Acceptance probability of each slot, scaled so that a uniform draw
    /// in `[0, 1)` accepts when below it.
    prob: Vec<f64>,
    /// Alias outcome used when the slot's own outcome is rejected.
    alias: Vec<u32>,
}

/// Errors from alias-table construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AliasError {
    /// The weight slice was empty.
    Empty,
    /// A weight was negative, NaN, or infinite.
    InvalidWeight,
    /// All weights were zero.
    ZeroTotal,
    /// More than `u32::MAX` outcomes.
    TooLarge,
}

impl std::fmt::Display for AliasError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AliasError::Empty => write!(f, "alias table needs at least one weight"),
            AliasError::InvalidWeight => write!(f, "weights must be finite and non-negative"),
            AliasError::ZeroTotal => write!(f, "total weight must be positive"),
            AliasError::TooLarge => write!(f, "alias table limited to u32::MAX outcomes"),
        }
    }
}

impl std::error::Error for AliasError {}

impl AliasTable {
    /// Builds an alias table from non-negative weights using Vose's
    /// numerically stable two-worklist construction.
    pub fn new(weights: &[f64]) -> Result<Self, AliasError> {
        let n = weights.len();
        if n == 0 {
            return Err(AliasError::Empty);
        }
        if n > u32::MAX as usize {
            return Err(AliasError::TooLarge);
        }
        let mut total = 0.0f64;
        for &w in weights {
            if !w.is_finite() || w < 0.0 {
                return Err(AliasError::InvalidWeight);
            }
            total += w;
        }
        if total <= 0.0 {
            return Err(AliasError::ZeroTotal);
        }

        let scale = n as f64 / total;
        let mut prob: Vec<f64> = weights.iter().map(|&w| w * scale).collect();
        let mut alias = vec![0u32; n];

        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }

        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s as usize] = l;
            // Donate the slack of slot `s` from slot `l`'s mass.
            prob[l as usize] = (prob[l as usize] + prob[s as usize]) - 1.0;
            if prob[l as usize] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Remaining entries are exactly 1 up to rounding.
        for &i in small.iter().chain(large.iter()) {
            prob[i as usize] = 1.0;
        }

        Ok(Self { prob, alias })
    }

    /// Builds a table for a uniform distribution over `n` outcomes.
    pub fn uniform(n: usize) -> Result<Self, AliasError> {
        if n == 0 {
            return Err(AliasError::Empty);
        }
        if n > u32::MAX as usize {
            return Err(AliasError::TooLarge);
        }
        Ok(Self {
            prob: vec![1.0; n],
            alias: vec![0; n],
        })
    }

    /// Hands over the table's rows: slot `i`'s acceptance probability
    /// and its alias outcome, for callers that lay many tables out flat.
    pub fn into_rows(self) -> (Vec<f64>, Vec<u32>) {
        (self.prob, self.alias)
    }

    /// Number of outcomes.
    #[inline]
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Returns `true` when the table has no outcomes (never constructible).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws one outcome index in O(1).
    #[inline]
    pub fn sample<R: Rng64>(&self, rng: &mut R) -> usize {
        let i = rng.gen_index(self.prob.len());
        // SAFETY-free fast path: `i` is in-bounds by construction of
        // `gen_index`; use checked indexing anyway (bounds check is
        // branch-predicted away in the hot loop).
        if rng.next_f64() < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }

    /// Approximate heap footprint in bytes (used by the planner to size
    /// partition working sets).
    #[inline]
    pub fn footprint_bytes(&self) -> usize {
        self.prob.len() * (std::mem::size_of::<f64>() + std::mem::size_of::<u32>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Xorshift64Star;

    fn empirical(table: &AliasTable, draws: usize, seed: u64) -> Vec<f64> {
        let mut rng = Xorshift64Star::new(seed);
        let mut counts = vec![0usize; table.len()];
        for _ in 0..draws {
            counts[table.sample(&mut rng)] += 1;
        }
        counts.iter().map(|&c| c as f64 / draws as f64).collect()
    }

    #[test]
    fn matches_target_distribution() {
        let weights = [1.0, 2.0, 3.0, 4.0];
        let table = AliasTable::new(&weights).unwrap();
        let freq = empirical(&table, 400_000, 11);
        for (i, &w) in weights.iter().enumerate() {
            let target = w / 10.0;
            assert!(
                (freq[i] - target).abs() < 0.01,
                "outcome {i}: {} vs {target}",
                freq[i]
            );
        }
    }

    #[test]
    fn handles_zero_weight_outcomes() {
        let table = AliasTable::new(&[0.0, 1.0, 0.0, 1.0]).unwrap();
        let freq = empirical(&table, 100_000, 3);
        assert_eq!(freq[0], 0.0);
        assert_eq!(freq[2], 0.0);
        assert!((freq[1] - 0.5).abs() < 0.02);
    }

    #[test]
    fn single_outcome_always_wins() {
        let table = AliasTable::new(&[42.0]).unwrap();
        let mut rng = Xorshift64Star::new(5);
        for _ in 0..100 {
            assert_eq!(table.sample(&mut rng), 0);
        }
    }

    #[test]
    fn uniform_constructor_is_uniform() {
        let table = AliasTable::uniform(8).unwrap();
        let freq = empirical(&table, 160_000, 17);
        for &f in &freq {
            assert!((f - 0.125).abs() < 0.01);
        }
    }

    #[test]
    fn highly_skewed_weights() {
        let table = AliasTable::new(&[1e-9, 1.0]).unwrap();
        let freq = empirical(&table, 100_000, 23);
        assert!(freq[1] > 0.999);
    }

    #[test]
    fn rejects_bad_input() {
        assert_eq!(AliasTable::new(&[]).unwrap_err(), AliasError::Empty);
        assert_eq!(
            AliasTable::new(&[1.0, -1.0]).unwrap_err(),
            AliasError::InvalidWeight
        );
        assert_eq!(
            AliasTable::new(&[f64::NAN]).unwrap_err(),
            AliasError::InvalidWeight
        );
        assert_eq!(
            AliasTable::new(&[0.0, 0.0]).unwrap_err(),
            AliasError::ZeroTotal
        );
    }
}
