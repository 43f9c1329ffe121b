//! Turning timed samples into one value per run.
//!
//! A sample is a raw time paired with the calibration time measured right
//! after it.  Its host-relative time is `raw × C_ref / calib`: seconds at
//! reference-host speed, whatever the shared host was doing around that
//! sample.  A run's value for a timing is the **median** of its
//! host-relative samples; the fastest, the slowest and the count are
//! printed beside it.
//!
//! The median, not the mean of the fastest half: the quotient is small
//! when its *calibration* was the unlucky one, so keeping the fastest
//! quotients selects exactly the samples whose denominators are wrong.
//! Over 100 back-to-back warm DeepWalk episodes cut into runs of ten,
//! the fastest-half mean of the quotients spread 6.1 % (standard
//! deviation over its mean) and their median 1.8 %; raw times spread
//! 5.5 %.  Noise hits numerator and denominator alike, and the median
//! is indifferent to which.

/// One timed sample and the calibration sample right after it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Seconds as measured.
    pub raw: f64,
    /// Seconds the adjacent calibration sample took.
    pub calib: f64,
}

impl Sample {
    /// Seconds at reference-host speed.
    pub fn host_relative(&self, calib_ref: f64) -> f64 {
        self.raw * calib_ref / self.calib
    }
}

/// What a run reports for one timing, at reference-host speed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median of the host-relative samples: the run's value.
    pub value: f64,
    pub fastest: f64,
    pub max: f64,
    pub count: usize,
    /// Median calibration time / `C_ref`: how much slower than the
    /// reference host this stretch of the run was.
    pub host_factor: f64,
}

/// Summarises the samples of one phase; `None` when there are none.
pub fn summarise(samples: &[Sample], calib_ref: f64) -> Option<Summary> {
    let relative: Vec<f64> = samples.iter().map(|s| s.host_relative(calib_ref)).collect();
    let calib: Vec<f64> = samples.iter().map(|s| s.calib).collect();
    Some(Summary {
        value: median(&relative)?,
        fastest: relative.iter().copied().fold(f64::MAX, f64::min),
        max: relative.iter().copied().fold(f64::MIN, f64::max),
        count: relative.len(),
        host_factor: median(&calib)? / calib_ref,
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    })
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default, exclusive method) gives them -- the rule the driver
/// applies to this benchmark's runs.  Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let v = sorted(values);
    let n = v.len();
    let at = |i: usize| {
        let pos = (i * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median.
pub fn iqr_over_median(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    Some((q3 - q1) / median(values)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_median_ignores_both_tails() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        // However slow the slow tail and lucky the fast one, the value
        // does not move.
        let calm = [1.0, 1.1, 1.2, 1.3, 1.4];
        let noisy = [0.2, 1.1, 1.2, 50.0, 7.0];
        assert_eq!(median(&calm), median(&noisy));
    }

    #[test]
    fn samples_are_scaled_by_the_calibrations_beside_them() {
        let sample = |raw, calib| Sample { raw, calib };
        // A quiet phase on the reference host: C_ref = 0.5 s.
        let quiet = [sample(2.0, 0.5), sample(2.0, 0.5), sample(2.0, 0.5)];
        let s = summarise(&quiet, 0.5).unwrap();
        assert_eq!(
            (s.value, s.fastest, s.max, s.count, s.host_factor),
            (2.0, 2.0, 2.0, 3, 1.0)
        );
        // The same phase on a host twice as slow: raw and calibration
        // double together and the value does not move.
        let slow = [sample(4.0, 1.0), sample(4.0, 1.0), sample(4.0, 1.0)];
        let s = summarise(&slow, 0.5).unwrap();
        assert_eq!((s.value, s.host_factor), (2.0, 2.0));
        // Each sample is paired with its own calibration: a burst that
        // slows one episode and its calibration together leaves that
        // quotient where it was, and a burst that hits only one of the
        // two lands in a tail the median ignores.
        let burst = [
            sample(3.0, 0.75),
            sample(3.5, 0.5),
            sample(2.0, 0.5),
            sample(2.0, 0.9),
            sample(2.0, 0.5),
        ];
        let s = summarise(&burst, 0.5).unwrap();
        assert_eq!((s.value, s.max, s.count), (2.0, 3.5, 5));
        assert_eq!(s.fastest, 2.0 * 0.5 / 0.9);
        // Pairing matters: the same numbers paired otherwise give
        // another value.
        let other = [sample(2.0, 1.0), sample(4.0, 0.5), sample(4.0, 0.5)];
        assert_eq!(summarise(&other, 0.5).unwrap().value, 4.0);
        assert!(summarise(&[], 0.5).is_none());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) -> [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) -> [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), Some((1.5, 12.0)));
        // statistics.quantiles([1, 2], n=4) -> [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
        assert_eq!(iqr_over_median(&ten), Some(1.0));
    }
}
