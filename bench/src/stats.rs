//! Percentiles and failure accounting, done once.
//!
//! * Percentiles are nearest-rank and come back `None` ("unsupported")
//!   unless at least [`TAIL_SUPPORT`] samples lie beyond the requested
//!   rank — a p99 over 300 samples is three numbers, not a percentile.
//! * A request that fails contributes no latency sample; a 429 is a
//!   refused attempt (it counts in `failed`) *and* is retried.

/// Samples that must lie beyond a percentile's rank for it to be reported.
pub const TAIL_SUPPORT: usize = 10;

/// Nearest-rank percentile of an ascending slice, `None` when fewer than
/// [`TAIL_SUPPORT`] samples lie beyond the rank (on the far side from the
/// median).
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = if q >= 0.5 { n - rank } else { rank - 1 };
    (beyond >= TAIL_SUPPORT).then(|| sorted[rank - 1])
}

/// Median with no support requirement (mean of the two middle samples on
/// even counts); `None` only on an empty input.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Inter-quartile distance as a share of the median — the run-to-run
/// spread `compare` holds against a metric's bound. Quartiles follow
/// Python's `statistics.quantiles(values, n=4)` (exclusive method), so
/// the number matches what the acceptance driver computes. `None` with
/// fewer than two values or a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let quartile = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    };
    let m = median(&v)?;
    (m != 0.0).then(|| (quartile(3) - quartile(1)) / m.abs())
}

/// What one closed-loop connection (or the whole phase, once merged) did.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// Requests put on the wire, 429-refused attempts and retries included.
    pub attempted: u64,
    /// Non-200 answers, transport errors, and every 429 (retried or not).
    pub failed: u64,
    /// Of `failed`, the 429s.
    pub rejected_429: u64,
    /// Queries answered inside 200 read responses.
    pub queries_answered: u64,
    /// Latency of each *successful* read request, ms.
    pub read_ms: Vec<f64>,
    /// Latency of each *successful* write request, ms.
    pub write_ms: Vec<f64>,
}

/// How a single attempt ended, as the accounting sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attempt {
    Ok,
    /// 429: refused by admission control — counted as failed, then retried.
    Refused,
    /// Any other status, or a transport error — counted, not retried.
    Error,
}

impl Outcome {
    /// Account one attempt of a read request carrying `queries` queries.
    pub fn read(&mut self, how: Attempt, queries: u64, latency_ms: f64) {
        self.attempt(how);
        if how == Attempt::Ok {
            self.queries_answered += queries;
            self.read_ms.push(latency_ms);
        }
    }

    /// Account one attempt of a write request.
    pub fn write(&mut self, how: Attempt, latency_ms: f64) {
        self.attempt(how);
        if how == Attempt::Ok {
            self.write_ms.push(latency_ms);
        }
    }

    fn attempt(&mut self, how: Attempt) {
        self.attempted += 1;
        match how {
            Attempt::Ok => {}
            Attempt::Refused => {
                self.failed += 1;
                self.rejected_429 += 1;
            }
            Attempt::Error => self.failed += 1,
        }
    }

    pub fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.rejected_429 += other.rejected_429;
        self.queries_answered += other.queries_answered;
        self.read_ms.extend(other.read_ms);
        self.write_ms.extend(other.write_ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ramp(1000);
        assert_eq!(percentile(&v, 0.50), Some(500.0));
        assert_eq!(percentile(&v, 0.95), Some(950.0));
        assert_eq!(percentile(&v, 0.99), Some(990.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 999 samples: rank 990, 9 beyond -> unsupported
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        // p95 needs 200 samples, p50 needs 20
        assert_eq!(percentile(&ramp(199), 0.95), None);
        assert_eq!(percentile(&ramp(200), 0.95), Some(190.0));
        assert_eq!(percentile(&ramp(19), 0.50), None);
        assert_eq!(percentile(&ramp(20), 0.50), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_and_spread_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let s = spread(&ramp(10)).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{s}");
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert!((spread(&ramp(3)).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[1.0]), None);
    }

    #[test]
    fn a_429_is_a_failed_attempt_and_the_retry_is_another_attempt() {
        let mut o = Outcome::default();
        o.read(Attempt::Refused, 4, 0.7); // refused: no sample, no queries
        o.read(Attempt::Ok, 4, 1.5); // the retry succeeds
        assert_eq!((o.attempted, o.failed, o.rejected_429), (2, 1, 1));
        assert_eq!(o.queries_answered, 4);
        assert_eq!(o.read_ms, vec![1.5]);
    }

    #[test]
    fn a_failed_request_contributes_no_latency_sample() {
        let mut o = Outcome::default();
        o.read(Attempt::Error, 4, 9.0);
        o.write(Attempt::Error, 9.0);
        o.write(Attempt::Ok, 2.0);
        assert_eq!((o.attempted, o.failed, o.rejected_429), (3, 2, 0));
        assert!(o.read_ms.is_empty());
        assert_eq!(o.write_ms, vec![2.0]);
        assert_eq!(o.queries_answered, 0);

        let mut total = Outcome::default();
        total.merge(o.clone());
        total.merge(o);
        assert_eq!((total.attempted, total.failed), (6, 4));
        assert_eq!(total.write_ms.len(), 2);
    }
}
