//! The benchmark's own metric arithmetic: session outcomes, the
//! "at least ten samples beyond" tail rule, ratios that carry their base,
//! and derived self times. Kept free of simulator types so the rules are
//! unit-tested on their own.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Tail percentiles tried, highest first.
const TAIL_QUANTILES: [f64; 2] = [0.99, 0.90];

/// How one requested viewing session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The presentation played to its end.
    Completed,
    /// Refused before any presentation was set up (admission reject or a
    /// failed document request).
    Rejected,
    /// Failed after a presentation was set up.
    Errored,
    /// Neither completed nor failed by the end of the drain.
    Unresolved,
}

/// One requested session as the open-loop driver saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Session {
    /// How it ended.
    pub outcome: Outcome,
    /// Request (due instant) to playout start, ms; `None` if playout never
    /// started.
    pub startup_ms: Option<f64>,
}

/// A ratio reported with its base.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub num: f64,
    /// Denominator (the base).
    pub base: f64,
}

impl Ratio {
    /// `num / base`, or 0 for an empty base.
    pub fn value(self) -> f64 {
        if self.base > 0.0 {
            self.num / self.base
        } else {
            0.0
        }
    }
}

/// A reported percentile: which quantile, its value and how many samples
/// lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Quantile in (0, 1].
    pub q: f64,
    /// Sample value at that quantile.
    pub value: f64,
    /// Samples ranked above it.
    pub beyond: usize,
}

/// Nearest-rank quantile of an ascending sample set, with the number of
/// samples ranked beyond it. `None` for an empty set.
pub fn quantile(sorted: &[f64], q: f64) -> Option<Tail> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Tail {
        q,
        value: sorted[rank - 1],
        beyond: n - rank,
    })
}

/// The highest of p99 and p90 that has at least [`TAIL_MIN_BEYOND`]
/// samples beyond it; the maximum (with nothing beyond) when the set is
/// too small for either.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    TAIL_QUANTILES
        .iter()
        .filter_map(|&q| quantile(sorted, q))
        .find(|t| t.beyond >= TAIL_MIN_BEYOND)
        .or_else(|| quantile(sorted, 1.0))
}

/// Session-level QoS summary of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSummary {
    /// Sessions requested (arrivals issued).
    pub requested: usize,
    /// Sessions whose playout started.
    pub started: usize,
    /// Per-outcome counts.
    pub completed: usize,
    /// See [`Outcome::Rejected`].
    pub rejected: usize,
    /// See [`Outcome::Errored`].
    pub errored: usize,
    /// See [`Outcome::Unresolved`].
    pub unresolved: usize,
    /// Median startup over started sessions, ms.
    pub startup_p50: Option<Tail>,
    /// Tail startup over started sessions, ms (rule of [`tail`]).
    pub startup_tail: Option<Tail>,
    /// Sessions not playing within the startup limit; failed and
    /// unresolved sessions always count.
    pub slo_miss: Ratio,
    /// (rejected + errored + unresolved) / requested.
    pub fail: Ratio,
}

/// Summarize sessions against a startup limit of `slo_ms`.
pub fn summarize(sessions: &[Session], slo_ms: f64) -> SessionSummary {
    let count = |o: Outcome| sessions.iter().filter(|s| s.outcome == o).count();
    let mut startups: Vec<f64> = sessions.iter().filter_map(|s| s.startup_ms).collect();
    startups.sort_by(f64::total_cmp);
    let failed = sessions
        .iter()
        .filter(|s| s.outcome != Outcome::Completed)
        .count();
    let missed = sessions
        .iter()
        .filter(|s| s.outcome != Outcome::Completed || s.startup_ms.is_none_or(|ms| ms > slo_ms))
        .count();
    let requested = sessions.len() as f64;
    SessionSummary {
        requested: sessions.len(),
        started: startups.len(),
        completed: count(Outcome::Completed),
        rejected: count(Outcome::Rejected),
        errored: count(Outcome::Errored),
        unresolved: count(Outcome::Unresolved),
        startup_p50: quantile(&startups, 0.5),
        startup_tail: tail(&startups),
        slo_miss: Ratio {
            num: missed as f64,
            base: requested,
        },
        fail: Ratio {
            num: failed as f64,
            base: requested,
        },
    }
}

/// A layer's self time: its total minus the parts its children cover,
/// never below zero (children timed with separate clock reads can sum to
/// a hair more than the parent).
pub fn self_time(total_s: f64, children_s: &[f64]) -> f64 {
    (total_s - children_s.iter().sum::<f64>()).max(0.0)
}

/// Median of a sample set (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_takes_p99_when_ten_samples_lie_beyond_it() {
        let t = tail(&ramp(1_100)).unwrap();
        assert_eq!(t.q, 0.99);
        assert_eq!(t.value, 1_089.0);
        assert_eq!(t.beyond, 11);
    }

    #[test]
    fn tail_falls_back_to_p90_below_a_thousand_samples() {
        // p99 of 500 has only 5 beyond it.
        let t = tail(&ramp(500)).unwrap();
        assert_eq!(t.q, 0.90);
        assert_eq!(t.value, 450.0);
        assert_eq!(t.beyond, 50);
        // Exactly ten beyond p99 qualifies.
        let t = tail(&ramp(1_000)).unwrap();
        assert_eq!((t.q, t.beyond), (0.99, 10));
    }

    #[test]
    fn tail_of_a_tiny_set_is_its_maximum() {
        let t = tail(&ramp(50)).unwrap();
        assert_eq!((t.q, t.value, t.beyond), (1.0, 50.0, 0));
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn failed_and_unresolved_sessions_miss_the_slo_and_count_as_failures() {
        let s = |outcome, startup_ms| Session {
            outcome,
            startup_ms,
        };
        let sessions = [
            s(Outcome::Completed, Some(900.0)),
            s(Outcome::Completed, Some(3_500.0)),
            s(Outcome::Rejected, None),
            s(Outcome::Errored, Some(800.0)),
            s(Outcome::Unresolved, Some(700.0)),
        ];
        let sum = summarize(&sessions, 3_000.0);
        assert_eq!(sum.requested, 5);
        assert_eq!(sum.started, 4);
        assert_eq!(
            (sum.completed, sum.rejected, sum.errored, sum.unresolved),
            (2, 1, 1, 1)
        );
        // Only the first session played within 3 s and finished.
        assert_eq!(
            sum.slo_miss,
            Ratio {
                num: 4.0,
                base: 5.0
            }
        );
        assert_eq!(
            sum.fail,
            Ratio {
                num: 3.0,
                base: 5.0
            }
        );
        assert_eq!(sum.startup_p50.unwrap().value, 800.0);
    }

    #[test]
    fn ratios_carry_their_base() {
        let r = Ratio {
            num: 3.0,
            base: 12.0,
        };
        assert_eq!(r.value(), 0.25);
        assert_eq!(
            Ratio {
                num: 0.0,
                base: 0.0
            }
            .value(),
            0.0
        );
    }

    #[test]
    fn self_time_is_never_negative() {
        assert_eq!(self_time(2.0, &[0.5, 0.25]), 1.25);
        assert_eq!(self_time(1.0, &[0.6, 0.4000001]), 0.0);
        assert_eq!(self_time(0.0, &[]), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
