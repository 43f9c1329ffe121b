//! Walk algorithms (transition-probability specifications) and stop rules.

use crate::WalkError;

/// Maximum metapath pattern length (phases stored inline, `Copy`).
pub const MAX_METAPATH_LEN: usize = 8;

/// A fixed cyclic sequence of edge-type labels for metapath walks.
///
/// Stored inline (up to [`MAX_METAPATH_LEN`] phases) so the enum that
/// carries it stays `Copy` and can be threaded through the hot paths by
/// value, like every other algorithm parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetapathPattern {
    labels: [u8; MAX_METAPATH_LEN],
    len: u8,
}

impl MetapathPattern {
    /// Builds a pattern from a non-empty label sequence.
    ///
    /// Returns `None` when `labels` is empty or longer than
    /// [`MAX_METAPATH_LEN`].
    pub fn new(labels: &[u8]) -> Option<Self> {
        if labels.is_empty() || labels.len() > MAX_METAPATH_LEN {
            return None;
        }
        let mut buf = [0u8; MAX_METAPATH_LEN];
        buf[..labels.len()].copy_from_slice(labels);
        Some(Self {
            labels: buf,
            len: labels.len() as u8,
        })
    }

    /// Number of phases in the pattern.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Patterns are validated non-empty; this always returns `false`.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The label required at walk iteration `iter` (cyclic).
    #[inline]
    pub fn label_at(&self, iter: usize) -> u8 {
        self.labels[iter % self.len as usize]
    }

    /// The phase labels as a slice.
    #[inline]
    pub fn labels(&self) -> &[u8] {
        &self.labels[..self.len as usize]
    }
}

/// The transition-probability specification of a walk: the one
/// description of a walk, from the CLI's `--algo` name to the PS/DS/ring
/// kernels, which match on it inside their innermost loops.
///
/// The paper evaluates DeepWalk (first-order, uniform) and node2vec
/// (second-order); [`WalkAlgorithm::Weighted`] covers static per-edge
/// weights, the other classical first-order case.  The remaining
/// variants are the walk programs: personalized PageRank with restart,
/// walks that terminate on returning to their origin, and metapath
/// walks over typed edges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WalkAlgorithm {
    /// First-order uniform walk (DeepWalk).
    DeepWalk,
    /// First-order walk biased by the graph's static edge weights.
    Weighted,
    /// Second-order node2vec walk.
    ///
    /// Given previous vertex `t` and current vertex `u`, the unnormalized
    /// weight of moving to candidate `x` is `1/p` if `x == t`, `1` if
    /// `x` is adjacent to `t`, and `1/q` otherwise.  `p` interpolates
    /// toward BFS-like revisiting, `q` toward DFS-like exploration.
    Node2Vec {
        /// Return parameter.
        p: f64,
        /// In-out parameter.
        q: f64,
    },
    /// Personalized PageRank: at every step the walker teleports back to
    /// its origin with probability `alpha`, otherwise takes a uniform
    /// edge.  The origin is per-walker state (the walker's start vertex).
    Ppr {
        /// Restart probability in `(0, 1]`.
        alpha: f64,
    },
    /// Uniform walk that records its return to the origin and dies on
    /// the following iteration (temporal/early-exit family): per-walker
    /// termination driven by per-walker state.
    EarlyExit,
    /// First-order walk constrained to typed edges: at iteration `i`
    /// only edges labeled `pattern.label_at(i)` are admissible, uniform
    /// among them; a walker with no admissible edge terminates.
    Metapath {
        /// The cyclic phase pattern.
        pattern: MetapathPattern,
    },
}

impl WalkAlgorithm {
    /// Every walk, each at its default parameters (node2vec `p = q = 1`,
    /// PPR `alpha = 0.15`, metapath the two-phase `0,1` cycle), in the
    /// order the conformance lattice sweeps them.
    pub const ALL: [WalkAlgorithm; 6] = [
        WalkAlgorithm::DeepWalk,
        WalkAlgorithm::Weighted,
        WalkAlgorithm::Node2Vec { p: 1.0, q: 1.0 },
        WalkAlgorithm::Ppr { alpha: 0.15 },
        WalkAlgorithm::EarlyExit,
        WalkAlgorithm::Metapath {
            pattern: MetapathPattern {
                labels: [0, 1, 0, 0, 0, 0, 0, 0],
                len: 2,
            },
        },
    ];

    /// The walk [`WalkAlgorithm::name`] calls `name`, at its default
    /// parameters; `None` for a name no walk has.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|walk| walk.name() == name)
    }

    /// Checks the walk's parameters, for every engine before it plans or
    /// walks: node2vec's `p` and `q` must be positive and PPR's restart
    /// probability in `(0, 1]` (NaN fails both).
    pub fn check_params(&self) -> Result<(), WalkError> {
        match *self {
            WalkAlgorithm::Node2Vec { p, q } if !(p > 0.0 && q > 0.0) => Err(WalkError::Config(
                format!("node2vec p and q must be positive, got p = {p}, q = {q}"),
            )),
            WalkAlgorithm::Ppr { alpha } if !(alpha > 0.0 && alpha <= 1.0) => {
                Err(WalkError::Config(format!(
                    "ppr restart probability alpha must be in (0, 1], got {alpha}"
                )))
            }
            _ => Ok(()),
        }
    }

    /// Whether edge sampling needs the walker's previous position.
    pub fn is_second_order(&self) -> bool {
        matches!(self, WalkAlgorithm::Node2Vec { .. })
    }

    /// Whether the walker carries per-walker program state (its origin)
    /// through the shuffle stages.
    pub fn is_stateful(&self) -> bool {
        matches!(self, WalkAlgorithm::Ppr { .. } | WalkAlgorithm::EarlyExit)
    }

    /// Whether individual walkers can die before the step budget runs
    /// out, independent of any [`StopRule::Geometric`] coin.
    pub fn can_terminate_early(&self) -> bool {
        matches!(
            self,
            WalkAlgorithm::EarlyExit | WalkAlgorithm::Metapath { .. }
        )
    }

    /// Whether sampling consults the graph's per-edge type labels.
    pub fn uses_edge_labels(&self) -> bool {
        matches!(self, WalkAlgorithm::Metapath { .. })
    }

    /// Stable short name: the CLI's `--algo` spelling, and the
    /// conformance lattice's golden-table key.
    pub fn name(&self) -> &'static str {
        match self {
            WalkAlgorithm::DeepWalk => "deepwalk",
            WalkAlgorithm::Weighted => "weighted",
            WalkAlgorithm::Node2Vec { .. } => "node2vec",
            WalkAlgorithm::Ppr { .. } => "ppr",
            WalkAlgorithm::EarlyExit => "early-exit",
            WalkAlgorithm::Metapath { .. } => "metapath",
        }
    }

    /// The rejection rule of this algorithm's second-order bias; a
    /// first-order algorithm gets the trivial `p = q = 1` rule, under
    /// which every draw accepts.
    pub fn node2vec_rule(&self) -> Node2VecRule {
        match *self {
            WalkAlgorithm::Node2Vec { p, q } => Node2VecRule::new(p, q),
            _ => Node2VecRule::new(1.0, 1.0),
        }
    }
}

/// What [`Node2VecRule::verdict`] makes of one rejection draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The draw is below the candidate's weight whatever the graph says.
    Accept,
    /// The draw is at or above it whatever the graph says.
    Reject,
    /// The weight is 1 or `1/q` depending on whether the candidate is a
    /// neighbour of the previous vertex, and the draw lies between the
    /// two: only now is the connectivity probe worth its cost.
    Probe,
}

/// node2vec's rejection rule, stated once for every engine.
///
/// A proposal `cand`, drawn uniformly from the current vertex's
/// adjacency, is kept when a draw `x`, uniform in `[0, bound)`, falls
/// below its weight: `1/p` when `cand` is the previous vertex `t`, 1
/// when `cand` is adjacent to `t`, `1/q` otherwise.  Only the last two
/// need the graph, and they bracket the answer: with
/// `lo = min(1, 1/q)` and `hi = max(1, 1/q)`, `x < lo` accepts and
/// `x >= hi` rejects under either weight, so the connectivity probe
/// (a bloom query, a binary search, or out of core a scan of an
/// unsorted list) is paid only for `lo <= x < hi` — never at `q = 1`.
/// The draws consumed and the decisions taken are those of comparing
/// `x` with the looked-up weight, so every walk is bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Node2VecRule {
    /// Weight of returning to the previous vertex, `1/p`.
    pub inv_p: f64,
    /// Weight of moving to a vertex not adjacent to the previous one.
    pub inv_q: f64,
    /// The largest weight: draws are scaled to `[0, bound)`.
    pub bound: f64,
    /// The smallest weight, `min(1/p, 1, 1/q)`: a draw below it accepts
    /// every candidate.
    pub bound_min: f64,
    /// `min(1, 1/q)`: below it a candidate other than `t` accepts.
    pub lo: f64,
    /// `max(1, 1/q)`: at or above it a candidate other than `t` rejects.
    pub hi: f64,
}

impl Node2VecRule {
    /// The rule for return parameter `p` and in-out parameter `q`.
    pub fn new(p: f64, q: f64) -> Self {
        let (inv_p, inv_q) = (1.0 / p, 1.0 / q);
        Self {
            inv_p,
            inv_q,
            bound: inv_p.max(1.0).max(inv_q),
            bound_min: inv_p.min(1.0).min(inv_q),
            lo: inv_q.min(1.0),
            hi: inv_q.max(1.0),
        }
    }

    /// Classifies the scaled draw `x` for a candidate that is
    /// (`is_return`) or is not the previous vertex.
    #[inline(always)]
    pub fn verdict(&self, x: f64, is_return: bool) -> Verdict {
        let (lo, hi) = if is_return {
            (self.inv_p, self.inv_p)
        } else {
            (self.lo, self.hi)
        };
        if x < lo {
            Verdict::Accept
        } else if x < hi {
            Verdict::Probe
        } else {
            Verdict::Reject
        }
    }

    /// Whether draw `x` keeps the candidate: [`Node2VecRule::verdict`],
    /// asking `adjacent` (the connectivity probe) only on
    /// [`Verdict::Probe`].
    #[inline(always)]
    pub fn keeps(&self, x: f64, is_return: bool, adjacent: impl FnOnce() -> bool) -> bool {
        match self.verdict(x, is_return) {
            Verdict::Accept => true,
            Verdict::Reject => false,
            Verdict::Probe => x < if adjacent() { 1.0 } else { self.inv_q },
        }
    }
}

/// When walkers terminate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopRule {
    /// Every walker takes exactly this many steps.
    FixedSteps(usize),
    /// After each step a walker exits with probability `exit_prob`
    /// (PageRank-style); `max_steps` bounds the episode length.
    Geometric {
        /// Per-step exit probability in `(0, 1)`.
        exit_prob: f64,
        /// Hard upper bound on steps.
        max_steps: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_classification() {
        assert!(!WalkAlgorithm::DeepWalk.is_second_order());
        assert!(!WalkAlgorithm::Weighted.is_second_order());
        assert!(WalkAlgorithm::Node2Vec { p: 1.0, q: 1.0 }.is_second_order());
    }

    #[test]
    fn node2vec_bound_covers_all_cases() {
        let bound = |p, q| WalkAlgorithm::Node2Vec { p, q }.node2vec_rule().bound;
        assert_eq!(bound(0.25, 2.0), 4.0);
        assert_eq!(bound(4.0, 0.5), 2.0);
        assert_eq!(bound(2.0, 2.0), 1.0);
    }

    #[test]
    fn names_round_trip() {
        for walk in WalkAlgorithm::ALL {
            let name = walk.name();
            assert_eq!(WalkAlgorithm::from_name(name).map(|w| w.name()), Some(name));
            assert_eq!(WalkAlgorithm::from_name(name), Some(walk));
        }
        // One entry per variant: the names are distinct.
        let mut names = WalkAlgorithm::ALL.map(|w| w.name());
        names.sort_unstable();
        assert!(names.windows(2).all(|pair| pair[0] != pair[1]), "{names:?}");
        assert_eq!(WalkAlgorithm::from_name("frobwalk"), None);
        // The documented defaults.
        assert_eq!(
            WalkAlgorithm::from_name("metapath"),
            Some(WalkAlgorithm::Metapath {
                pattern: MetapathPattern::new(&[0, 1]).unwrap()
            })
        );
    }

    /// `verdict` against the comparison it replaces, `x < weight`, at
    /// every threshold of the rule and the `f64`s on either side.
    #[test]
    fn verdict_is_the_weight_comparison() {
        let grid = [0.25, 0.5, 1.0, 2.0, 4.0];
        for p in grid {
            for q in grid {
                let rule = Node2VecRule::new(p, q);
                assert_eq!(rule, WalkAlgorithm::Node2Vec { p, q }.node2vec_rule());
                assert_eq!(rule.bound, (1.0 / p).max(1.0).max(1.0 / q));
                assert_eq!(rule.bound_min, (1.0 / p).min(1.0).min(1.0 / q));
                let mut probed = 0;
                for at in [
                    0.0,
                    rule.bound_min,
                    rule.lo,
                    rule.hi,
                    rule.inv_p,
                    rule.bound,
                ] {
                    for x in [
                        f64::from_bits(at.to_bits().saturating_sub(1)),
                        at,
                        at.next_up(),
                    ] {
                        for is_return in [false, true] {
                            let weight = |adjacent: bool| match (is_return, adjacent) {
                                (true, _) => 1.0 / p,
                                (false, true) => 1.0,
                                (false, false) => 1.0 / q,
                            };
                            let (near, far) = (x < weight(true), x < weight(false));
                            let verdict = rule.verdict(x, is_return);
                            match verdict {
                                Verdict::Accept => assert!(near && far, "p {p} q {q} x {x}"),
                                Verdict::Reject => assert!(!near && !far, "p {p} q {q} x {x}"),
                                Verdict::Probe => assert_ne!(near, far, "p {p} q {q} x {x}"),
                            }
                            for adjacent in [false, true] {
                                let mut asked = false;
                                let kept = rule.keeps(x, is_return, || {
                                    asked = true;
                                    adjacent
                                });
                                assert_eq!(kept, x < weight(adjacent), "p {p} q {q} x {x}");
                                assert_eq!(asked, verdict == Verdict::Probe);
                            }
                            probed += (verdict == Verdict::Probe) as u32;
                            // Below the smallest weight nothing is asked.
                            assert!(x >= rule.bound_min || verdict == Verdict::Accept);
                        }
                    }
                }
                assert_eq!(
                    probed == 0,
                    q == 1.0,
                    "only q = 1 never probes (p {p} q {q})"
                );
            }
        }
        // First-order algorithms get the rule that keeps every draw.
        let trivial = WalkAlgorithm::DeepWalk.node2vec_rule();
        assert_eq!(trivial, Node2VecRule::new(1.0, 1.0));
        assert_eq!(trivial.verdict(0.999_999, false), Verdict::Accept);
    }

    #[test]
    fn program_kernels_classify() {
        let ppr = WalkAlgorithm::Ppr { alpha: 0.15 };
        assert!(!ppr.is_second_order());
        assert!(ppr.is_stateful());
        assert!(!ppr.can_terminate_early());
        assert!(!ppr.uses_edge_labels());

        let ee = WalkAlgorithm::EarlyExit;
        assert!(ee.is_stateful());
        assert!(ee.can_terminate_early());

        let mp = WalkAlgorithm::Metapath {
            pattern: MetapathPattern::new(&[0, 1]).unwrap(),
        };
        assert!(!mp.is_stateful());
        assert!(mp.can_terminate_early());
        assert!(mp.uses_edge_labels());
        assert_eq!(mp.name(), "metapath");
    }

    #[test]
    fn metapath_pattern_cycles() {
        let p = MetapathPattern::new(&[3, 5, 7]).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.label_at(0), 3);
        assert_eq!(p.label_at(4), 5);
        assert_eq!(p.labels(), &[3, 5, 7]);
        assert!(MetapathPattern::new(&[]).is_none());
        assert!(MetapathPattern::new(&[0; 9]).is_none());
    }
}
