//! Configuration of the search algorithms: pruning switches, heuristic
//! choice, resource limits and the incumbent the search starts from, bundled
//! in one [`SearchConfig`] that every serial scheduler takes.

use optsched_schedule::Schedule;
use optsched_taskgraph::Cost;

/// Which admissible heuristic `h(s)` the search uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HeuristicKind {
    /// The paper's heuristic: `h(s) = max over successors of n_max of sl(n_j)`,
    /// where `n_max` is the scheduled node with the largest finish time and
    /// `sl` is the static level (Section 3.1).
    #[default]
    PaperStaticLevel,
    /// A tighter (still admissible) variant used for the ablation study:
    /// `h(s) = max over every scheduled node n of
    ///   (FT(n) + max over unscheduled successors of n of sl) − g(s)`.
    /// Dominates `PaperStaticLevel` at a slightly higher evaluation cost.
    TightStaticLevel,
    /// `h(s) = 0`: degenerates A* into uniform-cost / exhaustive search.
    /// Included to quantify how much the heuristic itself contributes.
    Zero,
}

/// Switches for the four state-space pruning techniques of Section 3.2.
///
/// All techniques preserve optimality; switching them off only affects how
/// many states the search generates and expands (the middle column of
/// Table 1 is the search with every switch off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PruningConfig {
    /// Processor isomorphism: among *empty* processors that are structurally
    /// interchangeable, expand only one representative (Definition 2).
    pub processor_isomorphism: bool,
    /// Node equivalence: among ready nodes that are equivalent
    /// (Definition 3), expand only the one with the smallest id.
    pub node_equivalence: bool,
    /// Upper-bound solution cost: discard any generated state whose `f`
    /// exceeds the schedule length produced by the linear-time list heuristic.
    pub upper_bound_pruning: bool,
    /// Priority assignment: consider ready nodes in decreasing
    /// b-level + t-level order (ties by node id) instead of plain id order,
    /// and use the same priority to break ties among equal-`f` states in
    /// OPEN, so less important nodes are examined later.
    pub priority_ordering: bool,
}

impl PruningConfig {
    /// Every pruning technique enabled (the paper's "A*" column).
    pub fn all() -> PruningConfig {
        PruningConfig {
            processor_isomorphism: true,
            node_equivalence: true,
            upper_bound_pruning: true,
            priority_ordering: true,
        }
    }

    /// Every pruning technique disabled (the paper's "A* full" column).
    pub fn none() -> PruningConfig {
        PruningConfig {
            processor_isomorphism: false,
            node_equivalence: false,
            upper_bound_pruning: false,
            priority_ordering: false,
        }
    }

    /// Human-readable list of the enabled techniques (used by the benches).
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        if self.processor_isomorphism {
            parts.push("proc-iso");
        }
        if self.node_equivalence {
            parts.push("node-equiv");
        }
        if self.upper_bound_pruning {
            parts.push("upper-bound");
        }
        if self.priority_ordering {
            parts.push("priority");
        }
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join("+")
        }
    }
}

impl Default for PruningConfig {
    fn default() -> Self {
        PruningConfig::all()
    }
}

/// Resource limits for a search run.
///
/// The A* family can need exponential time and memory in the worst case
/// (Section 3.1); limits let callers bound a run and still obtain the best
/// incumbent found so far, reported as
/// [`SearchOutcome::LimitReached`](crate::stats::SearchOutcome).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchLimits {
    /// Maximum number of states the search may *expand* (`None` = unlimited).
    pub max_expansions: Option<u64>,
    /// Maximum number of states the search may *generate* (`None` = unlimited).
    pub max_generated: Option<u64>,
    /// Wall-clock budget in milliseconds (`None` = unlimited).
    pub max_millis: Option<u64>,
    /// Stop as soon as an incumbent with cost `<=` this value is known
    /// (`None` = only stop at proven optimality).  Used by tests and by the
    /// parallel search's termination protocol.
    pub target_cost: Option<Cost>,
}

impl SearchLimits {
    /// Unlimited search.
    pub fn unlimited() -> SearchLimits {
        SearchLimits::default()
    }

    /// Limit only the number of expanded states.
    pub fn expansions(n: u64) -> SearchLimits {
        SearchLimits { max_expansions: Some(n), ..Default::default() }
    }
}

/// Everything a serial search run can be configured with, shared by every
/// scheduler family and by [`run_search`](crate::engine::run_search).
///
/// The default is the paper's A\*: every pruning technique, the paper's
/// heuristic, no limits, no seeded or warm-started incumbent.  Chen & Yu and
/// the exhaustive enumerator ignore `pruning` and `heuristic`: they force
/// their own (none and `h = 0`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchConfig {
    /// Which Section 3.2 pruning techniques to use.
    pub pruning: PruningConfig,
    /// The admissible heuristic evaluated for every child.
    pub heuristic: HeuristicKind,
    /// Resource limits for the run.
    pub limits: SearchLimits,
    /// Treat the list-heuristic schedule as an *attained* incumbent, so the
    /// upper-bound rule prunes states that cannot strictly improve on it
    /// (see [`run_search`](crate::engine::run_search)).  Off by default: the
    /// classic behaviour keeps states whose `f` merely *equals* the bound.
    pub seed_incumbent: bool,
    /// A complete schedule attained elsewhere (a cached near-match, an
    /// anytime leg of a race), adopted as the starting incumbent only when
    /// it beats the one the run would otherwise start from.  It must be
    /// feasible for the problem being solved.
    pub warm_start: Option<Schedule>,
}

impl SearchConfig {
    /// The default configuration under the given limits.
    pub fn limited(limits: SearchLimits) -> SearchConfig {
        SearchConfig { limits, ..SearchConfig::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn describe_lists_enabled_techniques() {
        assert_eq!(PruningConfig::none().describe(), "none");
        assert_eq!(PruningConfig::all().describe(), "proc-iso+node-equiv+upper-bound+priority");
        let only_iso = PruningConfig { processor_isomorphism: true, ..PruningConfig::none() };
        assert_eq!(only_iso.describe(), "proc-iso");
    }

    #[test]
    fn default_is_all_pruning() {
        assert_eq!(PruningConfig::default(), PruningConfig::all());
    }

    #[test]
    fn default_limits_are_unlimited() {
        let l = SearchLimits::default();
        assert!(l.max_expansions.is_none());
        assert!(l.max_generated.is_none());
        assert!(l.max_millis.is_none());
        assert!(l.target_cost.is_none());
        assert_eq!(SearchLimits::unlimited(), l);
        assert_eq!(SearchLimits::expansions(5).max_expansions, Some(5));
    }

    #[test]
    fn heuristic_default_is_paper() {
        assert_eq!(HeuristicKind::default(), HeuristicKind::PaperStaticLevel);
    }

    #[test]
    fn search_config_defaults_to_the_papers_astar() {
        let c = SearchConfig::default();
        assert_eq!(c.pruning, PruningConfig::all());
        assert_eq!(c.heuristic, HeuristicKind::PaperStaticLevel);
        assert_eq!(c.limits, SearchLimits::unlimited());
        assert!(!c.seed_incumbent);
        assert!(c.warm_start.is_none());
        let limited = SearchConfig::limited(SearchLimits::expansions(3));
        assert_eq!(limited.limits.max_expansions, Some(3));
    }
}
