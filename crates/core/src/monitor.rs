//! The common monitoring interface and the step driver.
//!
//! Every online algorithm in this crate implements [`Monitor`]: it is given the
//! network after each observation step and must afterwards report a candidate
//! output set of `k` nodes. The driver functions [`run_on_rows`] (pre-recorded
//! workloads) and [`run_adaptive`] (adaptive adversaries that see the filters)
//! feed observations, invoke the monitor, validate every output against the
//! ε-top-k definition of Sect. 2 and collect the [`RunReport`] the experiments
//! are built from.

use topk_model::prelude::*;
use topk_net::Network;

/// A filter-based online monitoring algorithm.
pub trait Monitor {
    /// The monitored `k`.
    fn k(&self) -> usize;

    /// The error the monitor is allowed in its output (`None` for monitors that
    /// solve the exact problem).
    fn eps(&self) -> Option<Epsilon>;

    /// Called after every [`Network::advance_time`] (including the first one).
    /// The monitor runs its communication protocol here: detect violations,
    /// update filters, possibly recompute its output.
    fn process_step(&mut self, net: &mut dyn Network);

    /// The monitor's current output set `F(t)` (must have exactly `k` elements
    /// once at least one step was processed).
    fn output(&self) -> Vec<NodeId>;

    /// A short human-readable name used in experiment tables.
    fn name(&self) -> &'static str;
}

/// Outcome of driving a monitor over a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Number of observation steps processed.
    pub steps: u64,
    /// Number of steps at which the output violated the ε-top-k definition
    /// (0 for a correct monitor).
    pub invalid_steps: u64,
    /// Number of steps at which the output differed from the *exact* top-k set
    /// (informational: allowed to be non-zero for approximate monitors).
    pub inexact_steps: u64,
    /// Communication statistics accumulated by the engine.
    pub stats: CommStats,
    /// Largest value observed over the run (`Δ`).
    pub delta: Value,
    /// Largest ε-neighbourhood size observed over the run (`σ`).
    pub sigma: usize,
}

impl RunReport {
    /// Total number of messages the online algorithm sent.
    pub fn messages(&self) -> u64 {
        self.stats.total_messages()
    }
}

/// Drives `monitor` over pre-recorded observation rows.
///
/// `validation_eps` is the error used to *validate* the output (usually the same
/// as the monitor's own ε; pass something larger to accept sloppier outputs).
///
/// # Panics
///
/// Panics if a row's length differs from `net.n()`.
pub fn run_on_rows(
    monitor: &mut dyn Monitor,
    net: &mut dyn Network,
    rows: impl IntoIterator<Item = Vec<Value>>,
    validation_eps: Epsilon,
) -> RunReport {
    run_adaptive(monitor, net, validation_eps, {
        let mut iter = rows.into_iter();
        move |_filters: &[Filter]| iter.next()
    })
}

/// Drives `monitor` with an adaptive source: `next_row` sees the filters
/// currently assigned to the nodes (what the adversary of Theorem 5.1 needs) and
/// returns `None` to end the run.
///
/// ```
/// use topk_core::monitor::run_adaptive;
/// use topk_core::TopKMonitor;
/// use topk_model::Epsilon;
/// use topk_net::DeterministicEngine;
///
/// let mut net = DeterministicEngine::new(3, 7);
/// let mut monitor = TopKMonitor::new(1, Epsilon::HALF);
/// let mut step = 0u64;
/// let report = run_adaptive(&mut monitor, &mut net, Epsilon::HALF, |filters| {
///     // The source sees the current filters — an adaptive adversary would
///     // aim its next row exactly at their boundaries.
///     assert_eq!(filters.len(), 3);
///     step += 1;
///     (step <= 4).then(|| vec![100 + step, 50, 10])
/// });
/// assert_eq!(report.steps, 4);
/// assert_eq!(report.invalid_steps, 0, "the ε-top-1 must be valid at every step");
/// ```
pub fn run_adaptive(
    monitor: &mut dyn Monitor,
    net: &mut dyn Network,
    validation_eps: Epsilon,
    next_row: impl FnMut(&[Filter]) -> Option<Vec<Value>>,
) -> RunReport {
    run_adaptive_observed(monitor, net, validation_eps, next_row, |_| {})
}

/// Everything the driver knows about one completed observation step, handed to
/// the observer of [`run_adaptive_observed`].
///
/// The campaign runner uses this to attribute message cost to *workload
/// phases* (e.g. the quiet/dense/adversarial segments of a regime-switching
/// generator): `messages_total` is cumulative, so the delta between two
/// consecutive observations is exactly what the step between them cost.
#[derive(Debug, Clone, Copy)]
pub struct StepObservation<'a> {
    /// 0-based index of the step that just completed.
    pub step: u64,
    /// The observations delivered at this step.
    pub row: &'a [Value],
    /// Membership events applied before this step's row was delivered
    /// (always empty under [`run_adaptive_observed`]).
    pub events: &'a [MembershipEvent],
    /// The monitor's output after processing the step.
    pub output: &'a [NodeId],
    /// Whether the output was a valid ε-top-k set for this row.
    pub valid: bool,
    /// Cumulative message count over the run, *including* this step.
    pub messages_total: u64,
}

/// [`run_adaptive`] with a per-step observer.
///
/// The observer runs after the monitor processed the step and the output was
/// validated — it sees the row, the output, the validity verdict and the
/// cumulative message count, but cannot influence the run (the adaptive
/// adversary contract stays with `next_row`).
pub fn run_adaptive_observed(
    monitor: &mut dyn Monitor,
    net: &mut dyn Network,
    validation_eps: Epsilon,
    next_row: impl FnMut(&[Filter]) -> Option<Vec<Value>>,
    observer: impl FnMut(StepObservation<'_>),
) -> RunReport {
    // A run without membership events: the population stays full and the
    // masking below is a no-op, so this is exactly the historical driver.
    run_with_membership_observed(
        monitor,
        net,
        validation_eps,
        next_row,
        |_| Vec::new(),
        observer,
    )
}

/// Drives `monitor` over an adaptive source *and* a membership schedule.
///
/// `events_at(step)` returns the [`MembershipEvent`]s taking effect at the
/// given 0-based step; they are applied — to the engine via
/// [`Network::apply_membership`] and to a driver-owned [`Population`] copy —
/// *before* the step's observation row is delivered, so a joiner observes
/// the row of the step it joins at. Validation is against the *masked* row
/// (dead slots pinned to `0`): that is the value vector the model actually
/// holds, and the ε-top-k definition applies to it unchanged.
///
/// # Panics
///
/// Panics on a malformed schedule (joining a live slot, a dead slot
/// leaving) — the same panic every engine raises, so driver and engine can
/// never silently disagree on who is live.
pub fn run_with_membership(
    monitor: &mut dyn Monitor,
    net: &mut dyn Network,
    validation_eps: Epsilon,
    next_row: impl FnMut(&[Filter]) -> Option<Vec<Value>>,
    events_at: impl FnMut(u64) -> Vec<MembershipEvent>,
) -> RunReport {
    run_with_membership_observed(monitor, net, validation_eps, next_row, events_at, |_| {})
}

/// [`run_with_membership`] with a per-step observer (see
/// [`run_adaptive_observed`] for the observer contract).
pub fn run_with_membership_observed(
    monitor: &mut dyn Monitor,
    net: &mut dyn Network,
    validation_eps: Epsilon,
    mut next_row: impl FnMut(&[Filter]) -> Option<Vec<Value>>,
    mut events_at: impl FnMut(u64) -> Vec<MembershipEvent>,
    mut observer: impl FnMut(StepObservation<'_>),
) -> RunReport {
    let k = monitor.k();
    let mut population = Population::new(net.n());
    let mut report = RunReport {
        steps: 0,
        invalid_steps: 0,
        inexact_steps: 0,
        stats: CommStats::default(),
        delta: 0,
        sigma: 0,
    };
    // One filter buffer for the whole run, refilled in place every step.
    let mut filters: Vec<Filter> = Vec::new();
    loop {
        net.peek_filters_into(&mut filters);
        let Some(mut row) = next_row(&filters) else {
            break;
        };
        let events = events_at(report.steps);
        if !events.is_empty() {
            for &event in &events {
                population.apply(event);
            }
            net.apply_membership(&events);
        }
        // The engines mask dead slots themselves; masking here too makes the
        // validated/observed row the model's value vector, not the raw
        // workload output.
        if population.live_count() != population.n() {
            population.mask_row(&mut row);
        }
        net.advance_time(&row);
        monitor.process_step(net);
        let output = monitor.output();
        let view = TopKView::new(&row, k, validation_eps);
        let valid = view.validate_output(&output).is_valid();
        if !valid {
            report.invalid_steps += 1;
        }
        if !view.validate_exact(&output) {
            report.inexact_steps += 1;
        }
        // `CostMeter::total_messages` is an O(1) running counter, so this
        // per-step path takes no CommStats snapshot and no map traversal.
        let messages_total = net.meter().total_messages();
        observer(StepObservation {
            step: report.steps,
            row: &row,
            events: &events,
            output: &output,
            valid,
            messages_total,
        });
        report.steps += 1;
        report.delta = report.delta.max(row.iter().copied().max().unwrap_or(0));
        report.sigma = report.sigma.max(view.sigma());
    }
    report.stats = net.stats();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use topk_net::DeterministicEngine;

    /// A trivial (and expensive) reference monitor: probes every node every step
    /// and outputs the exact top-k. Used to test the driver itself.
    struct ProbeAllMonitor {
        k: usize,
        eps: Epsilon,
        output: Vec<NodeId>,
    }

    impl ProbeAllMonitor {
        fn new(k: usize, eps: Epsilon) -> Self {
            ProbeAllMonitor {
                k,
                eps,
                output: Vec::new(),
            }
        }
    }

    impl Monitor for ProbeAllMonitor {
        fn k(&self) -> usize {
            self.k
        }
        fn eps(&self) -> Option<Epsilon> {
            Some(self.eps)
        }
        fn process_step(&mut self, net: &mut dyn Network) {
            let values: Vec<Value> = (0..net.n()).map(|i| net.probe(NodeId(i))).collect();
            self.output = TopKView::new(&values, self.k, self.eps).exact_top_k();
        }
        fn output(&self) -> Vec<NodeId> {
            self.output.clone()
        }
        fn name(&self) -> &'static str {
            "probe-all"
        }
    }

    /// A deliberately broken monitor that always outputs nodes 0..k.
    struct ConstantMonitor {
        k: usize,
    }

    impl Monitor for ConstantMonitor {
        fn k(&self) -> usize {
            self.k
        }
        fn eps(&self) -> Option<Epsilon> {
            Some(Epsilon::HALF)
        }
        fn process_step(&mut self, _net: &mut dyn Network) {}
        fn output(&self) -> Vec<NodeId> {
            (0..self.k).map(NodeId).collect()
        }
        fn name(&self) -> &'static str {
            "constant"
        }
    }

    #[test]
    fn driver_counts_steps_and_messages() {
        let rows = vec![vec![1, 2, 3], vec![3, 2, 1], vec![2, 3, 1]];
        let mut net = DeterministicEngine::new(3, 1);
        let mut monitor = ProbeAllMonitor::new(1, Epsilon::HALF);
        let report = run_on_rows(&mut monitor, &mut net, rows, Epsilon::HALF);
        assert_eq!(report.steps, 3);
        assert_eq!(report.invalid_steps, 0);
        assert_eq!(report.inexact_steps, 0);
        // 3 steps × 3 probes × 2 messages each.
        assert_eq!(report.messages(), 18);
        assert_eq!(report.delta, 3);
        assert_eq!(monitor.name(), "probe-all");
    }

    #[test]
    fn driver_flags_invalid_outputs() {
        // Node 2 clearly dominates but the constant monitor reports node 0.
        let rows = vec![vec![1, 2, 1000], vec![1, 2, 1000]];
        let mut net = DeterministicEngine::new(3, 1);
        let mut monitor = ConstantMonitor { k: 1 };
        let report = run_on_rows(&mut monitor, &mut net, rows, Epsilon::HALF);
        assert_eq!(report.invalid_steps, 2);
        assert_eq!(report.inexact_steps, 2);
        assert_eq!(report.messages(), 0);
    }

    #[test]
    fn observer_sees_every_step_with_cumulative_messages() {
        let rows = vec![vec![1, 2, 3], vec![3, 2, 1], vec![2, 3, 1]];
        let mut net = DeterministicEngine::new(3, 1);
        let mut monitor = ProbeAllMonitor::new(1, Epsilon::HALF);
        let mut seen: Vec<(u64, u64, bool)> = Vec::new();
        let mut iter = rows.into_iter();
        let report = run_adaptive_observed(
            &mut monitor,
            &mut net,
            Epsilon::HALF,
            move |_| iter.next(),
            |obs| {
                assert_eq!(obs.row.len(), 3);
                assert_eq!(obs.output.len(), 1);
                seen.push((obs.step, obs.messages_total, obs.valid));
                if let Some(prev) = seen.len().checked_sub(2) {
                    assert!(
                        seen[prev].1 <= obs.messages_total,
                        "message counter must be cumulative"
                    );
                }
            },
        );
        assert_eq!(report.steps, 3);
        // Probe-all costs 6 messages per step; the observer saw the ramp.
        assert_eq!(report.messages(), 18);
    }

    #[test]
    fn membership_driver_masks_validation_and_applies_events() {
        // Node 2 dominates, leaves at step 1, rejoins at step 3. The
        // probe-all monitor must stay valid throughout because validation is
        // against the masked row, and the probes must see the masked values.
        let rows = vec![vec![1, 2, 1000]; 5];
        let mut net = DeterministicEngine::new(3, 1);
        let mut monitor = ProbeAllMonitor::new(1, Epsilon::HALF);
        let mut iter = rows.into_iter();
        let mut observed: Vec<(u64, Vec<Value>, Vec<NodeId>)> = Vec::new();
        let report = run_with_membership_observed(
            &mut monitor,
            &mut net,
            Epsilon::HALF,
            move |_| iter.next(),
            |step| match step {
                1 => vec![MembershipEvent::Leave(NodeId(2))],
                3 => vec![MembershipEvent::Join(NodeId(2))],
                _ => Vec::new(),
            },
            |obs| observed.push((obs.step, obs.row.to_vec(), obs.output.to_vec())),
        );
        assert_eq!(report.steps, 5);
        assert_eq!(report.invalid_steps, 0, "masked validation must hold");
        assert_eq!(observed[0].1, vec![1, 2, 1000]);
        assert_eq!(observed[1].1, vec![1, 2, 0], "dead slot masked");
        assert_eq!(observed[2].1, vec![1, 2, 0]);
        assert_eq!(observed[3].1, vec![1, 2, 1000], "joiner observes again");
        assert_eq!(
            observed[1].2,
            vec![NodeId(1)],
            "top-1 re-resolves to node 1"
        );
        assert_eq!(observed[3].2, vec![NodeId(2)]);
        assert_eq!(net.peek_value(NodeId(2)), 1000);
    }

    #[test]
    #[should_panic(expected = "already live")]
    fn membership_driver_rejects_malformed_schedules() {
        let mut net = DeterministicEngine::new(2, 1);
        let mut monitor = ProbeAllMonitor::new(1, Epsilon::HALF);
        let mut steps = 0;
        run_with_membership(
            &mut monitor,
            &mut net,
            Epsilon::HALF,
            move |_| {
                steps += 1;
                (steps <= 2).then(|| vec![1, 2])
            },
            |_| vec![MembershipEvent::Join(NodeId(0))],
        );
    }

    #[test]
    fn adaptive_driver_passes_filters() {
        let mut net = DeterministicEngine::new(2, 1);
        let mut monitor = ProbeAllMonitor::new(1, Epsilon::HALF);
        let mut calls = 0;
        let report = run_adaptive(&mut monitor, &mut net, Epsilon::HALF, |filters| {
            calls += 1;
            assert_eq!(filters.len(), 2);
            if calls <= 3 {
                Some(vec![10 * calls as Value, 5])
            } else {
                None
            }
        });
        assert_eq!(report.steps, 3);
        assert_eq!(report.sigma, 2);
    }

    #[test]
    fn every_monitor_refuses_k_not_below_n() {
        use crate::{CombinedMonitor, DenseMonitor, ExactTopKMonitor, HalfEpsMonitor, TopKMonitor};
        let eps = Epsilon::new(1, 10).unwrap();
        for k in [4, 5] {
            let monitors: Vec<Box<dyn Monitor>> = vec![
                Box::new(ExactTopKMonitor::new(k)),
                Box::new(TopKMonitor::new(k, eps)),
                Box::new(DenseMonitor::new(k, eps)),
                Box::new(CombinedMonitor::new(k, eps)),
                Box::new(HalfEpsMonitor::new(k, eps)),
            ];
            for mut monitor in monitors {
                let name = monitor.name();
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut net = DeterministicEngine::new(4, 1);
                    net.advance_time(&[5, 6, 7, 8]);
                    monitor.process_step(&mut net);
                }));
                let payload = outcome.expect_err("k >= n must be refused");
                let message = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_default();
                assert_eq!(
                    message,
                    format!("k = {k} must be smaller than the number of nodes n = 4"),
                    "{name} at k = {k}"
                );
            }
        }
    }
}
