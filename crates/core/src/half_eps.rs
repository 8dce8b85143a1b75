//! The ε/2-gap algorithm of Corollary 5.9.
//!
//! When the online algorithm may use error `ε` but the offline adversary only
//! `ε' ≤ ε/2`, a much simpler (and cheaper) strategy than `DenseProtocol`
//! suffices: simulate only the *first* round of `DenseProtocol` and decide nodes
//! eagerly. Nodes observing values above `u₀ ≈ (1−ε/2)z/(1−ε)` go straight to
//! `V₁`, nodes below `ℓ₀ ≈ (1−ε/2)z` straight to `V₃`; a `V₂` node that violates
//! its `[ℓ₀, u₀]` filter is moved to `V₁` or `V₃` immediately (no candidate sets,
//! no interval halving). The protocol terminates — and restarts — as soon as a
//! `V₁` or `V₃` node violates its filter, more than `k` nodes end up in `V₁`, or
//! fewer than `k` nodes remain in `V₁ ∪ V₂`; each such event forces the ε/2
//! adversary to communicate (proof of Corollary 5.9), which is what buys the
//! `O(σ + k log n + log log Δ + log 1/ε)` competitiveness.
//!
//! If the initial probe shows a unique output (`v_{k+1}` clearly smaller than
//! `v_k`) the algorithm delegates to `TopKProtocol`, exactly as Corollary 5.9
//! prescribes.

use topk_model::prelude::*;
use topk_net::Network;

use crate::existence::detect_violations;
use crate::maximum::top_m;
use crate::monitor::Monitor;
use crate::topk_protocol::TopKMonitor;

/// Safety cap on protocol iterations within a single time step.
const MAX_ITERATIONS_PER_STEP: u32 = 200_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Part {
    V1,
    V2,
    V3,
}

/// Which mode the monitor currently runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HalfEpsMode {
    /// Unique output: the inner `TopKProtocol` is running.
    TopK,
    /// Dense neighbourhood: the simplified single-round partition is running.
    SingleRound,
}

/// Corollary 5.9 monitor.
#[derive(Debug, Clone)]
pub struct HalfEpsMonitor {
    k: usize,
    eps: Epsilon,
    mode: HalfEpsMode,
    topk: TopKMonitor,
    seen_topk_restarts: u64,
    /// Pivot and round-0 separators of the single-round mode.
    z: Value,
    l0: Value,
    u0: Value,
    part: Vec<Part>,
    output: Vec<NodeId>,
    initialised: bool,
    restarts: u64,
}

impl HalfEpsMonitor {
    /// Creates the monitor (online error `eps`; the adversary it is competitive
    /// against may use at most `eps/2`).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize, eps: Epsilon) -> HalfEpsMonitor {
        HalfEpsMonitor {
            k,
            eps,
            mode: HalfEpsMode::SingleRound,
            topk: TopKMonitor::new(k, eps),
            seen_topk_restarts: 0,
            z: 0,
            l0: 0,
            u0: 0,
            part: Vec::new(),
            output: Vec::new(),
            initialised: false,
            restarts: 0,
        }
    }

    /// Number of times the protocol restarted (each completed single-round
    /// instance forces the ε/2 adversary to communicate at least once).
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// The mode currently active.
    pub fn mode(&self) -> HalfEpsMode {
        self.mode
    }

    /// (Re)starts the protocol: probe the top-(k+1) values, pick the mode, and in
    /// single-round mode partition all nodes and assign round-0 filters.
    fn start_instance(&mut self, net: &mut dyn Network) {
        let n = net.n();
        assert!(
            self.k < n,
            "k = {} must be smaller than the number of nodes n = {}",
            self.k,
            n
        );
        self.restarts += 1;
        net.meter().push_label(ProtocolLabel::HalfEps);
        let top = top_m(net, self.k + 1);
        let v_k = top[self.k - 1].1;
        let v_k1 = top[self.k].1;
        if self.eps.clearly_smaller(v_k1, v_k) {
            // Unique output: delegate to TopKProtocol from a clean slate.
            self.mode = HalfEpsMode::TopK;
            self.topk = TopKMonitor::new(self.k, self.eps);
            self.seen_topk_restarts = 0;
            net.meter().pop_label();
            return;
        }
        self.mode = HalfEpsMode::SingleRound;
        self.z = v_k.max(1);
        let z_lo = self.eps.scale_down(self.z);
        self.l0 = z_lo + (self.z - z_lo) / 2;
        self.u0 = self.eps.scale_up(self.l0);
        if self.u0 < self.z {
            // Small pivots: both floors can land the upper separator below z
            // itself (z = 9, ε = 1/10 gives l0 = u0 = 8), which would put
            // every node holding z into V1. Widen to the band [⌈(1−ε)z⌉, z]
            // instead — still no wider than ε, so the filters stay valid.
            self.u0 = self.z;
            self.l0 = if self.eps.clearly_smaller(z_lo, self.z) {
                z_lo + 1
            } else {
                z_lo
            };
        }

        // Partition by the round-0 separators so that no node violates right
        // after the (re)start; the separators coincide with the paper's
        // (1 − ε/2)-thresholds up to integer rounding.
        self.part = vec![Part::V3; n];
        net.broadcast_group(NodeGroup::V3);
        let mut upper: Option<(Value, NodeId)> = None;
        while let Some((node, value)) = crate::maximum::find_max_below(net, upper) {
            if value < self.l0 {
                break;
            }
            let i = node.index();
            self.part[i] = if value > self.u0 { Part::V1 } else { Part::V2 };
            net.assign_group(
                node,
                if value > self.u0 {
                    NodeGroup::V1
                } else {
                    NodeGroup::V2_PLAIN
                },
            );
            upper = Some((value, node));
        }
        net.broadcast_params(FilterParams::Dense {
            l_r: self.l0,
            u_r: self.u0,
            z_lo: self.eps.scale_down(self.z),
            z_hi: self.eps.scale_up(self.z),
        });
        self.recompute_output();
        net.meter().pop_label();
    }

    fn recompute_output(&mut self) -> bool {
        let mut mandatory = Vec::new();
        let mut fill = Vec::new();
        for (i, part) in self.part.iter().enumerate() {
            match part {
                Part::V1 => mandatory.push(NodeId(i)),
                Part::V2 => fill.push(NodeId(i)),
                Part::V3 => {}
            }
        }
        if mandatory.len() > self.k || mandatory.len() + fill.len() < self.k {
            return false;
        }
        mandatory.extend(fill.into_iter().take(self.k - mandatory.len()));
        self.output = mandatory;
        true
    }

    fn single_round_step(&mut self, net: &mut dyn Network) {
        net.meter().push_label(ProtocolLabel::HalfEps);
        for _ in 0..MAX_ITERATIONS_PER_STEP {
            let violations = detect_violations(net);
            let Some(first) = violations.first() else {
                break;
            };
            let (node, direction) = match *first {
                NodeMessage::ViolationReport {
                    node, direction, ..
                } => (node, direction),
                ref other => unreachable!("violation detection returned {other:?}"),
            };
            let i = node.index();
            match (self.part[i], direction) {
                // Any violation by a decided node terminates the instance: the
                // ε/2 adversary cannot have survived it (Corollary 5.9 proof).
                (Part::V1, _) | (Part::V3, _) => {
                    net.meter().pop_label();
                    self.start_instance(net);
                    net.meter().push_label(ProtocolLabel::HalfEps);
                    if self.mode != HalfEpsMode::SingleRound {
                        // The restart switched to TopKProtocol; the caller hands
                        // the rest of this time step to the inner monitor.
                        break;
                    }
                    continue;
                }
                // Undecided nodes are decided eagerly.
                (Part::V2, Violation::FromBelow) => {
                    self.part[i] = Part::V1;
                    net.assign_group(node, NodeGroup::V1);
                }
                (Part::V2, Violation::FromAbove) => {
                    self.part[i] = Part::V3;
                    net.assign_group(node, NodeGroup::V3);
                }
            }
            if !self.recompute_output() {
                net.meter().pop_label();
                self.start_instance(net);
                net.meter().push_label(ProtocolLabel::HalfEps);
                if self.mode != HalfEpsMode::SingleRound {
                    break;
                }
            }
        }
        net.meter().pop_label();
    }
}

impl Monitor for HalfEpsMonitor {
    fn k(&self) -> usize {
        self.k
    }

    fn eps(&self) -> Option<Epsilon> {
        Some(self.eps)
    }

    fn process_step(&mut self, net: &mut dyn Network) {
        if !self.initialised {
            self.start_instance(net);
            self.initialised = true;
        }
        // A mode switch mid-step hands the rest of the step to the other
        // handler; two passes suffice because a switch re-initialises filters
        // from the current values.
        for _ in 0..2 {
            match self.mode {
                HalfEpsMode::SingleRound => {
                    self.single_round_step(net);
                    if self.mode == HalfEpsMode::SingleRound {
                        break;
                    }
                }
                HalfEpsMode::TopK => {
                    self.topk.process_step(net);
                    // When the inner TopKProtocol terminates an instance,
                    // re-evaluate which mode fits the current input.
                    if self.seen_topk_restarts > 0 && self.topk.restarts() > self.seen_topk_restarts
                    {
                        self.start_instance(net);
                        if self.mode == HalfEpsMode::TopK {
                            // Re-dispatched to a fresh TopKProtocol instance:
                            // initialise it now so the output is never stale.
                            self.topk.process_step(net);
                        } else {
                            // Hand the rest of the step to the single-round mode.
                            continue;
                        }
                    }
                    self.seen_topk_restarts = self.topk.restarts();
                    break;
                }
            }
        }
    }

    fn output(&self) -> Vec<NodeId> {
        match self.mode {
            HalfEpsMode::SingleRound => self.output.clone(),
            HalfEpsMode::TopK => {
                let out = self.topk.output();
                if out.is_empty() {
                    self.output.clone()
                } else {
                    out
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "half-eps"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::{run_on_rows, RunReport};
    use topk_gen::{GapWorkload, NoiseOscillationWorkload, Workload};
    use topk_net::DeterministicEngine;

    fn drive(
        rows: Vec<Vec<Value>>,
        k: usize,
        eps: Epsilon,
        seed: u64,
    ) -> (RunReport, HalfEpsMonitor) {
        let n = rows[0].len();
        let mut net = DeterministicEngine::new(n, seed);
        let mut monitor = HalfEpsMonitor::new(k, eps);
        let report = run_on_rows(&mut monitor, &mut net, rows, eps);
        (report, monitor)
    }

    #[test]
    fn small_all_equal_rows_keep_a_full_output() {
        // z = 1 and z = 9 at ε = 1/10 floor both round-0 separators below
        // the pivot; every step must still output exactly k nodes.
        let eps = Epsilon::new(1, 10).unwrap();
        for v in [1, 9, 1000] {
            let rows = vec![vec![v; 5]; 6];
            let (report, monitor) = drive(rows, 2, eps, 11);
            assert_eq!(report.invalid_steps, 0, "rows of all {v}s");
            assert_eq!(monitor.output().len(), 2, "rows of all {v}s");
        }
    }

    #[test]
    fn delegates_to_topk_on_gap_inputs() {
        let mut w = GapWorkload::standard(10, 2, 100_000, 3);
        let rows: Vec<Vec<Value>> = (0..40).map(|_| w.next_step()).collect();
        let (report, monitor) = drive(rows, 2, Epsilon::TENTH, 3);
        assert_eq!(report.invalid_steps, 0);
        assert_eq!(monitor.mode(), HalfEpsMode::TopK);
    }

    #[test]
    fn single_round_mode_on_dense_inputs() {
        let eps = Epsilon::TENTH;
        let mut w = NoiseOscillationWorkload::new(16, 2, 10, 100_000, eps, 5);
        let rows: Vec<Vec<Value>> = (0..60).map(|_| w.next_step()).collect();
        let (report, monitor) = drive(rows, 5, eps, 5);
        assert_eq!(report.invalid_steps, 0);
        assert_eq!(monitor.mode(), HalfEpsMode::SingleRound);
    }

    #[test]
    fn valid_on_static_values() {
        let rows = vec![vec![100, 97, 94, 40, 10]; 20];
        let (report, monitor) = drive(rows, 2, Epsilon::TENTH, 1);
        assert_eq!(report.invalid_steps, 0);
        assert_eq!(monitor.restarts(), 1);
    }

    #[test]
    fn cheaper_than_dense_protocol_against_weak_adversary_workload() {
        // On a dense oscillation the single-round strategy should not cost more
        // than the full DenseProtocol (it gives up earlier and re-initialises,
        // but never pays for interval halving or sub-protocols).
        let eps = Epsilon::TENTH;
        let mut w = NoiseOscillationWorkload::new(20, 2, 8, 500_000, eps, 11);
        let rows: Vec<Vec<Value>> = (0..100).map(|_| w.next_step()).collect();
        let (half_report, _) = drive(rows.clone(), 4, eps, 11);
        let mut net = DeterministicEngine::new(20, 11);
        let mut dense = crate::DenseMonitor::new(4, eps);
        let dense_report = run_on_rows(&mut dense, &mut net, rows, eps);
        assert_eq!(half_report.invalid_steps, 0);
        assert_eq!(dense_report.invalid_steps, 0);
        // Both must be far below the trivial per-step cost; we do not assert a
        // strict ordering because the workloads are random, only sanity.
        assert!(half_report.messages() < 100 * 20);
    }

    #[test]
    fn restarts_forced_by_decided_node_violations() {
        // A V1 node crashing to a tiny value forces a restart.
        let mut rows = vec![vec![2000, 980, 960, 940, 10]; 10];
        rows.extend(vec![vec![5, 980, 960, 940, 10]; 10]);
        let (report, monitor) = drive(rows, 2, Epsilon::TENTH, 2);
        assert_eq!(report.invalid_steps, 0);
        assert!(monitor.restarts() >= 2);
    }

    #[test]
    #[should_panic]
    fn rejects_k_zero() {
        let _ = HalfEpsMonitor::new(0, Epsilon::HALF);
    }
}
