//! The combined algorithm of Theorem 5.8.
//!
//! "At time `t` at which the algorithm is started, the algorithm probes the nodes
//! holding the `k + 1` largest values. If `v_{π(k+1,t)} < (1 − ε)·v_{π(k,t)}`
//! holds, the algorithm `TopKProtocol` is called. Otherwise the algorithm
//! `DenseProtocol` is executed. After termination of the respective call, the
//! procedure starts over again."
//!
//! [`CombinedMonitor`] implements exactly this dispatcher on top of
//! [`crate::topk_protocol::TopKMonitor`] and [`crate::dense::DenseMonitor`]. Both
//! inner monitors restart themselves when their protocol instance terminates;
//! the dispatcher watches their restart counters and re-evaluates the dispatch
//! condition (with one cheap top-(k+1) probe) whenever that happens, switching
//! the active protocol if the input moved between the "unique output" and the
//! "dense ε-neighbourhood" regime.

use topk_model::prelude::*;
use topk_net::Network;

use crate::dense::DenseMonitor;
use crate::maximum::top_m;
use crate::monitor::Monitor;
use crate::topk_protocol::TopKMonitor;

/// Which inner protocol is currently active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActiveProtocol {
    /// `TopKProtocol` (unique-output regime).
    TopK,
    /// `DenseProtocol` (dense ε-neighbourhood regime).
    Dense,
}

/// The Theorem 5.8 monitor: `TopKProtocol` when the output is unique,
/// `DenseProtocol` otherwise.
#[derive(Debug, Clone)]
pub struct CombinedMonitor {
    k: usize,
    eps: Epsilon,
    topk: TopKMonitor,
    dense: DenseMonitor,
    active: ActiveProtocol,
    /// Generation counters of the inner monitors at the last dispatch decision.
    seen_topk_restarts: u64,
    seen_dense_instances: u64,
    initialised: bool,
    switches: u64,
}

impl CombinedMonitor {
    /// Creates the combined monitor.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`; its first step panics if `k` is not smaller than
    /// the number of nodes, like every other monitor's.
    pub fn new(k: usize, eps: Epsilon) -> CombinedMonitor {
        CombinedMonitor {
            k,
            eps,
            topk: TopKMonitor::new(k, eps),
            dense: DenseMonitor::new(k, eps),
            active: ActiveProtocol::TopK,
            seen_topk_restarts: 0,
            seen_dense_instances: 0,
            initialised: false,
            switches: 0,
        }
    }

    /// The protocol currently executing.
    pub fn active(&self) -> ActiveProtocol {
        self.active
    }

    /// How often the dispatcher switched between the two protocols.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Evaluates the dispatch condition of Theorem 5.8 with a top-(k+1) probe:
    /// unique output → `TopKProtocol`, dense neighbourhood → `DenseProtocol`.
    fn dispatch(&mut self, net: &mut dyn Network) -> ActiveProtocol {
        // The top-(k+1) probe needs k + 1 nodes; refuse like the inner
        // monitors would, before indexing past the population.
        assert!(
            self.k < net.n(),
            "k = {} must be smaller than the number of nodes n = {}",
            self.k,
            net.n()
        );
        net.meter().push_label(ProtocolLabel::Init);
        let top = top_m(net, self.k + 1);
        net.meter().pop_label();
        let v_k = top[self.k - 1].1;
        let v_k1 = top[self.k].1;
        if self.eps.clearly_smaller(v_k1, v_k) {
            ActiveProtocol::TopK
        } else {
            ActiveProtocol::Dense
        }
    }

    fn maybe_switch(&mut self, net: &mut dyn Network) {
        let restarted = match self.active {
            ActiveProtocol::TopK => self.topk.restarts() > self.seen_topk_restarts,
            ActiveProtocol::Dense => self.dense.instances() > self.seen_dense_instances,
        };
        if !restarted {
            return;
        }
        let wanted = self.dispatch(net);
        if wanted != self.active {
            self.switches += 1;
            self.active = wanted;
            // Start the newly selected protocol from a clean slate; it will
            // initialise (and assign fresh filters) on its next step.
            match wanted {
                ActiveProtocol::TopK => self.topk = TopKMonitor::new(self.k, self.eps),
                ActiveProtocol::Dense => self.dense = DenseMonitor::new(self.k, self.eps),
            }
        }
        self.seen_topk_restarts = self.topk.restarts();
        self.seen_dense_instances = self.dense.instances();
    }
}

impl Monitor for CombinedMonitor {
    fn k(&self) -> usize {
        self.k
    }

    fn eps(&self) -> Option<Epsilon> {
        Some(self.eps)
    }

    fn process_step(&mut self, net: &mut dyn Network) {
        if !self.initialised {
            self.active = self.dispatch(net);
            self.initialised = true;
        }
        match self.active {
            ActiveProtocol::TopK => self.topk.process_step(net),
            ActiveProtocol::Dense => self.dense.process_step(net),
        }
        self.maybe_switch(net);
    }

    fn output(&self) -> Vec<NodeId> {
        match self.active {
            ActiveProtocol::TopK => {
                let out = self.topk.output();
                if out.is_empty() {
                    self.dense.output()
                } else {
                    out
                }
            }
            ActiveProtocol::Dense => {
                let out = self.dense.output();
                if out.is_empty() {
                    self.topk.output()
                } else {
                    out
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "combined"
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
    ) -> (RunReport, CombinedMonitor) {
        let n = rows[0].len();
        let mut net = DeterministicEngine::new(n, seed);
        let mut monitor = CombinedMonitor::new(k, eps);
        let report = run_on_rows(&mut monitor, &mut net, rows, eps);
        (report, monitor)
    }

    #[test]
    fn picks_topk_protocol_on_gap_inputs() {
        let mut w = GapWorkload::standard(12, 3, 100_000, 1);
        let rows: Vec<Vec<Value>> = (0..50).map(|_| w.next_step()).collect();
        let (report, monitor) = drive(rows, 3, Epsilon::TENTH, 1);
        assert_eq!(report.invalid_steps, 0);
        assert_eq!(monitor.active(), ActiveProtocol::TopK);
    }

    #[test]
    fn picks_dense_protocol_on_oscillating_inputs() {
        let eps = Epsilon::TENTH;
        let mut w = NoiseOscillationWorkload::new(16, 2, 10, 100_000, eps, 2);
        let rows: Vec<Vec<Value>> = (0..50).map(|_| w.next_step()).collect();
        let (report, monitor) = drive(rows, 5, eps, 2);
        assert_eq!(report.invalid_steps, 0);
        assert_eq!(monitor.active(), ActiveProtocol::Dense);
    }

    #[test]
    fn switches_when_the_regime_changes() {
        let eps = Epsilon::TENTH;
        // 40 steps of clear gap, then 40 steps of dense oscillation around the
        // (new) k-th value.
        let mut gap = GapWorkload::standard(12, 3, 100_000, 4);
        let mut dense = NoiseOscillationWorkload::new(12, 1, 8, 50_000, eps, 4);
        let mut rows: Vec<Vec<Value>> = (0..40).map(|_| gap.next_step()).collect();
        rows.extend((0..40).map(|_| dense.next_step()));
        let (report, monitor) = drive(rows, 3, eps, 4);
        assert_eq!(report.invalid_steps, 0);
        assert!(
            monitor.switches() >= 1,
            "expected at least one protocol switch"
        );
        assert_eq!(monitor.active(), ActiveProtocol::Dense);
    }

    #[test]
    fn beats_exact_monitor_on_mixed_workloads() {
        let eps = Epsilon::TENTH;
        let mut dense = NoiseOscillationWorkload::new(20, 3, 10, 1_000_000, eps, 9);
        let rows: Vec<Vec<Value>> = (0..120).map(|_| dense.next_step()).collect();
        let (combined_report, _) = drive(rows.clone(), 6, eps, 9);
        let mut net = DeterministicEngine::new(20, 9);
        let mut exact = crate::ExactTopKMonitor::new(6);
        let exact_report = run_on_rows(&mut exact, &mut net, rows, eps);
        assert_eq!(combined_report.invalid_steps, 0);
        assert!(
            combined_report.messages() < exact_report.messages(),
            "combined ({}) should beat exact ({})",
            combined_report.messages(),
            exact_report.messages()
        );
    }
}
