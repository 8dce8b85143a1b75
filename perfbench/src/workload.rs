//! The benchmark's workloads and the closed-loop episode that drives them.
//!
//! An episode is one monitored stream: build the engine and the monitor,
//! process the first (initialisation) step, a few warm-up steps and then the
//! measured steps. One synchronous row source delivers row `t + 1` only
//! after the output of step `t` exists, which is the paper's synchronous
//! time-step model. The timed part of a step is exactly what the server
//! does per observation: `advance_time(row)`, `process_step` and `output()`.
//! Row generation and the ε-top-k validation of every output run off the
//! clock.

use crate::trace::{Spans, Traced};
use std::time::Instant;
use topk_core::{HalfEpsMonitor, Monitor, TopKMonitor};
use topk_gen::{NoiseOscillationWorkload, RandomWalkWorkload, Workload as Rows};
use topk_model::prelude::*;
use topk_net::{build_engine, EngineKind, Network, RemoteEngine, TransportStats};

/// One benchmark workload: a protocol, a row generator and an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `topk_protocol` (Thm 4.5) on oscillating noise with k inside the
    /// pack: every step repairs the output through rank-window rounds.
    NoiseRank,
    /// `half_eps` (Cor 5.9) on a quiet random walk: steady-state steps are
    /// silent, so observation delivery dominates.
    WalkQuiet,
    /// `walk-quiet`'s protocol and generator at n = 2000 on the TCP remote
    /// engine with two shard connections: the wire round trips dominate.
    RemoteQuiet,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::NoiseRank,
        Workload::WalkQuiet,
        Workload::RemoteQuiet,
    ];

    /// The name used on the command line and in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NoiseRank => "noise-rank",
            Workload::WalkQuiet => "walk-quiet",
            Workload::RemoteQuiet => "remote-quiet",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Number of nodes.
    pub fn n(self) -> usize {
        match self {
            Workload::NoiseRank | Workload::RemoteQuiet => 2000,
            Workload::WalkQuiet => 5000,
        }
    }

    /// The monitored `k`.
    pub fn k(self) -> usize {
        match self {
            Workload::NoiseRank => 16,
            Workload::WalkQuiet | Workload::RemoteQuiet => 8,
        }
    }

    /// The monitors' error, also used to validate their outputs.
    pub fn eps(self) -> Epsilon {
        Epsilon::TENTH
    }

    /// Steps processed after the first step and before the measured ones.
    pub fn warmup_steps(self) -> usize {
        match self {
            Workload::NoiseRank => 20,
            Workload::WalkQuiet | Workload::RemoteQuiet => 50,
        }
    }

    /// Measured steps per episode.
    pub fn measured_steps(self) -> usize {
        match self {
            Workload::NoiseRank => 100,
            Workload::WalkQuiet => 500,
            Workload::RemoteQuiet => 200,
        }
    }

    /// Episodes per pass; each has its own seed, so a pass averages over
    /// several independent streams.
    pub fn episodes_per_pass(self) -> usize {
        match self {
            Workload::NoiseRank => 6,
            Workload::WalkQuiet => 8,
            Workload::RemoteQuiet => 4,
        }
    }

    /// The row generator of an episode.
    pub fn rows(self, seed: u64) -> Box<dyn Rows> {
        match self {
            Workload::NoiseRank => Box::new(NoiseOscillationWorkload::new(
                self.n(),
                8,
                32,
                1 << 20,
                self.eps(),
                seed,
            )),
            Workload::WalkQuiet | Workload::RemoteQuiet => Box::new(RandomWalkWorkload::new(
                self.n(),
                1_000_000,
                1_000,
                0.05,
                seed,
            )),
        }
    }

    /// A fresh engine for an episode.
    pub fn engine(self, seed: u64) -> Engine {
        match self {
            Workload::NoiseRank | Workload::WalkQuiet => {
                Engine::Local(build_engine(EngineKind::Indexed, self.n(), seed, None))
            }
            Workload::RemoteQuiet => {
                Engine::Remote(Box::new(RemoteEngine::with_shards(self.n(), seed, 2)))
            }
        }
    }

    /// A fresh monitor for an episode.
    pub fn monitor(self) -> Box<dyn Monitor> {
        match self {
            Workload::NoiseRank => Box::new(TopKMonitor::new(self.k(), self.eps())),
            Workload::WalkQuiet | Workload::RemoteQuiet => {
                Box::new(HalfEpsMonitor::new(self.k(), self.eps()))
            }
        }
    }
}

/// An engine of a workload; the remote one is kept concrete for its wire
/// counters.
pub enum Engine {
    /// An in-process engine built by [`build_engine`].
    Local(Box<dyn Network>),
    /// The TCP loopback engine.
    Remote(Box<RemoteEngine>),
}

impl Engine {
    /// The engine behind the [`Network`] trait.
    pub fn net(&mut self) -> &mut dyn Network {
        match self {
            Engine::Local(net) => net.as_mut(),
            Engine::Remote(net) => net.as_mut(),
        }
    }

    /// Wire counters, for the remote engine.
    pub fn transport(&self) -> Option<TransportStats> {
        match self {
            Engine::Local(_) => None,
            Engine::Remote(net) => Some(net.transport_stats()),
        }
    }
}

/// The per-layer record of a traced episode.
#[derive(Debug, Clone, Default)]
pub struct EpisodeTrace {
    /// Spans of the first (initialisation) step.
    pub first_step: Spans,
    /// Spans of the measured steps.
    pub measured: Spans,
    /// Spans of the whole episode.
    pub whole: Spans,
    /// Nanoseconds in `process_step` over the measured steps.
    pub process_ns: u64,
    /// The part of `process_ns` spent inside the engine.
    pub process_net_ns: u64,
    /// Nanoseconds in `output()` over the measured steps.
    pub output_ns: u64,
}

/// Everything one episode measured and produced.
#[derive(Debug, Clone)]
pub struct Episode {
    /// Engine and monitor construction, in nanoseconds.
    pub build_ns: u64,
    /// The first step, in nanoseconds.
    pub first_step_ns: u64,
    /// Latency of every measured step, in nanoseconds.
    pub step_ns: Vec<u64>,
    /// The output of every step, the first one included.
    pub outputs: Vec<Vec<NodeId>>,
    /// Steps whose output was checked against the ε-top-k definition.
    pub validated_steps: u64,
    /// Validated steps whose output failed the check.
    pub invalid_steps: u64,
    /// Messages sent during the measured steps.
    pub measured_messages: u64,
    /// Communication statistics at the end of the episode.
    pub final_stats: CommStats,
    /// Every node's filter at the end of the episode.
    pub final_filters: Vec<Filter>,
    /// Off-clock validation time over the measured steps, in nanoseconds.
    pub validate_ns: u64,
    /// Off-clock row generation time over the measured steps, in nanoseconds.
    pub gen_ns: u64,
    /// Wire counters of the measured steps (remote engine only).
    pub transport: Option<TransportStats>,
    /// Per-layer spans (traced episodes only).
    pub trace: Option<EpisodeTrace>,
}

impl Episode {
    /// Set-up time: construction plus the first step, in nanoseconds.
    pub fn setup_ns(&self) -> u64 {
        self.build_ns + self.first_step_ns
    }

    /// Total timed step time of the measured steps, in nanoseconds.
    pub fn measured_ns(&self) -> u64 {
        self.step_ns.iter().sum()
    }
}

/// Per-step timestamps of a traced step.
struct StepTimes {
    process_ns: u64,
    process_net_ns: u64,
    output_ns: u64,
}

/// Runs one episode of `workload` with inputs derived from `seed`.
///
/// With `traced`, the engine is wrapped in [`Traced`] for the whole episode.
/// With `validate`, every step's output is checked with [`TopKView`]; a
/// replay of an already validated episode may skip the check and compare
/// its [`Episode::outputs`] instead, since the same rows must give the same
/// outputs.
pub fn run_episode(workload: Workload, seed: u64, traced: bool, validate: bool) -> Episode {
    let (k, eps) = (workload.k(), workload.eps());
    let mut rows = workload.rows(mix(seed));
    let mut spans = Spans::default();
    let mut trace = EpisodeTrace::default();
    let (mut validated_steps, mut invalid_steps) = (0, 0);
    let mut check = |row: &[Value], out: &[NodeId]| {
        if validate {
            validated_steps += 1;
            if !TopKView::new(row, k, eps).validate_output(out).is_valid() {
                invalid_steps += 1;
            }
        }
    };

    let row = rows.next_step();
    let start = Instant::now();
    let mut engine = workload.engine(mix(seed ^ 0x5eed));
    let mut monitor = workload.monitor();
    let build_ns = elapsed_ns(start);
    let start = Instant::now();
    let (out, _) = step(
        engine.net(),
        monitor.as_mut(),
        &row,
        traced.then_some(&mut spans),
    );
    let first_step_ns = elapsed_ns(start);
    trace.first_step = spans;
    check(&row, &out);
    let mut outputs = vec![out];
    for _ in 0..workload.warmup_steps() {
        let row = rows.next_step();
        let (out, _) = step(
            engine.net(),
            monitor.as_mut(),
            &row,
            traced.then_some(&mut spans),
        );
        check(&row, &out);
        outputs.push(out);
    }

    let measured = workload.measured_steps();
    let mut step_ns = Vec::with_capacity(measured);
    let (mut gen_ns, mut validate_ns) = (0, 0);
    let spans_before = spans;
    let messages_before = engine.net().stats().total_messages();
    let transport_before = engine.transport();
    for _ in 0..measured {
        let start = Instant::now();
        let row = rows.next_step();
        gen_ns += elapsed_ns(start);
        let start = Instant::now();
        let (out, times) = step(
            engine.net(),
            monitor.as_mut(),
            &row,
            traced.then_some(&mut spans),
        );
        step_ns.push(elapsed_ns(start));
        if let Some(times) = times {
            trace.process_ns += times.process_ns;
            trace.process_net_ns += times.process_net_ns;
            trace.output_ns += times.output_ns;
        }
        let start = Instant::now();
        check(&row, &out);
        validate_ns += elapsed_ns(start);
        outputs.push(out);
    }
    let final_stats = engine.net().stats();
    trace.measured = spans.since(&spans_before);
    trace.whole = spans;
    let transport = engine
        .transport()
        .zip(transport_before)
        .map(|(after, before)| TransportStats {
            frames_sent: after.frames_sent - before.frames_sent,
            frames_received: after.frames_received - before.frames_received,
            bytes_sent: after.bytes_sent - before.bytes_sent,
            bytes_received: after.bytes_received - before.bytes_received,
            polls_sent: after.polls_sent - before.polls_sent,
            reconnects: after.reconnects - before.reconnects,
        });
    Episode {
        build_ns,
        first_step_ns,
        step_ns,
        outputs,
        validated_steps,
        invalid_steps,
        measured_messages: final_stats.total_messages() - messages_before,
        final_filters: engine.net().peek_filters(),
        final_stats,
        validate_ns,
        gen_ns,
        transport,
        trace: traced.then_some(trace),
    }
}

/// One closed-loop step: deliver `row`, let the monitor react, read its
/// output. With `spans`, the engine is traced and the step's split is
/// returned.
fn step(
    net: &mut dyn Network,
    monitor: &mut dyn Monitor,
    row: &[Value],
    spans: Option<&mut Spans>,
) -> (Vec<NodeId>, Option<StepTimes>) {
    let Some(spans) = spans else {
        net.advance_time(row);
        monitor.process_step(net);
        return (monitor.output(), None);
    };
    let mut net = Traced::new(net, spans);
    net.advance_time(row);
    let net_before = net.spans().total_ns();
    let start = Instant::now();
    monitor.process_step(&mut net);
    let process_ns = elapsed_ns(start);
    let process_net_ns = net.spans().total_ns() - net_before;
    let start = Instant::now();
    let out = monitor.output();
    let output_ns = elapsed_ns(start);
    let times = StepTimes {
        process_ns,
        process_net_ns,
        output_ns,
    };
    (out, Some(times))
}

fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// SplitMix64 finaliser: derives independent seeds from one.
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
