//! The timing [`Network`] decorator behind the benchmark's traced run.
//!
//! [`Traced`] wraps any engine from the outside and forwards every trait
//! method unchanged, so the wrapped run sends the same messages, draws the
//! same coins and produces the same outputs as the bare engine (the
//! benchmark's tests and its in-run determinism gate both hold it to that).
//! Around each call into a model primitive it records one [`Span`]: a call
//! count, the wall-clock nanoseconds spent inside the engine and, for
//! existence rounds, the replies returned. Existence rounds are split by
//! predicate kind because the paper's protocols spend their time in very
//! different rounds: violation checks ([`Prim::RoundPending`]), threshold
//! searches ([`Prim::RoundThreshold`]) and the maximum protocol's rank
//! windows ([`Prim::RoundRank`]).
//!
//! The free inspection methods (`peek_*`, `stats`, `meter`, `n`) are
//! forwarded untimed: they are not model traffic, and the monitors' phase
//! labelling through `meter` is part of the monitor's own time.

use std::time::Instant;
use topk_model::message::ExistencePredicate;
use topk_model::prelude::*;
use topk_net::Network;

/// One timed model primitive of the [`Network`] trait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prim {
    /// `advance_time` and `advance_time_sparse`: observation delivery.
    Advance,
    /// `apply_membership`.
    Membership,
    /// `broadcast_params` and `broadcast_group`.
    Broadcast,
    /// `assign_group`, `assign_filter`, `assign_query_filter` and
    /// `load_query_filters`.
    Assign,
    /// `probe`.
    Probe,
    /// Existence rounds asking for a pending filter violation.
    RoundPending,
    /// Existence rounds asking for a `RankWindow` (the maximum protocol).
    RoundRank,
    /// Existence rounds with a `GreaterThan`, `AtLeast` or `LessThan`
    /// threshold.
    RoundThreshold,
    /// `end_existence_run`.
    EndRun,
}

impl Prim {
    /// Every primitive, in report order.
    pub const ALL: [Prim; 9] = [
        Prim::Advance,
        Prim::Membership,
        Prim::Broadcast,
        Prim::Assign,
        Prim::Probe,
        Prim::RoundPending,
        Prim::RoundRank,
        Prim::RoundThreshold,
        Prim::EndRun,
    ];

    /// The metric-name component of this primitive (`net.<name>.*`).
    pub fn name(self) -> &'static str {
        match self {
            Prim::Advance => "advance",
            Prim::Membership => "membership",
            Prim::Broadcast => "broadcast",
            Prim::Assign => "assign",
            Prim::Probe => "probe",
            Prim::RoundPending => "round_pending",
            Prim::RoundRank => "round_rank",
            Prim::RoundThreshold => "round_threshold",
            Prim::EndRun => "end_run",
        }
    }

    fn of_predicate(predicate: ExistencePredicate) -> Prim {
        match predicate {
            ExistencePredicate::PendingViolation => Prim::RoundPending,
            ExistencePredicate::RankWindow { .. } => Prim::RoundRank,
            ExistencePredicate::GreaterThan(_)
            | ExistencePredicate::AtLeast(_)
            | ExistencePredicate::LessThan(_) => Prim::RoundThreshold,
        }
    }
}

/// Calls into one primitive: how many, how long, how many replies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// Number of calls.
    pub calls: u64,
    /// Wall-clock nanoseconds spent inside the engine.
    pub ns: u64,
    /// Replies returned (existence rounds only).
    pub replies: u64,
}

/// Accumulated [`Span`]s of every [`Prim`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Spans([Span; Prim::ALL.len()]);

impl Spans {
    /// The span of one primitive.
    pub fn get(&self, prim: Prim) -> Span {
        self.0[prim as usize]
    }

    /// Nanoseconds spent inside the engine, over all primitives.
    pub fn total_ns(&self) -> u64 {
        self.0.iter().map(|s| s.ns).sum()
    }

    /// What was recorded after `earlier` was taken.
    pub fn since(&self, earlier: &Spans) -> Spans {
        let mut out = *self;
        for (o, e) in out.0.iter_mut().zip(&earlier.0) {
            o.calls -= e.calls;
            o.ns -= e.ns;
            o.replies -= e.replies;
        }
        out
    }

    /// Adds `other` field by field.
    pub fn absorb(&mut self, other: &Spans) {
        for (s, o) in self.0.iter_mut().zip(&other.0) {
            s.calls += o.calls;
            s.ns += o.ns;
            s.replies += o.replies;
        }
    }

    /// The call and reply counts with the times zeroed: the part of a trace
    /// that must repeat exactly for a given seed.
    pub fn counts(&self) -> Spans {
        let mut out = *self;
        for s in &mut out.0 {
            s.ns = 0;
        }
        out
    }
}

/// A [`Network`] that forwards to `inner` and records a [`Span`] per call.
pub struct Traced<'a> {
    inner: &'a mut dyn Network,
    spans: &'a mut Spans,
}

impl<'a> Traced<'a> {
    /// Wraps `inner`, accumulating into `spans`.
    pub fn new(inner: &'a mut dyn Network, spans: &'a mut Spans) -> Traced<'a> {
        Traced { inner, spans }
    }

    /// What has been recorded so far.
    pub fn spans(&self) -> &Spans {
        self.spans
    }

    fn timed<R>(&mut self, prim: Prim, call: impl FnOnce(&mut dyn Network) -> R) -> R {
        let start = Instant::now();
        let out = call(&mut *self.inner);
        let span = &mut self.spans.0[prim as usize];
        span.ns += start.elapsed().as_nanos() as u64;
        span.calls += 1;
        out
    }

    fn count_replies(&mut self, prim: Prim, replies: usize) {
        self.spans.0[prim as usize].replies += replies as u64;
    }
}

impl Network for Traced<'_> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn advance_time(&mut self, values: &[Value]) {
        self.timed(Prim::Advance, |net| net.advance_time(values));
    }

    fn advance_time_sparse(&mut self, changes: &[(NodeId, Value)]) {
        self.timed(Prim::Advance, |net| net.advance_time_sparse(changes));
    }

    fn apply_membership(&mut self, events: &[MembershipEvent]) {
        self.timed(Prim::Membership, |net| net.apply_membership(events));
    }

    fn broadcast_params(&mut self, params: FilterParams) {
        self.timed(Prim::Broadcast, |net| net.broadcast_params(params));
    }

    fn assign_group(&mut self, node: NodeId, group: NodeGroup) {
        self.timed(Prim::Assign, |net| net.assign_group(node, group));
    }

    fn broadcast_group(&mut self, group: NodeGroup) {
        self.timed(Prim::Broadcast, |net| net.broadcast_group(group));
    }

    fn assign_filter(&mut self, node: NodeId, filter: Filter) {
        self.timed(Prim::Assign, |net| net.assign_filter(node, filter));
    }

    fn assign_query_filter(&mut self, query: QueryId, node: NodeId, filter: Filter) {
        self.timed(Prim::Assign, |net| {
            net.assign_query_filter(query, node, filter)
        });
    }

    fn load_query_filters(&mut self, filters: &[(NodeId, Filter)]) {
        self.timed(Prim::Assign, |net| net.load_query_filters(filters));
    }

    fn probe(&mut self, node: NodeId) -> Value {
        self.timed(Prim::Probe, |net| net.probe(node))
    }

    fn existence_round(
        &mut self,
        round: u32,
        population: u32,
        predicate: ExistencePredicate,
    ) -> Vec<NodeMessage> {
        let prim = Prim::of_predicate(predicate);
        let replies = self.timed(prim, |net| {
            net.existence_round(round, population, predicate)
        });
        self.count_replies(prim, replies.len());
        replies
    }

    fn existence_round_into(
        &mut self,
        round: u32,
        population: u32,
        predicate: ExistencePredicate,
        replies: &mut Vec<NodeMessage>,
    ) {
        let prim = Prim::of_predicate(predicate);
        self.timed(prim, |net| {
            net.existence_round_into(round, population, predicate, replies)
        });
        self.count_replies(prim, replies.len());
    }

    fn end_existence_run(&mut self) {
        self.timed(Prim::EndRun, |net| net.end_existence_run());
    }

    fn meter(&mut self) -> &mut CostMeter {
        self.inner.meter()
    }

    fn stats(&self) -> CommStats {
        self.inner.stats()
    }

    fn peek_value(&self, node: NodeId) -> Value {
        self.inner.peek_value(node)
    }

    fn peek_filter(&self, node: NodeId) -> Filter {
        self.inner.peek_filter(node)
    }

    fn peek_group(&self, node: NodeId) -> NodeGroup {
        self.inner.peek_group(node)
    }

    fn peek_filters(&self) -> Vec<Filter> {
        self.inner.peek_filters()
    }

    fn peek_values(&self) -> Vec<Value> {
        self.inner.peek_values()
    }

    fn peek_filters_into(&self, out: &mut Vec<Filter>) {
        self.inner.peek_filters_into(out);
    }

    fn peek_values_into(&self, out: &mut Vec<Value>) {
        self.inner.peek_values_into(out);
    }
}
