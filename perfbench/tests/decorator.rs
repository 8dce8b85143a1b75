//! The traced run must measure the same program as the bare run: the timing
//! decorator may add time, but never change a message, a coin or an output.

use topk_model::prelude::*;
use topk_net::Network;
use topk_perfbench::trace::{Prim, Spans, Traced};
use topk_perfbench::workload::{run_episode, Workload};

struct Outcome {
    outputs: Vec<Vec<NodeId>>,
    stats: CommStats,
    filters: Vec<Filter>,
    spans: Spans,
}

fn drive(workload: Workload, steps: usize, traced: bool) -> Outcome {
    let mut rows = workload.rows(7);
    let mut engine = workload.engine(11);
    let mut monitor = workload.monitor();
    let mut spans = Spans::default();
    let mut outputs = Vec::new();
    for _ in 0..steps {
        let row = rows.next_step();
        let net = engine.net();
        if traced {
            let mut net = Traced::new(net, &mut spans);
            net.advance_time(&row);
            monitor.process_step(&mut net);
        } else {
            net.advance_time(&row);
            monitor.process_step(net);
        }
        outputs.push(monitor.output());
    }
    Outcome {
        outputs,
        stats: engine.net().stats(),
        filters: engine.net().peek_filters(),
        spans,
    }
}

#[test]
fn decorator_is_transparent_on_every_workload() {
    let steps = 300;
    for workload in Workload::ALL {
        let name = workload.name();
        let bare = drive(workload, steps, false);
        let traced = drive(workload, steps, true);
        assert_eq!(bare.outputs, traced.outputs, "{name}: outputs differ");
        assert_eq!(bare.stats, traced.stats, "{name}: CommStats differ");
        assert_eq!(bare.filters, traced.filters, "{name}: filters differ");

        // Every step and every existence round went through the decorator.
        let spans = traced.spans;
        assert_eq!(spans.get(Prim::Advance).calls, steps as u64, "{name}");
        let rounds: u64 = [Prim::RoundPending, Prim::RoundRank, Prim::RoundThreshold]
            .map(|p| spans.get(p).calls)
            .iter()
            .sum();
        assert_eq!(rounds, traced.stats.rounds, "{name}: rounds missed");
        // Each reply and each probe answer is one upstream message.
        let replies: u64 = Prim::ALL.map(|p| spans.get(p).replies).iter().sum();
        assert_eq!(
            replies + spans.get(Prim::Probe).calls,
            traced.stats.messages_of_kind(MessageKind::Upstream),
            "{name}: replies missed"
        );
    }
}

#[test]
fn traced_episode_matches_the_bare_one_and_repeats() {
    let workload = Workload::NoiseRank;
    let bare = run_episode(workload, 3, false, true);
    assert_eq!(bare.invalid_steps, 0);
    assert_eq!(bare.validated_steps, bare.outputs.len() as u64);
    let first = run_episode(workload, 3, true, false);
    let second = run_episode(workload, 3, true, false);
    for traced in [&first, &second] {
        assert_eq!(traced.outputs, bare.outputs);
        assert_eq!(traced.final_stats, bare.final_stats);
        assert_eq!(traced.final_filters, bare.final_filters);
        assert_eq!(traced.measured_messages, bare.measured_messages);
    }
    let counts = |ep: &topk_perfbench::workload::Episode| ep.trace.as_ref().unwrap().whole.counts();
    assert_eq!(counts(&first), counts(&second), "call counts must repeat");
    assert!(
        first
            .trace
            .as_ref()
            .unwrap()
            .measured
            .get(Prim::RoundRank)
            .calls
            > 0
    );
}
