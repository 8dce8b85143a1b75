//! The benchmark command.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload noise-rank --seed 1 --seconds 40 --trace 0
//! ```
//!
//! A run has a fixed list of episodes whose inputs derive from `--seed`.
//! The first pass over them validates every output with `TopKView`; then
//! the episodes are replayed round-robin, each at least once, until
//! `--seconds` have elapsed. A replay must reproduce the first pass's
//! outputs, message counts, final filters and (traced) per-primitive call
//! counts exactly, or the run fails.
//!
//! The host's speed drifts by up to ~1.6x for stretches of seconds to
//! minutes (a fixed loop takes 3.7 ms or 6.5 ms depending on the moment),
//! more than any bound worth gating on. Every replay of an episode does
//! identical work, so each measured step's latency is its least over all
//! replays, and the step metrics are computed over those minima; set-up
//! time is likewise the least over an episode's replays. A change that
//! slows some steps slows every replay of them, so it still shows.
//!
//! With `--trace 1` each episode also runs under the timing decorator, and
//! the run reports the per-layer metrics instead of the end-to-end ones.
//!
//! Every metric is printed as `workload/metric value unit`; the last line is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`.

use std::process::ExitCode;
use std::time::{Duration, Instant};
use topk_model::prelude::*;
use topk_perfbench::trace::{Prim, Spans};
use topk_perfbench::workload::{mix, run_episode, Episode, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <noise-rank|walk-quiet|remote-quiet> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// What an episode must reproduce exactly when its pass is replayed.
struct Reference {
    outputs: Vec<Vec<NodeId>>,
    measured_messages: u64,
    final_stats: CommStats,
    final_filters: Vec<Filter>,
    /// Call and reply counts of the traced run.
    counts: Option<Spans>,
}

impl Reference {
    /// Steps whose output differs from the reference, and whether the
    /// episode's message count and final engine state match.
    fn compare(&self, ep: &Episode) -> (u64, bool) {
        let differing = self
            .outputs
            .iter()
            .zip(&ep.outputs)
            .filter(|(a, b)| a != b)
            .count()
            + self.outputs.len().abs_diff(ep.outputs.len());
        let same_state = self.measured_messages == ep.measured_messages
            && self.final_stats == ep.final_stats
            && self.final_filters == ep.final_filters;
        (differing as u64, same_state)
    }
}

/// What the repetitions of one episode in one mode (bare or traced) keep.
#[derive(Default)]
struct Kept {
    /// Per measured step, its least latency over every repetition.
    step_ns: Vec<u64>,
    /// The repetition with the least total step time, without its outputs.
    fastest: Option<Episode>,
}

impl Kept {
    fn add(&mut self, mut ep: Episode) {
        if self.step_ns.is_empty() {
            self.step_ns.clone_from(&ep.step_ns);
        }
        for (min, &ns) in self.step_ns.iter_mut().zip(&ep.step_ns) {
            *min = (*min).min(ns);
        }
        if self
            .fastest
            .as_ref()
            .is_some_and(|f| f.measured_ns() <= ep.measured_ns())
        {
            return;
        }
        ep.outputs = Vec::new();
        ep.final_filters = Vec::new();
        self.fastest = Some(ep);
    }
}

/// Everything kept about one episode of the pass.
struct Slot {
    reference: Reference,
    bare: Kept,
    traced: Kept,
    setup_ns: u64,
    build_ns: u64,
    first_step_ns: u64,
}

/// Measurements pooled over the kept repetitions of one mode.
#[derive(Default)]
struct Tally {
    episodes: u64,
    step_ns: Vec<u64>,
    steps: u64,
    messages: u64,
    stream_messages: u64,
    stream_steps: u64,
    gen_ns: u64,
    frames: u64,
    bytes: u64,
    polls: u64,
    reconnects: u64,
    first_step: Spans,
    measured: Spans,
    whole: Spans,
    first_step_ns: u64,
    /// Total step time of the kept fastest replays (not per-step minima).
    fastest_ns: u64,
    process_ns: u64,
    process_net_ns: u64,
    output_ns: u64,
}

impl Tally {
    fn of<'a>(kept: impl Iterator<Item = &'a Kept>) -> Tally {
        let mut t = Tally::default();
        for (ep, step_ns) in kept.filter_map(|k| Some((k.fastest.as_ref()?, &k.step_ns))) {
            t.episodes += 1;
            t.step_ns.extend_from_slice(step_ns);
            t.steps += ep.step_ns.len() as u64;
            t.messages += ep.measured_messages;
            t.stream_messages += ep.final_stats.total_messages();
            t.stream_steps += ep.final_stats.time_steps;
            t.gen_ns += ep.gen_ns;
            t.first_step_ns += ep.first_step_ns;
            t.fastest_ns += ep.measured_ns();
            if let Some(w) = ep.transport {
                t.frames += w.frames();
                t.bytes += w.bytes();
                t.polls += w.polls_sent;
                t.reconnects += w.reconnects;
            }
            if let Some(tr) = &ep.trace {
                t.first_step.absorb(&tr.first_step);
                t.measured.absorb(&tr.measured);
                t.whole.absorb(&tr.whole);
                t.process_ns += tr.process_ns;
                t.process_net_ns += tr.process_net_ns;
                t.output_ns += tr.output_ns;
            }
        }
        t
    }

    fn per_step(&self, x: u64) -> f64 {
        x as f64 / self.steps as f64
    }

    fn steps_per_s(&self) -> f64 {
        self.steps as f64 / (self.step_ns.iter().sum::<u64>() as f64 * 1e-9)
    }

    /// Share of the fastest replays' step time spent in `ns`, in percent.
    fn pct_of_step(&self, ns: u64) -> f64 {
        100.0 * ratio(ns, self.fastest_ns)
    }
}

/// Nearest-rank percentile of `samples` (`p` in `0..=1`).
fn percentile(samples: &[u64], p: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(samples: impl Iterator<Item = u64>) -> u64 {
    percentile(&samples.collect::<Vec<_>>(), 0.5)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}

/// Whether the episode's wire, if it has one, needed a `Poll` retry or a
/// reconnect; on loopback it never may.
fn wire_retried(ep: &Episode) -> bool {
    ep.transport
        .is_some_and(|t| t.polls_sent != 0 || t.reconnects != 0)
}

/// The seed of episode `index` of a pass.
fn episode_seed(seed: u64, index: usize) -> u64 {
    mix(seed ^ mix(index as u64))
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: Option<usize>,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples: None,
    }
}

fn sampled(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        samples: Some(samples),
        ..metric(name, value, unit)
    }
}

/// Everything a run measured.
struct Run {
    bare: Tally,
    traced: Tally,
    setup_ns: Vec<u64>,
    build_ns: u64,
    first_step_ns: u64,
    checked: u64,
    failed: u64,
    validate_ns: u64,
    validated_measured: u64,
}

fn end_to_end(run: &Run) -> Result<Vec<Metric>, String> {
    let bare = &run.bare;
    let samples = bare.step_ns.len();
    Ok(vec![
        metric("steps_per_s", bare.steps_per_s(), "1/s"),
        sampled(
            "step_us_p50",
            percentile(&bare.step_ns, 0.50) as f64 / 1e3,
            "us",
            samples,
        ),
        metric(
            "messages_per_step",
            ratio(bare.stream_messages, bare.stream_steps),
            "msg/step",
        ),
        sampled(
            "setup_s",
            percentile(&run.setup_ns, 0.5) as f64 / 1e9,
            "s",
            run.setup_ns.len(),
        ),
        metric("peak_rss_mib", peak_rss_mib()?, "MiB"),
        metric("valid_step_frac", 1.0 - ratio(run.failed, run.checked), "1"),
    ])
}

/// The tail of the per-step minima. It is a per-layer metric, without a
/// bound: over ten runs its spread was 26-29% on walk-quiet and
/// remote-quiet, because in the host's slow stretches some steps never get
/// a fast replay, and those land in the tail.
fn step_p95(bare: &Tally) -> Metric {
    sampled(
        "step.us_p95",
        percentile(&bare.step_ns, 0.95) as f64 / 1e3,
        "us",
        bare.step_ns.len(),
    )
}

fn prim_metric(prim: Prim, what: &str) -> String {
    format!("net.{}.{what}", prim.name())
}

fn per_layer(run: &Run) -> Vec<Metric> {
    let (bare, traced) = (&run.bare, &run.traced);
    let mut out = Vec::new();
    for prim in [
        Prim::RoundRank,
        Prim::RoundPending,
        Prim::RoundThreshold,
        Prim::EndRun,
        Prim::Assign,
        Prim::Broadcast,
        Prim::Probe,
    ] {
        let (measured, whole) = (traced.measured.get(prim), traced.whole.get(prim));
        out.push(metric(
            prim_metric(prim, "calls_per_step"),
            traced.per_step(measured.calls),
            "calls/step",
        ));
        // These protocols never probe nor ask threshold questions on these
        // workloads, and an end-of-run broadcast is not timed apart from
        // the round that ended it, so no per-call time is reported.
        if matches!(prim, Prim::EndRun | Prim::RoundThreshold | Prim::Probe) {
            continue;
        }
        // Over the whole episode, set-up included, so the time per call is
        // defined on every workload that ever makes the call.
        out.push(metric(
            prim_metric(prim, "ns_per_call"),
            ratio(whole.ns, whole.calls),
            "ns/call",
        ));
        if matches!(prim, Prim::RoundRank | Prim::RoundPending) {
            out.push(metric(
                prim_metric(prim, "replies_per_call"),
                ratio(whole.replies, whole.calls),
                "replies/call",
            ));
            out.push(metric(
                prim_metric(prim, "pct_of_step"),
                traced.pct_of_step(measured.ns),
                "%",
            ));
        }
    }
    let advance = traced.measured.get(Prim::Advance);
    let first_rank = traced.first_step.get(Prim::RoundRank);
    out.extend([
        step_p95(bare),
        metric(
            "net.advance.us_per_step",
            traced.per_step(advance.ns) / 1e3,
            "us/step",
        ),
        metric(
            "net.advance.pct_of_step",
            traced.pct_of_step(advance.ns),
            "%",
        ),
        metric(
            "core.measured_messages_per_step",
            traced.per_step(traced.messages),
            "msg/step",
        ),
        metric(
            "core.self_us_per_step",
            traced.per_step(traced.process_ns - traced.process_net_ns) / 1e3,
            "us/step",
        ),
        metric(
            "core.output_us_per_step",
            traced.per_step(traced.output_ns) / 1e3,
            "us/step",
        ),
        metric(
            "wire.frames_per_step",
            traced.per_step(traced.frames),
            "frames/step",
        ),
        metric(
            "wire.bytes_per_step",
            traced.per_step(traced.bytes),
            "B/step",
        ),
        metric(
            "wire.polls_per_step",
            traced.per_step(traced.polls),
            "polls/step",
        ),
        metric("wire.reconnects", traced.reconnects as f64, "count"),
        metric("setup.engine_build_s", run.build_ns as f64 / 1e9, "s"),
        metric("setup.first_step_s", run.first_step_ns as f64 / 1e9, "s"),
        metric(
            "setup.first_step_rank_rounds",
            ratio(first_rank.calls, traced.episodes),
            "rounds",
        ),
        metric(
            "setup.first_step_rank_pct",
            100.0 * ratio(first_rank.ns, traced.first_step_ns),
            "%",
        ),
        metric(
            "model.validate_us_per_step",
            ratio(run.validate_ns, run.validated_measured) / 1e3,
            "us/step",
        ),
        metric(
            "gen.us_per_step",
            bare.per_step(bare.gen_ns) / 1e3,
            "us/step",
        ),
        metric(
            "trace.overhead_pct",
            100.0 * (bare.steps_per_s() / traced.steps_per_s() - 1.0),
            "%",
        ),
    ]);
    out
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let w = args.workload;
    let name = w.name();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut gate: Vec<String> = Vec::new();
    let (mut checked, mut failed, mut validate_ns, mut validated_measured) = (0, 0, 0, 0);

    // The first pass validates every output and becomes the reference.
    let mut slots: Vec<Slot> = (0..w.episodes_per_pass())
        .map(|index| {
            let mut ep = run_episode(w, episode_seed(args.seed, index), false, true);
            if wire_retried(&ep) {
                gate.push(format!("episode {index}: the loopback wire retried"));
            }
            checked += ep.validated_steps;
            failed += ep.invalid_steps;
            validate_ns += ep.validate_ns;
            validated_measured += ep.step_ns.len() as u64;
            let mut slot = Slot {
                reference: Reference {
                    outputs: std::mem::take(&mut ep.outputs),
                    measured_messages: ep.measured_messages,
                    final_stats: ep.final_stats.clone(),
                    final_filters: std::mem::take(&mut ep.final_filters),
                    counts: None,
                },
                bare: Kept::default(),
                traced: Kept::default(),
                setup_ns: ep.setup_ns(),
                build_ns: ep.build_ns,
                first_step_ns: ep.first_step_ns,
            };
            slot.bare.add(ep);
            slot
        })
        .collect();

    // Then every episode is replayed, round-robin, at least once and until
    // the deadline; each replay must reproduce the reference exactly.
    let modes: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let mut replays = 0;
    while replays < slots.len() || Instant::now() < deadline {
        let index = replays % slots.len();
        let slot = &mut slots[index];
        for &traced in modes {
            let ep = run_episode(w, episode_seed(args.seed, index), traced, false);
            if wire_retried(&ep) {
                gate.push(format!(
                    "replay {replays} of episode {index}: the loopback wire retried"
                ));
            }
            let (differing, same_state) = slot.reference.compare(&ep);
            checked += ep.outputs.len() as u64;
            failed += differing;
            if differing > 0 || !same_state {
                gate.push(format!(
                    "replay {replays} of episode {index} (traced: {traced}): {differing} outputs, \
                     the message count or the final state differ from the validated run"
                ));
            }
            if let Some(t) = &ep.trace {
                let counts = t.whole.counts();
                if *slot.reference.counts.get_or_insert(counts) != counts {
                    gate.push(format!(
                        "replay {replays} of episode {index}: per-primitive call counts \
                         differ from the first traced run"
                    ));
                }
            }
            if traced {
                slot.traced.add(ep);
            } else {
                slot.setup_ns = slot.setup_ns.min(ep.setup_ns());
                slot.build_ns = slot.build_ns.min(ep.build_ns);
                slot.first_step_ns = slot.first_step_ns.min(ep.first_step_ns);
                slot.bare.add(ep);
            }
        }
        replays += 1;
    }

    let run = Run {
        bare: Tally::of(slots.iter().map(|s| &s.bare)),
        traced: Tally::of(slots.iter().map(|s| &s.traced)),
        setup_ns: slots.iter().map(|s| s.setup_ns).collect(),
        build_ns: median(slots.iter().map(|s| s.build_ns)),
        first_step_ns: median(slots.iter().map(|s| s.first_step_ns)),
        checked,
        failed,
        validate_ns,
        validated_measured,
    };
    println!(
        "{name}: n={} k={} eps={} episodes={} replays={replays} steps={}",
        w.n(),
        w.k(),
        w.eps().as_f64(),
        slots.len(),
        run.bare.steps
    );
    let e2e = end_to_end(&run)?;
    // Without `--trace` the tail is still printed, but not reported.
    let layers = if args.trace {
        per_layer(&run)
    } else {
        vec![step_p95(&run.bare)]
    };
    for m in e2e.iter().chain(&layers) {
        match m.samples {
            Some(n) => println!("{name}/{} {} {} (n={n})", m.name, m.value, m.unit),
            None => println!("{name}/{} {} {}", m.name, m.value, m.unit),
        }
    }
    for g in &gate {
        eprintln!("{name}: determinism gate failed: {g}");
    }
    if failed > 0 {
        eprintln!("{name}: {failed} of {checked} steps produced an invalid output");
    }
    let correct = failed == 0 && gate.is_empty();
    let reported = if args.trace { &layers } else { &e2e };
    let fields: Vec<String> = reported
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {checked}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The last CPU this process may run on, from `/proc/self/status`.
fn last_allowed_cpu() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let last = list.trim().rsplit([',', '-']).next()?;
    last.parse::<usize>().ok().map(|cpu| cpu.to_string())
}

/// Re-runs this command pinned to one CPU with `taskset` and returns its
/// exit code, or `None` where pinning is unavailable.
///
/// On a VM, waking a thread on the other vCPU costs a host scheduling
/// decision whose latency follows the host's load; the remote engine's
/// shard threads do that on every round trip. On one CPU every hand-off is
/// a local context switch, so the wire layer's cost is what gets measured.
/// The single-threaded workloads are pinned too, so all three run alike.
fn run_pinned() -> Option<ExitCode> {
    const PINNED: &str = "PERFBENCH_PINNED_CPU";
    if std::env::var_os(PINNED).is_some() {
        return None;
    }
    let cpu = last_allowed_cpu()?;
    let exe = std::env::current_exe().ok()?;
    let status = std::process::Command::new("taskset")
        .arg("-c")
        .arg(&cpu)
        .arg(exe)
        .args(std::env::args_os().skip(1))
        .env(PINNED, &cpu)
        .status();
    match status {
        Ok(status) => Some(match status.code() {
            Some(0) => ExitCode::SUCCESS,
            _ => ExitCode::FAILURE,
        }),
        Err(e) => {
            eprintln!("perfbench: running unpinned, taskset failed: {e}");
            None
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(code) = run_pinned() {
        return code;
    }
    run(&args).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::FAILURE
    })
}
