//! Experiment harness binary.
//!
//! ```text
//! cargo run -p topk-bench --bin experiments --release            # all experiments, full scale
//! cargo run -p topk-bench --bin experiments --release -- e1 e5   # a subset
//! cargo run -p topk-bench --bin experiments --release -- --small # quick smoke run
//! cargo run -p topk-bench --bin experiments --release -- --json results/
//! cargo run -p topk-bench --bin experiments --release -- --throughput               # engine bench
//! cargo run -p topk-bench --bin experiments --release -- --throughput --quick       # CI smoke
//! cargo run -p topk-bench --bin experiments --release -- --throughput --sharded 8   # 8 workers
//! cargo run -p topk-bench --bin experiments --release -- --scaling --quick          # scaling smoke
//! cargo run -p topk-bench --bin experiments --release -- --check-floors FILE.json   # validate only
//! cargo run -p topk-bench --bin experiments --release -- --campaign                 # scenario grid
//! cargo run -p topk-bench --bin experiments --release -- --campaign --quick         # CI smoke
//! cargo run -p topk-bench --bin experiments --release -- --campaign --quick --faults-only
//! cargo run -p topk-bench --bin experiments --release -- --campaign --quick --membership-only
//! cargo run -p topk-bench --bin experiments --release -- --campaign --quick --multiquery-only
//! cargo run -p topk-bench --bin experiments --release -- --check-competitive-floors FILE.json
//! ```
//!
//! Prints one aligned table per experiment (the tables quoted in
//! EXPERIMENTS.md) and optionally writes each as JSON into a directory.
//!
//! `--throughput` runs the engine throughput benchmark instead (baseline vs.
//! indexed vs. sharded engine, see `topk_bench::throughput`), writes
//! `BENCH_throughput.json` (path overridable with `--out FILE`) and exits
//! non-zero if an engine regresses below the CI floors. `--sharded <threads>`
//! sets the sharded engine's worker count (default 4). `--remote <conns>`
//! measures the TCP-loopback `RemoteEngine` on `<conns>` shard connections —
//! steps/sec plus the wire-level frames/sec and bytes per model message —
//! and writes `BENCH_remote.json`; on its own it runs just that axis,
//! combined with `--throughput` it runs after the in-process matrix.
//! `--check-floors FILE` re-validates an existing report — CI uses it to
//! hold the *committed* full-scale `BENCH_throughput.json` to the `n = 10⁶`
//! floors without re-measuring on shared runners, and the committed
//! `BENCH_remote.json` to the frames-per-step ceiling of its silent rows.
//!
//! `--scaling` measures just the multi-core scaling curve (the sharded engine
//! across worker counts on the noise/dense cell), writes
//! `BENCH_scaling.json` — or `BENCH_scaling_quick.json` with `--quick` — and
//! exits non-zero if a point misses the parallel-efficiency floor. The CI
//! scaling-smoke job runs the quick curve on every push; the committed
//! full-scale curve is embedded in `BENCH_throughput.json` and guarded by
//! `--check-floors`.
//!
//! `--campaign` runs the scenario campaign (see `topk_bench::campaign`): the
//! full generator × protocol × ε × n grid with empirical competitive ratios
//! against OPT, written to `BENCH_competitive.json` (overridable with `--out`)
//! and self-validated against the floor table. `--baseline COMMITTED.json`
//! additionally holds every freshly measured cell to the ceilings of the
//! committed report — the CI ratchet (the full grid contains the quick grid
//! verbatim, and the cells are bit-deterministic, so a regression past the
//! committed headroom fails the run). `--faults-only` re-measures just the
//! fault axis (`topk_bench::campaign::run_faults_report`) — the cheap smoke
//! CI runs on every push, written to `BENCH_faults_quick.json` by default and
//! ratcheted against the committed full report's fault cells via
//! `--baseline`. `--membership-only` is the same smoke mode for the
//! membership axis (`topk_bench::campaign::run_membership_report`): the
//! churn grid re-measured and ratcheted against the committed report's
//! membership cells, written to `BENCH_membership_quick.json` by default.
//! `--multiquery-only` is the same smoke mode for the multi-query axis
//! (`topk_bench::campaign::run_multiquery_report`): the shared-population
//! plan grid re-measured, its amortization held to the committed ceilings,
//! written to `BENCH_multiquery_quick.json` by default.
//! `--check-competitive-floors FILE` re-validates a committed
//! campaign report without re-measuring. All numeric bars of both check
//! modes live in `topk_bench::floors::FloorTable`.
//!
//! The *scenario-file* modes work on the declarative JSON scenarios under
//! `scenarios/` (schema in `docs/SCENARIOS.md`, loader in
//! `topk_bench::scenario`): `--scenario FILE` runs one cell under every
//! protocol (its fault/membership companions included), `--scenario-dir DIR`
//! runs a whole library (`--quick` caps the horizon and skips the largest
//! populations, logging every cap). `--emit-scenarios DIR` regenerates the
//! canonical library from the compiled-in grids, and `--check-scenarios DIR`
//! fails when the directory differs from that derivation by a single byte —
//! the CI guard that keeps `scenarios/` and `standard_grid` the same object.
//!
//! The *trace* modes record and re-drive full runs (`topk_bench::replay`,
//! wire format in `topk_wire::trace`): `--scenario FILE --record OUT.trace`
//! records the run (protocol selectable with `--protocol NAME`), and
//! `--replay FILE.trace` re-drives the recording through all six engines —
//! or one, with `--engine NAME` — and exits non-zero unless every reply,
//! message counter and the final filter/value state match bit for bit.

use std::path::{Path, PathBuf};
use topk_bench::experiments::{self, Scale};
use topk_bench::{campaign, replay, scenario, throughput, ExperimentTable, FloorTable};
use topk_offline::PhaseSolver;

fn report_floors(report: &throughput::ThroughputReport) -> ! {
    let failures = throughput::check_floors(report);
    if failures.is_empty() {
        let floors = FloorTable::STANDARD.throughput;
        println!(
            "floors ok: indexed >= {}x baseline (and >= {} steps/s) at n=1e5, sharded >= {}x indexed at n=1e6 (or >= {}x at n=1e5 for quick runs), noise/dense; scaling curve >= {} worker counts with parallel efficiency >= {}",
            floors.indexed_speedup,
            floors.indexed_absolute_steps_per_sec,
            floors.sharded_speedup_full,
            floors.sharded_speedup_quick,
            floors.scaling_min_worker_counts,
            floors.scaling_efficiency_full,
        );
        std::process::exit(0);
    }
    for f in &failures {
        eprintln!("FLOOR REGRESSION: {f}");
    }
    std::process::exit(1);
}

fn report_competitive_floors(report: &campaign::CompetitiveReport) -> ! {
    let failures = campaign::check_competitive_floors(report);
    if failures.is_empty() {
        let floors = FloorTable::STANDARD.competitive;
        println!(
            "competitive floors ok: {} cells, >= {} protocols x >= {} families, 0 invalid steps, every ratio within its ceiling",
            report.cells.len(),
            floors.min_protocols,
            floors.min_generators,
        );
        std::process::exit(0);
    }
    for f in &failures {
        eprintln!("COMPETITIVE FLOOR REGRESSION: {f}");
    }
    std::process::exit(1);
}

fn run_faults_bench(quick: bool, out: PathBuf, baseline: Option<PathBuf>) -> ! {
    let report = campaign::run_faults_report(quick, |line| eprintln!("{line}"));
    std::fs::write(&out, campaign::to_json(&report)).expect("write fault campaign json");
    eprintln!("wrote {}", out.display());
    if let Some(path) = baseline {
        // The fault ratchet: hold the freshly measured fault cells to the
        // ratio and degradation ceilings committed in the full report.
        let json = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {}: {e}", path.display()));
        let committed: campaign::CompetitiveReport = serde_json::from_str(&json)
            .unwrap_or_else(|e| panic!("cannot parse baseline {}: {e}", path.display()));
        let failures = campaign::check_against_baseline(&report, &committed);
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("FAULT FLOOR REGRESSION: {f}");
            }
            std::process::exit(1);
        }
        eprintln!(
            "baseline ok: all {} fault cells within the ceilings committed in {}",
            report.fault_cells.len(),
            path.display()
        );
    }
    let floors = FloorTable::STANDARD.competitive;
    let failures = campaign::check_fault_cells(&report.fault_cells, &floors, &report.scale);
    if failures.is_empty() {
        println!(
            "fault floors ok: {} fault cells across >= {} families, every ratio/degradation within its ceiling, damage within {}‰ of steps",
            report.fault_cells.len(),
            floors.min_fault_families,
            floors.fault_invalid_fraction_permille,
        );
        std::process::exit(0);
    }
    for f in &failures {
        eprintln!("FAULT FLOOR REGRESSION: {f}");
    }
    std::process::exit(1);
}

fn run_membership_bench(quick: bool, out: PathBuf, baseline: Option<PathBuf>) -> ! {
    let report = campaign::run_membership_report(quick, |line| eprintln!("{line}"));
    std::fs::write(&out, campaign::to_json(&report)).expect("write membership campaign json");
    eprintln!("wrote {}", out.display());
    if let Some(path) = baseline {
        // The membership ratchet: hold the freshly measured membership cells
        // to the ratio and degradation ceilings committed in the full report.
        let json = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {}: {e}", path.display()));
        let committed: campaign::CompetitiveReport = serde_json::from_str(&json)
            .unwrap_or_else(|e| panic!("cannot parse baseline {}: {e}", path.display()));
        let failures = campaign::check_against_baseline(&report, &committed);
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("MEMBERSHIP FLOOR REGRESSION: {f}");
            }
            std::process::exit(1);
        }
        eprintln!(
            "baseline ok: all {} membership cells within the ceilings committed in {}",
            report.membership_cells.len(),
            path.display()
        );
    }
    let floors = FloorTable::STANDARD.competitive;
    let failures =
        campaign::check_membership_cells(&report.membership_cells, &floors, &report.scale);
    if failures.is_empty() {
        println!(
            "membership floors ok: {} membership cells across >= {} churn plans, every ratio/degradation within its ceiling, invalid steps within {}‰",
            report.membership_cells.len(),
            floors.min_membership_plans,
            floors.membership_invalid_fraction_permille,
        );
        std::process::exit(0);
    }
    for f in &failures {
        eprintln!("MEMBERSHIP FLOOR REGRESSION: {f}");
    }
    std::process::exit(1);
}

fn run_multiquery_bench(quick: bool, out: PathBuf, baseline: Option<PathBuf>) -> ! {
    let report = campaign::run_multiquery_report(quick, |line| eprintln!("{line}"));
    std::fs::write(&out, campaign::to_json(&report)).expect("write multiquery campaign json");
    eprintln!("wrote {}", out.display());
    if let Some(path) = baseline {
        // The multi-query ratchet: hold the freshly measured amortization of
        // every cell to the ceiling committed in the full report.
        let json = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {}: {e}", path.display()));
        let committed: campaign::CompetitiveReport = serde_json::from_str(&json)
            .unwrap_or_else(|e| panic!("cannot parse baseline {}: {e}", path.display()));
        let failures = campaign::check_against_baseline(&report, &committed);
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("MULTIQUERY FLOOR REGRESSION: {f}");
            }
            std::process::exit(1);
        }
        eprintln!(
            "baseline ok: all {} multi-query cells within the amortization ceilings committed in {}",
            report.multiquery_cells.len(),
            path.display()
        );
    }
    let floors = FloorTable::STANDARD.competitive;
    let failures =
        campaign::check_multiquery_cells(&report.multiquery_cells, &floors, &report.scale);
    if failures.is_empty() {
        println!(
            "multiquery floors ok: {} multi-query cells across twin/overlap/disjoint plans, every amortization within its ceiling, invalid steps within {}‰, shared runs amortize on at least one cell",
            report.multiquery_cells.len(),
            floors.multiquery_invalid_fraction_permille,
        );
        std::process::exit(0);
    }
    for f in &failures {
        eprintln!("MULTIQUERY FLOOR REGRESSION: {f}");
    }
    std::process::exit(1);
}

fn run_campaign_bench(quick: bool, out: PathBuf, baseline: Option<PathBuf>) -> ! {
    let report = campaign::run_campaign(quick, |line| eprintln!("{line}"));
    std::fs::write(&out, campaign::to_json(&report)).expect("write campaign json");
    eprintln!("wrote {}", out.display());
    if let Some(path) = baseline {
        // The ratchet: hold the freshly measured cells to the ceilings of the
        // committed report (the full grid contains the quick grid verbatim).
        let json = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {}: {e}", path.display()));
        let committed: campaign::CompetitiveReport = serde_json::from_str(&json)
            .unwrap_or_else(|e| panic!("cannot parse baseline {}: {e}", path.display()));
        let failures = campaign::check_against_baseline(&report, &committed);
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("COMPETITIVE FLOOR REGRESSION: {f}");
            }
            std::process::exit(1);
        }
        eprintln!(
            "baseline ok: all {} measured cells within the ceilings committed in {}",
            report.cells.len(),
            path.display()
        );
    }
    report_competitive_floors(&report)
}

fn check_competitive_floors_only(path: PathBuf) -> ! {
    let json = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let report: campaign::CompetitiveReport = serde_json::from_str(&json)
        .unwrap_or_else(|e| panic!("cannot parse {}: {e}", path.display()));
    eprintln!(
        "checking competitive floors of {} ({} scale, {} cells)",
        path.display(),
        report.scale,
        report.cells.len()
    );
    // The committed report this mode guards must be a full-scale run — a
    // quick-scale file would cover a thinner grid than the acceptance bar.
    if report.scale != "full" {
        eprintln!(
            "COMPETITIVE FLOOR REGRESSION: {} is a '{}'-scale report; the committed report must be full-scale",
            path.display(),
            report.scale
        );
        std::process::exit(1);
    }
    report_competitive_floors(&report)
}

fn run_scaling_bench(quick: bool, out: PathBuf) -> ! {
    let report = throughput::run_scaling(quick, |line| eprintln!("{line}"));
    std::fs::write(&out, throughput::scaling_to_json(&report)).expect("write scaling json");
    eprintln!("wrote {}", out.display());
    let failures = throughput::check_scaling_floors(&report);
    if failures.is_empty() {
        let floors = FloorTable::STANDARD.throughput;
        println!(
            "scaling floors ok: {} worker counts on {} cores, every point's parallel efficiency >= {} (full) / {} (quick)",
            report.rows.len(),
            report.cores,
            floors.scaling_efficiency_full,
            floors.scaling_efficiency_quick,
        );
        std::process::exit(0);
    }
    for f in &failures {
        eprintln!("SCALING FLOOR REGRESSION: {f}");
    }
    std::process::exit(1);
}

fn run_remote_bench(quick: bool, conns: usize) {
    let remote = throughput::run_remote(quick, conns, |line| eprintln!("{line}"));
    let remote_out = PathBuf::from("BENCH_remote.json");
    std::fs::write(&remote_out, throughput::remote_to_json(&remote)).expect("write remote json");
    eprintln!("wrote {}", remote_out.display());
}

fn run_throughput_bench(
    quick: bool,
    sharded_workers: usize,
    remote_conns: Option<usize>,
    out: PathBuf,
) -> ! {
    let report = throughput::run_throughput(quick, sharded_workers, |line| eprintln!("{line}"));
    std::fs::write(&out, throughput::to_json(&report)).expect("write throughput json");
    eprintln!("wrote {}", out.display());
    if let Some(conns) = remote_conns {
        run_remote_bench(quick, conns);
    }
    for s in &report.speedups_dense {
        println!(
            "speedup {:>12} n={:>8}: {:>8.1}x (indexed vs baseline, dense delivery)",
            s.generator, s.n, s.speedup
        );
    }
    for s in &report.speedups_sharded {
        println!(
            "speedup {:>12} n={:>8}: {:>8.1}x (sharded vs indexed, dense delivery)",
            s.generator, s.n, s.speedup
        );
    }
    report_floors(&report)
}

fn check_floors_only(path: PathBuf) -> ! {
    let json = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    if let Ok(remote) = serde_json::from_str::<throughput::RemoteReport>(&json) {
        report_remote_floors(&path, &remote);
    }
    let report: throughput::ThroughputReport = serde_json::from_str(&json)
        .unwrap_or_else(|e| panic!("cannot parse {}: {e}", path.display()));
    eprintln!(
        "checking floors of {} ({} scale, {} rows)",
        path.display(),
        report.scale,
        report.rows.len()
    );
    // The committed report this mode guards must be a full-scale run — a
    // quick-scale file would only ever be held to the loose smoke floors.
    if report.scale != "full" {
        eprintln!(
            "FLOOR REGRESSION: {} is a '{}'-scale report; the committed benchmark must be full-scale",
            path.display(),
            report.scale
        );
        std::process::exit(1);
    }
    report_floors(&report)
}

/// Holds a remote-transport report to the frames-per-step ceiling. Frame
/// counts do not depend on the measuring machine, so any scale qualifies.
fn report_remote_floors(path: &Path, report: &throughput::RemoteReport) -> ! {
    eprintln!(
        "checking remote floors of {} ({} scale, {} rows)",
        path.display(),
        report.scale,
        report.rows.len()
    );
    let failures = throughput::check_remote_floors(report);
    if failures.is_empty() {
        println!(
            "floors ok: every silent row moves <= {} frames per step and shard",
            FloorTable::STANDARD.remote.max_silent_frames_per_shard_step
        );
        std::process::exit(0);
    }
    for f in &failures {
        eprintln!("FLOOR REGRESSION: {f}");
    }
    std::process::exit(1);
}

fn run_emit_scenarios(dir: PathBuf) -> ! {
    match scenario::emit_library(&dir) {
        Ok(names) => {
            println!(
                "wrote {} scenario files into {} (canonical derivation of the standard grids)",
                names.len(),
                dir.display()
            );
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("--emit-scenarios failed: {e}");
            std::process::exit(1);
        }
    }
}

fn run_check_scenarios(dir: PathBuf) -> ! {
    let problems = scenario::check_library_sync(&dir);
    if problems.is_empty() {
        println!(
            "scenario library ok: {} canonical files, byte-identical to the compiled-in grids",
            scenario::standard_library().len()
        );
        std::process::exit(0);
    }
    for p in &problems {
        eprintln!("SCENARIO LIBRARY DRIFT: {p}");
    }
    eprintln!(
        "{} problem(s); regenerate with: experiments --emit-scenarios {}",
        problems.len(),
        dir.display()
    );
    std::process::exit(1);
}

fn load_scenario_or_exit(path: &Path) -> scenario::ScenarioFile {
    match scenario::load_scenario(path) {
        Ok(file) => file,
        Err(e) => {
            eprintln!("invalid scenario: {e}");
            std::process::exit(1);
        }
    }
}

fn run_record(scenario_path: PathBuf, out: PathBuf, protocol_name: Option<String>) -> ! {
    let file = load_scenario_or_exit(&scenario_path);
    if file.queries.is_some() {
        eprintln!("--record takes a single-query scenario (traces record one monitor's run)");
        std::process::exit(2);
    }
    let name = protocol_name.unwrap_or_else(|| "topk_protocol".to_string());
    let Some(protocol) = campaign::ProtocolKind::from_name(&name) else {
        eprintln!(
            "--protocol: unknown protocol `{name}` (one of: {})",
            campaign::ProtocolKind::ALL.map(|p| p.name()).join(", ")
        );
        std::process::exit(2);
    };
    let (report, records) = replay::record_run(&file, protocol);
    if let Err(e) = replay::save_trace(&out, &records) {
        eprintln!("cannot write trace {}: {e}", out.display());
        std::process::exit(1);
    }
    println!(
        "recorded {}: {} under {} — {} steps, {} messages, {} records -> {}",
        file.name,
        scenario_path.display(),
        protocol.name(),
        report.steps,
        report.messages(),
        records.len(),
        out.display()
    );
    std::process::exit(0);
}

fn run_replay(path: PathBuf, engine_name: Option<String>) -> ! {
    let records = match replay::load_trace(&path) {
        Ok(records) => records,
        Err(e) => {
            eprintln!("cannot read trace {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    let kinds: Vec<replay::EngineKind> = match &engine_name {
        None => replay::EngineKind::ALL.to_vec(),
        Some(name) => {
            let Some(kind) = replay::EngineKind::ALL
                .into_iter()
                .find(|k| k.name() == *name)
            else {
                eprintln!(
                    "--engine: unknown engine `{name}` (one of: {})",
                    replay::EngineKind::ALL.map(|k| k.name()).join(", ")
                );
                std::process::exit(2);
            };
            vec![kind]
        }
    };
    let mut diverged = false;
    for kind in kinds {
        match replay::replay_trace(&records, kind) {
            Ok(outcome) if outcome.is_identical() => {
                println!(
                    "replay {:>13} ok: {} — {} steps bit-identical",
                    outcome.engine, outcome.label, outcome.steps
                );
            }
            Ok(outcome) => {
                diverged = true;
                for m in &outcome.mismatches {
                    eprintln!("REPLAY DIVERGENCE [{}]: {m}", outcome.engine);
                }
            }
            Err(e) => {
                eprintln!("replay through {} failed: {e}", kind.name());
                std::process::exit(1);
            }
        }
    }
    std::process::exit(i32::from(diverged));
}

/// Caps one scenario for a `--quick` smoke run. Returns `None` (with a log
/// line) when the cell is too large to smoke at all.
fn quick_cap(mut file: scenario::ScenarioFile) -> Option<scenario::ScenarioFile> {
    const MAX_QUICK_N: usize = 1024;
    const MAX_QUICK_STEPS: usize = 60;
    if file.spec.n > MAX_QUICK_N {
        eprintln!(
            "skip {} (n = {} exceeds the quick cap of {MAX_QUICK_N})",
            file.name, file.spec.n
        );
        return None;
    }
    if file.spec.steps > MAX_QUICK_STEPS {
        eprintln!(
            "cap  {} ({} steps -> {MAX_QUICK_STEPS} for the quick run)",
            file.name, file.spec.steps
        );
        file.spec.steps = MAX_QUICK_STEPS;
    }
    Some(file)
}

fn run_scenario_cells(files: Vec<scenario::ScenarioFile>, quick: bool) -> ! {
    let mut solver = PhaseSolver::new();
    let mut failures: Vec<String> = Vec::new();
    let mut cells = 0usize;
    for file in files {
        let Some(file) = (if quick { quick_cap(file) } else { Some(file) }) else {
            continue;
        };
        // Per-scenario floor overrides (schema v2) take effect here: the
        // file's `floors` block replaces the corresponding standard bars.
        let floors = file.effective_floors();
        if let Some(queries) = &file.queries {
            // A multi-query scenario is one shared-engine cell, not a
            // per-protocol loop — the plan embeds each query's protocol.
            let plan = campaign::MultiQueryPlanSpec {
                name: file.name.clone(),
                queries: queries.clone(),
            };
            let cell = campaign::run_multiquery_cell(&file.spec, &plan, &floors);
            cells += 1;
            println!(
                "{:<44} queries={:<2} messages={:>9} independent={:>9} amortization={:>6.3} invalid={}",
                file.name,
                queries.len(),
                cell.messages,
                cell.independent_messages,
                cell.amortization,
                cell.invalid_steps
            );
            let step_budget = (file.spec.steps * queries.len()) as u64;
            let allowed = floors.multiquery_invalid_fraction_permille * step_budget / 1000;
            if cell.invalid_steps > allowed {
                failures.push(format!(
                    "{}: {} invalid steps exceed the {}‰ multi-query bar ({} allowed)",
                    file.name,
                    cell.invalid_steps,
                    floors.multiquery_invalid_fraction_permille,
                    allowed
                ));
            }
            continue;
        }
        for protocol in campaign::ProtocolKind::ALL {
            // The clean cell is both the base measurement and the reference
            // the fault/membership companions are compared against.
            let clean = campaign::run_cell(&file.spec, protocol, &floors, &mut solver);
            cells += 1;
            if let Some(fault) = &file.fault {
                let cell = campaign::run_fault_cell(
                    &file.spec,
                    fault,
                    protocol,
                    &floors,
                    &mut solver,
                    clean.messages,
                );
                println!(
                    "{:<44} {:>13} fault={:<7} messages={:>9} ratio={:>7.2} degradation={:>5.2} invalid={}",
                    file.name,
                    protocol.name(),
                    cell.fault_family,
                    cell.messages,
                    cell.ratio,
                    cell.degradation,
                    cell.invalid_steps
                );
            } else if let Some(plan) = &file.membership {
                let cell = campaign::run_membership_cell(
                    &file.spec,
                    plan,
                    protocol,
                    &floors,
                    &mut solver,
                    clean.messages,
                );
                println!(
                    "{:<44} {:>13} churn={:<9} messages={:>9} ratio={:>7.2} degradation={:>5.2} invalid={}",
                    file.name,
                    protocol.name(),
                    plan.name(),
                    cell.messages,
                    cell.ratio,
                    cell.degradation,
                    cell.invalid_steps
                );
            } else {
                println!(
                    "{:<44} {:>13} messages={:>9} ratio={:>7.2} invalid={}",
                    file.name,
                    protocol.name(),
                    clean.messages,
                    clean.ratio,
                    clean.invalid_steps
                );
                if clean.invalid_steps > 0 {
                    failures.push(format!(
                        "{} under {}: {} invalid steps on a fault-free run",
                        file.name,
                        protocol.name(),
                        clean.invalid_steps
                    ));
                }
                // An overridden poll-factor bar gates the clean cells of
                // exactly this scenario (the standard bar only gates the
                // compiled-in campaign grid).
                if file.floors.is_some() {
                    let poll = (file.spec.n * file.spec.steps).max(1) as f64;
                    let factor = clean.messages as f64 / poll;
                    if factor > floors.max_poll_factor {
                        failures.push(format!(
                            "{} under {}: poll factor {factor:.3} exceeds the scenario's {:.3} bar",
                            file.name,
                            protocol.name(),
                            floors.max_poll_factor
                        ));
                    }
                }
            }
        }
    }
    if failures.is_empty() {
        println!("scenario run ok: {cells} cells, every fault-free cell valid at every step");
        std::process::exit(0);
    }
    for f in &failures {
        eprintln!("SCENARIO FAILURE: {f}");
    }
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Full;
    let mut json_dir: Option<PathBuf> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut throughput_mode = false;
    let mut scaling_mode = false;
    let mut campaign_mode = false;
    let mut faults_only = false;
    let mut membership_only = false;
    let mut multiquery_only = false;
    let mut quick = false;
    let mut out: Option<PathBuf> = None;
    let mut sharded_workers = 4usize;
    let mut sharded_set = false;
    let mut remote_conns: Option<usize> = None;
    let mut check_floors_path: Option<PathBuf> = None;
    let mut check_competitive_path: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut scenario_path: Option<PathBuf> = None;
    let mut scenario_dir: Option<PathBuf> = None;
    let mut record_path: Option<PathBuf> = None;
    let mut replay_path: Option<PathBuf> = None;
    let mut emit_scenarios_dir: Option<PathBuf> = None;
    let mut check_scenarios_dir: Option<PathBuf> = None;
    let mut protocol_name: Option<String> = None;
    let mut engine_name: Option<String> = None;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--small" => scale = Scale::Small,
            "--throughput" => throughput_mode = true,
            "--scaling" => scaling_mode = true,
            "--campaign" => campaign_mode = true,
            "--faults-only" => faults_only = true,
            "--membership-only" => membership_only = true,
            "--multiquery-only" => multiquery_only = true,
            "--quick" => quick = true,
            "--sharded" => {
                let parsed = iter.next().and_then(|w| w.parse::<usize>().ok());
                let Some(workers) = parsed.filter(|&w| w >= 1) else {
                    eprintln!("--sharded requires a worker count >= 1");
                    std::process::exit(2);
                };
                sharded_workers = workers;
                sharded_set = true;
            }
            "--remote" => {
                let parsed = iter.next().and_then(|w| w.parse::<usize>().ok());
                let Some(conns) = parsed.filter(|&w| w >= 1) else {
                    eprintln!("--remote requires a connection count >= 1");
                    std::process::exit(2);
                };
                remote_conns = Some(conns);
            }
            "--check-floors" => {
                let Some(path) = iter.next() else {
                    eprintln!("--check-floors requires a json file argument");
                    std::process::exit(2);
                };
                check_floors_path = Some(PathBuf::from(path));
            }
            "--check-competitive-floors" => {
                let Some(path) = iter.next() else {
                    eprintln!("--check-competitive-floors requires a json file argument");
                    std::process::exit(2);
                };
                check_competitive_path = Some(PathBuf::from(path));
            }
            "--baseline" => {
                let Some(path) = iter.next() else {
                    eprintln!("--baseline requires a json file argument");
                    std::process::exit(2);
                };
                baseline_path = Some(PathBuf::from(path));
            }
            "--out" => {
                let Some(path) = iter.next() else {
                    eprintln!("--out requires a file argument");
                    std::process::exit(2);
                };
                out = Some(PathBuf::from(path));
            }
            "--scenario" => {
                let Some(path) = iter.next() else {
                    eprintln!("--scenario requires a scenario json file argument");
                    std::process::exit(2);
                };
                scenario_path = Some(PathBuf::from(path));
            }
            "--scenario-dir" => {
                let Some(path) = iter.next() else {
                    eprintln!("--scenario-dir requires a directory argument");
                    std::process::exit(2);
                };
                scenario_dir = Some(PathBuf::from(path));
            }
            "--record" => {
                let Some(path) = iter.next() else {
                    eprintln!("--record requires an output trace file argument");
                    std::process::exit(2);
                };
                record_path = Some(PathBuf::from(path));
            }
            "--replay" => {
                let Some(path) = iter.next() else {
                    eprintln!("--replay requires a trace file argument");
                    std::process::exit(2);
                };
                replay_path = Some(PathBuf::from(path));
            }
            "--emit-scenarios" => {
                let Some(path) = iter.next() else {
                    eprintln!("--emit-scenarios requires a directory argument");
                    std::process::exit(2);
                };
                emit_scenarios_dir = Some(PathBuf::from(path));
            }
            "--check-scenarios" => {
                let Some(path) = iter.next() else {
                    eprintln!("--check-scenarios requires a directory argument");
                    std::process::exit(2);
                };
                check_scenarios_dir = Some(PathBuf::from(path));
            }
            "--protocol" => {
                let Some(name) = iter.next() else {
                    eprintln!("--protocol requires a protocol name argument");
                    std::process::exit(2);
                };
                protocol_name = Some(name);
            }
            "--engine" => {
                let Some(name) = iter.next() else {
                    eprintln!("--engine requires an engine name argument");
                    std::process::exit(2);
                };
                engine_name = Some(name);
            }
            "--json" => {
                json_dir = iter.next().map(PathBuf::from);
                if json_dir.is_none() {
                    eprintln!("--json requires a directory argument");
                    std::process::exit(2);
                }
            }
            "--help" | "-h" => {
                println!(
                    "usage: experiments [--small] [--json DIR] [e1 e2 ... e8]\n       experiments --throughput [--quick] [--sharded THREADS] [--remote CONNS] [--out FILE]\n       experiments --scaling [--quick] [--out FILE]\n       experiments --campaign [--quick] [--faults-only | --membership-only | --multiquery-only] [--out FILE] [--baseline COMMITTED.json]\n       experiments --check-floors FILE.json\n       experiments --check-competitive-floors FILE.json\n       experiments --scenario FILE.json [--quick]\n       experiments --scenario FILE.json --record OUT.trace [--protocol NAME]\n       experiments --scenario-dir DIR [--quick]\n       experiments --replay FILE.trace [--engine NAME]\n       experiments --emit-scenarios DIR\n       experiments --check-scenarios DIR"
                );
                return;
            }
            other => wanted.push(other.to_lowercase()),
        }
    }
    if let Some(path) = check_floors_path {
        if throughput_mode
            || scaling_mode
            || campaign_mode
            || scale == Scale::Small
            || json_dir.is_some()
            || !wanted.is_empty()
            || quick
            || out.is_some()
            || sharded_set
            || remote_conns.is_some()
            || check_competitive_path.is_some()
            || baseline_path.is_some()
            || faults_only
            || membership_only
        {
            eprintln!("--check-floors does not combine with other modes or flags");
            std::process::exit(2);
        }
        check_floors_only(path);
    }
    if let Some(path) = check_competitive_path {
        if throughput_mode
            || scaling_mode
            || campaign_mode
            || scale == Scale::Small
            || json_dir.is_some()
            || !wanted.is_empty()
            || quick
            || out.is_some()
            || sharded_set
            || remote_conns.is_some()
            || baseline_path.is_some()
            || faults_only
            || membership_only
        {
            eprintln!("--check-competitive-floors does not combine with other modes or flags");
            std::process::exit(2);
        }
        check_competitive_floors_only(path);
    }
    let scenario_mode = scenario_path.is_some()
        || scenario_dir.is_some()
        || record_path.is_some()
        || replay_path.is_some()
        || emit_scenarios_dir.is_some()
        || check_scenarios_dir.is_some();
    if scenario_mode {
        if throughput_mode
            || scaling_mode
            || campaign_mode
            || scale == Scale::Small
            || json_dir.is_some()
            || !wanted.is_empty()
            || sharded_set
            || remote_conns.is_some()
            || baseline_path.is_some()
            || faults_only
            || membership_only
            || out.is_some()
        {
            eprintln!(
                "the scenario/trace modes do not combine with the benchmark modes or their flags"
            );
            std::process::exit(2);
        }
        if scenario_path.is_some() && scenario_dir.is_some() {
            eprintln!("--scenario and --scenario-dir are mutually exclusive");
            std::process::exit(2);
        }
        if protocol_name.is_some() && record_path.is_none() {
            eprintln!("--protocol only applies to --record");
            std::process::exit(2);
        }
        if engine_name.is_some() && replay_path.is_none() {
            eprintln!("--engine only applies to --replay");
            std::process::exit(2);
        }
        if let Some(dir) = emit_scenarios_dir {
            if scenario_path.is_some()
                || scenario_dir.is_some()
                || record_path.is_some()
                || replay_path.is_some()
                || check_scenarios_dir.is_some()
                || quick
            {
                eprintln!("--emit-scenarios is a standalone mode");
                std::process::exit(2);
            }
            run_emit_scenarios(dir);
        }
        if let Some(dir) = check_scenarios_dir {
            if scenario_path.is_some()
                || scenario_dir.is_some()
                || record_path.is_some()
                || replay_path.is_some()
                || quick
            {
                eprintln!("--check-scenarios is a standalone mode");
                std::process::exit(2);
            }
            run_check_scenarios(dir);
        }
        if let Some(path) = replay_path {
            if scenario_path.is_some() || scenario_dir.is_some() || record_path.is_some() || quick {
                eprintln!("--replay only combines with --engine");
                std::process::exit(2);
            }
            run_replay(path, engine_name);
        }
        if let Some(out_path) = record_path {
            let Some(path) = scenario_path else {
                eprintln!("--record needs --scenario FILE to know what to run");
                std::process::exit(2);
            };
            if scenario_dir.is_some() || quick {
                eprintln!("--record only combines with --scenario and --protocol");
                std::process::exit(2);
            }
            run_record(path, out_path, protocol_name);
        }
        if let Some(path) = scenario_path {
            run_scenario_cells(vec![load_scenario_or_exit(&path)], quick);
        }
        if let Some(dir) = scenario_dir {
            match scenario::load_scenario_dir(&dir) {
                Ok(files) if files.is_empty() => {
                    eprintln!("{}: no scenario files found", dir.display());
                    std::process::exit(1);
                }
                Ok(files) => run_scenario_cells(files, quick),
                Err(e) => {
                    eprintln!("invalid scenario library: {e}");
                    std::process::exit(1);
                }
            }
        }
        unreachable!("every scenario mode dispatches above");
    }
    if protocol_name.is_some() || engine_name.is_some() {
        eprintln!("--protocol/--engine only apply to the scenario/trace modes");
        std::process::exit(2);
    }
    if campaign_mode {
        if throughput_mode
            || scaling_mode
            || scale == Scale::Small
            || json_dir.is_some()
            || !wanted.is_empty()
            || sharded_set
            || remote_conns.is_some()
        {
            eprintln!("--campaign does not combine with --throughput/--small/--json/--sharded/--remote/experiment ids (use --quick, --out and --baseline)");
            std::process::exit(2);
        }
        if (faults_only as u8) + (membership_only as u8) + (multiquery_only as u8) > 1 {
            eprintln!(
                "--faults-only, --membership-only and --multiquery-only are mutually exclusive"
            );
            std::process::exit(2);
        }
        // Quick runs default to their own file: a bare `--campaign --quick`
        // must never clobber the committed full-scale report.
        let default_out = if faults_only {
            if quick {
                "BENCH_faults_quick.json"
            } else {
                "BENCH_faults.json"
            }
        } else if membership_only {
            if quick {
                "BENCH_membership_quick.json"
            } else {
                "BENCH_membership.json"
            }
        } else if multiquery_only {
            if quick {
                "BENCH_multiquery_quick.json"
            } else {
                "BENCH_multiquery.json"
            }
        } else if quick {
            "BENCH_competitive_quick.json"
        } else {
            "BENCH_competitive.json"
        };
        let out = out.unwrap_or_else(|| PathBuf::from(default_out));
        if faults_only {
            run_faults_bench(quick, out, baseline_path);
        }
        if membership_only {
            run_membership_bench(quick, out, baseline_path);
        }
        if multiquery_only {
            run_multiquery_bench(quick, out, baseline_path);
        }
        run_campaign_bench(quick, out, baseline_path);
    }
    if faults_only {
        eprintln!("--faults-only only applies to --campaign");
        std::process::exit(2);
    }
    if membership_only {
        eprintln!("--membership-only only applies to --campaign");
        std::process::exit(2);
    }
    if multiquery_only {
        eprintln!("--multiquery-only only applies to --campaign");
        std::process::exit(2);
    }
    if baseline_path.is_some() {
        eprintln!("--baseline only applies to --campaign");
        std::process::exit(2);
    }
    if scaling_mode {
        if throughput_mode
            || scale == Scale::Small
            || json_dir.is_some()
            || !wanted.is_empty()
            || sharded_set
            || remote_conns.is_some()
        {
            eprintln!("--scaling does not combine with --throughput/--small/--json/--sharded/--remote/experiment ids (use --quick and --out)");
            std::process::exit(2);
        }
        // Quick runs default to their own file so a smoke run never clobbers
        // a committed full-scale curve.
        let default_out = if quick {
            "BENCH_scaling_quick.json"
        } else {
            "BENCH_scaling.json"
        };
        run_scaling_bench(quick, out.unwrap_or_else(|| PathBuf::from(default_out)));
    }
    if throughput_mode {
        if scale == Scale::Small || json_dir.is_some() || !wanted.is_empty() {
            eprintln!("--throughput does not combine with --small/--json/experiment ids (use --quick and --out instead)");
            std::process::exit(2);
        }
        run_throughput_bench(
            quick,
            sharded_workers,
            remote_conns,
            out.unwrap_or_else(|| PathBuf::from("BENCH_throughput.json")),
        );
    }
    if let Some(conns) = remote_conns {
        // `--remote` on its own: just the transport axis, no in-process matrix.
        if scale == Scale::Small
            || json_dir.is_some()
            || !wanted.is_empty()
            || out.is_some()
            || sharded_set
        {
            eprintln!(
                "--remote on its own does not combine with --small/--json/--out/--sharded/experiment ids"
            );
            std::process::exit(2);
        }
        run_remote_bench(quick, conns);
        return;
    }
    if quick || out.is_some() {
        eprintln!(
            "--quick/--out only apply to --throughput/--scaling/--remote (did you mean --small/--json?)"
        );
        std::process::exit(2);
    }

    let run = |id: &str| wanted.is_empty() || wanted.iter().any(|w| w == id);
    let mut tables: Vec<ExperimentTable> = Vec::new();
    if run("e1") {
        tables.push(experiments::e1_existence(scale));
    }
    if run("e2") {
        tables.push(experiments::e2_maximum(scale));
    }
    if run("e3") {
        tables.push(experiments::e3_exact_topk(scale));
    }
    if run("e4") {
        tables.push(experiments::e4_topk_protocol(scale));
    }
    if run("e5") {
        tables.push(experiments::e5_lower_bound(scale));
    }
    if run("e6") {
        tables.push(experiments::e6_dense(scale));
    }
    if run("e7") {
        tables.push(experiments::e7_half_eps(scale));
    }
    if run("e8") {
        tables.push(experiments::e8_crossover(scale));
    }

    for table in &tables {
        println!("{table}");
    }
    if let Some(dir) = json_dir {
        std::fs::create_dir_all(&dir).expect("create json output directory");
        for table in &tables {
            let path = dir.join(format!("{}.json", table.id.to_lowercase()));
            std::fs::write(&path, table.to_json()).expect("write json table");
            eprintln!("wrote {}", path.display());
        }
    }
}
