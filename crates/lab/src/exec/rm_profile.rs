//! `rm_profile` executor: where does the wall go in an n-files-per-round
//! replication campaign?
//!
//! One trial drives the same campaign as `rm_scaling` with the whole
//! streaming observability plane switched on — online lifeline analyzer,
//! live stall probes, metrics flight recorder — and the
//! [`esg_simnet::profile`] subsystem profiler wrapped around the single
//! `run_until` that does the work. The committed `BENCH_profile.json`
//! answers ROADMAP item 4's question with numbers: how much of the wall is
//! kernel shell, allocator, RM bookkeeping, per-transfer polling
//! (`net_poll` — the wall `rm_scaling` found), journal I/O, and event
//! callbacks — with the profiler's tiling guaranteeing the shares sum to
//! what was measured.
//!
//! Every trial runs **twice** and holds the two runs to byte-identical
//! flight tapes and traces of one stored size (`snapshot_match`; the size,
//! `NetLog::stored_bytes`, is reported as `trace_bytes`), and holds the online
//! analyzer's incremental state to the offline `LifelineSet::from_log`
//! pass over the finished trace (`live_match`): same per-file phase
//! totals, same open spans, same trace horizon, and live probes fired for
//! exactly the offline stall set.

use super::campaign_round::CampaignRound;
use super::{put, put_str, TrialCtx};
use crate::journal::{AuxFile, TrialRecord};
use esg_netlogger::{LifelineSet, LiveLifelines, NetLog, OpenSpan};
use esg_reqman::CampaignOutcome;
use esg_simnet::profile;
use esg_simnet::SimDuration;
use std::collections::BTreeSet;

/// The campaign's source dataset.
const DS: &str = "pcm_rmprof.b06";

/// One instrumented run's harvest.
struct ProfRun {
    outcome: CampaignOutcome,
    trace_sha256: String,
    /// The stored trace's size, counted from its lengths.
    trace_bytes: u64,
    tape: String,
    live_match: bool,
    obs_stalls: u64,
    stall_events: u64,
    report: profile::ProfileReport,
    /// `reg.`-prefixed spec metrics harvested after `import_profile`.
    reg: Vec<(String, f64)>,
}

/// Does the online analyzer's incremental state agree with the offline
/// `LifelineSet::from_log` pass over the finished trace? Every lifeline's
/// closed-phase totals, the spans the trace leaves open (with their
/// parents), the trace horizon, and the set of spans the live probes fired
/// for against `detect_stalls`.
fn live_matches_offline(live: &LiveLifelines, log: &NetLog, stall_s: f64) -> bool {
    let offline = LifelineSet::from_log(log);
    let totals = offline.lifelines.iter().all(|l| {
        live.file_phase_totals(l.request, &l.file)
            .unwrap_or_default()
            == l.phase_totals()
    });
    let mut still_open: Vec<_> = offline
        .lifelines
        .iter()
        .flat_map(|l| std::iter::once(&l.root).chain(&l.phases))
        .chain(offline.prestage.iter().chain(&offline.campaigns))
        .filter(|s| s.end.is_none())
        .map(|s| OpenSpan {
            span: s.id,
            parent: s.parent,
            phase: s.phase,
            request: s.request,
            file: s.file.clone(),
            start: s.start,
        })
        .collect();
    still_open.sort_by_key(|s| s.span);
    let fired: BTreeSet<u64> = log
        .named("obs.stall")
        .filter_map(|e| e.get_num("span"))
        .map(|x| x as u64)
        .collect();
    let detected: BTreeSet<u64> = offline
        .detect_stalls(stall_s)
        .iter()
        .map(|s| s.span)
        .collect();
    totals
        && live.open_spans().eq(&still_open)
        && live.trace_end() == offline.trace_end
        && fired == detected
}

fn run_once(ctx: &TrialCtx, tag: &str) -> Result<ProfRun, String> {
    let p = &ctx.params;
    let stall_s = p.f64("stall_threshold_s", 120.0)?;

    let mut round = CampaignRound::prepare(ctx, DS, "rm-profile", tag, 1000)?;
    round
        .tb
        .sim
        .world
        .rm
        .enable_live_analysis(SimDuration::from_secs_f64(stall_s));
    let tape = ctx.tmp_path(tag, "jsonl");
    let _ = std::fs::remove_file(&tape);
    round.spec.recorder = Some(tape.clone());
    round.spec.recorder_every = SimDuration::from_secs(p.u64("recorder_every_s", 30)?);
    round.launch(ctx)?;

    profile::start();
    round.tb.sim.run_until(round.horizon);
    let report = profile::stop();

    let outcome = round.finish()?;
    let tape_body =
        std::fs::read_to_string(&tape).map_err(|e| format!("read {}: {e}", tape.display()))?;
    let _ = std::fs::remove_file(&tape);

    let world = &mut round.tb.sim.world;
    let live = world.rm.log.live().ok_or("live analyzer not attached")?;
    let live_match = live_matches_offline(live, &world.rm.log, stall_s)
        && live.events_seen() == world.rm.log.len() as u64;
    let obs_stalls = world.rm.metrics.counter("obs.stalls");
    let stall_events = world.rm.log.named("obs.stall").count() as u64;
    let trace_sha256 = crate::sha_hex(&world.rm.log.to_ulm());
    let trace_bytes = world.rm.log.stored_bytes();

    // Deterministic profiler counts flow into the registry (`profile.*`);
    // spec-declared metrics are harvested from the unified snapshot.
    world.rm.metrics.import_profile(&report);
    let reg = ctx
        .spec
        .metrics
        .iter()
        .filter_map(|name| world.rm.metrics.value(name).map(|v| (name.clone(), v)))
        .collect();

    Ok(ProfRun {
        outcome,
        trace_sha256,
        trace_bytes,
        tape: tape_body,
        live_match,
        obs_stalls,
        stall_events,
        report,
        reg,
    })
}

pub fn run(ctx: &TrialCtx) -> Result<TrialRecord, String> {
    let n = ctx.params.usize("n", 1000)?;

    let a = run_once(ctx, "a")?;
    let b = run_once(ctx, "b")?;
    let snapshot_match =
        a.tape == b.tape && a.trace_sha256 == b.trace_sha256 && a.trace_bytes == b.trace_bytes;

    // The committed flight tape rides along as an aux artifact.
    let tape_path = ctx
        .spec
        .artifact
        .as_deref()
        .unwrap_or("BENCH_profile.json")
        .replace(".json", &format!("_tape_{}.jsonl", ctx.variant));
    std::fs::write(&tape_path, &a.tape).map_err(|e| format!("write {tape_path}: {e}"))?;
    let tape_sha = crate::sha_hex(&a.tape);

    let r = &a.report;
    let total_ms = r.total_s * 1e3;
    let attributed_ms = r.attributed_s() * 1e3;
    let live_match = a.live_match && b.live_match;

    let mut rec = ctx.record();
    put(&mut rec, "n", n as f64);
    put(&mut rec, "files_total", a.outcome.files_total as f64);
    put(
        &mut rec,
        "files_delivered",
        a.outcome.files_delivered as f64,
    );
    put(&mut rec, "rounds", a.outcome.rounds as f64);
    put(&mut rec, "live_match", f64::from(live_match));
    put(&mut rec, "snapshot_match", f64::from(snapshot_match));
    put(&mut rec, "obs_stalls", a.obs_stalls as f64);
    put(&mut rec, "obs_stall_events", a.stall_events as f64);
    put(&mut rec, "recorder_lines", a.tape.lines().count() as f64);
    for (metric, count) in [
        ("net_poll_calls", "net_poll.calls"),
        ("kernel_events", "kernel.events"),
        ("flow_callbacks", "kernel.flow_callbacks"),
        ("journal_lines", "journal.lines"),
        ("monitor_ticks", "rm.monitor_ticks"),
    ] {
        put(&mut rec, metric, r.count_of(count) as f64);
    }
    put_str(&mut rec, "trace_sha256", a.trace_sha256.clone());
    put_str(&mut rec, "tape_sha256", tape_sha.clone());
    put(&mut rec, "trace_bytes", a.trace_bytes as f64);
    for (name, v) in &a.reg {
        put(&mut rec, &format!("reg.{name}"), *v);
    }

    // Shares of the wall come from the wall: timing, out of the table.
    let frac = |ms: f64| if total_ms > 0.0 { ms / total_ms } else { 0.0 };
    rec.timing.extend([
        ("wall_ms_total".into(), total_ms),
        ("wall_ms_attributed".into(), attributed_ms),
        ("attributed_frac".into(), frac(attributed_ms)),
    ]);
    for name in [
        profile::KERNEL,
        profile::ALLOCATOR,
        profile::RM,
        profile::NET_POLL,
        profile::JOURNAL,
        profile::EVENTS,
    ] {
        let ms = r.self_s_of(name) * 1e3;
        rec.timing.push((format!("wall_ms_{name}"), ms));
        rec.timing.push((format!("share_{name}"), frac(ms)));
    }
    rec.aux.push(AuxFile {
        path: tape_path,
        sha256: tape_sha,
    });
    Ok(rec)
}
