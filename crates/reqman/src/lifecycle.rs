//! The per-file lifecycle as one pure step function.
//!
//! [`FileLife::step`] takes one [`Event`] — something that happened to a
//! file, or the answer to a query made for it — and pushes the
//! [`Effect`]s that follow, in the order they must happen. Its arms are the
//! rows of DESIGN.md's "Per-file lifecycle" table. It reads no clock,
//! network, catalog or log: the time, the policy ([`Rules`]) and every
//! outcome arrive as arguments, so each row can be tested without a
//! simulator. `manager.rs` is the driver: it makes every call that reads or
//! changes the world, steps the file and applies the effects.

use crate::integrity::SegRecord;
use crate::reliability::RetryPolicy;
use crate::TransferTuning;
use esg_gridftp::simxfer::{TransferError, TransferHandle};
use esg_gridftp::{repair_ranges, RangeSet};
use esg_netlogger::{LogEvent, Phase, Text};
use esg_simnet::{NodeId, SimDuration, SimTime};
use esg_storage::BLOCK_SIZE;

/// Status of one file within a request.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FileStatus {
    pub collection: String,
    pub name: String,
    pub size: u64,
    pub bytes_done: u64,
    pub replica_host: Option<String>,
    pub attempts: u32,
    pub done: bool,
    /// Gave up: the retry policy's `max_attempts` cap was reached.
    pub failed: bool,
    /// Waiting on HRM tape staging until this time.
    pub staging_until: Option<SimTime>,
}

impl FileStatus {
    pub fn fraction(&self) -> f64 {
        if self.size == 0 {
            1.0
        } else {
            self.bytes_done as f64 / self.size as f64
        }
    }
}

/// What a pull fetches. In GridFTP a restart and a partial (ERET) retrieval
/// are the same ranged get; the kinds differ in what the RM does around it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PullKind {
    /// A counted attempt at the file's undelivered tail `[base, size)`.
    Attempt,
    /// An ERET re-fetch of corrupt blocks of a fully delivered file: not an
    /// attempt, exempt from the per-host cap, and banks no restart marker.
    Repair,
}

/// The pull a file committed to at selection. Its `(host, kind)` is the
/// file's entry in the manager-wide ledger, held through tape staging and
/// transfer set-up until the pull ends.
pub(crate) struct Pull {
    pub host: Text,
    pub kind: PullKind,
    pub src: NodeId,
    pub tuning: TransferTuning,
    /// The GridFTP transfer, once one started.
    pub live: Option<LivePull>,
}

/// The one live GridFTP transfer of a file.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LivePull {
    pub handle: TransferHandle,
    pub started: SimTime,
    /// `bytes_done` when the pull started; the monitor adds the live
    /// transfer's progress on top. A repair starts from a fully delivered
    /// file, so its progress never counts as new delivery.
    pub base: u64,
    /// Transfer sequence number — the wire-corruption sampling key.
    pub seq: u64,
}

/// How a file leaves its request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Settled {
    /// Delivered (and digest-verified when the catalog pins a digest).
    Done,
    /// Given up: the retry policy's attempt cap is exhausted.
    Failed,
}

/// Block-granular ERET repair rounds before a corrupt file escalates to a
/// whole-file re-transfer.
pub(crate) const MAX_REPAIR_ROUNDS: u32 = 3;

/// The manager's settings a step reads.
pub(crate) struct Rules {
    pub retry: RetryPolicy,
    pub min_rate: f64,
    pub grace: SimDuration,
}

pub(crate) enum Event {
    /// The request's RPC landed: the lifeline opens, in `Queue`.
    Open,
    /// The file got one of its request's admission slots; it then wakes.
    Admitted,
    /// The worker wakes: a backoff, deferral or tape stage elapsed.
    Wake,
    /// The selection round's answer.
    Selected(Selection),
    /// `start_transfer` returned a handle; the transfer's sequence number.
    Started(TransferHandle, u64),
    /// The pull was refused at its start or failed after it.
    Failed(TransferError),
    /// The transfer delivered these ranges.
    Delivered(RangeSet),
    /// One monitor poll of the live transfer.
    Poll(Poll),
    /// The verification's answer.
    Verified(Verdict),
}

/// What the monitor read of a live transfer: its delivered bytes, whether
/// every stream is stalled, its rate, and how long it has run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Poll {
    pub bytes: u64,
    pub stalled: bool,
    pub rate: f64,
    pub age: SimDuration,
}

pub(crate) enum Selection {
    /// The tenant is at its share (`true`), or every healthy candidate is
    /// at its host cap: a capacity wait, not a failure.
    Deferred(bool),
    /// No candidate; how many replicas the catalog registers.
    Empty(usize),
    Chosen(Choice),
}

pub(crate) struct Choice {
    pub host: Text,
    pub src: NodeId,
    pub tuning: TransferTuning,
    /// The `rm.tune.path` record of how `tuning` was chosen.
    pub tune: LogEvent,
    /// The tape stage the site's HRM started: its delay and its
    /// `rm.hrm.staging` record.
    pub stage: Option<(SimDuration, LogEvent)>,
}

pub(crate) enum Verdict {
    /// The catalog pins no digest: legacy trust.
    Trusted,
    /// Every block matches; the file digest.
    Clean(String),
    /// Corrupt blocks (none when no block explains a whole-file mismatch)
    /// and the hosts blamed for them.
    Corrupt {
        blocks: Vec<u64>,
        blamed: Vec<String>,
    },
}

pub(crate) enum Effect {
    /// Open the root `Phase::File` span.
    Open,
    /// Close the open phase span, crediting it `bytes` when given, and open
    /// this phase at the same instant.
    Enter(Phase, Option<u64>),
    /// Emit the event in the file's context, counting it under the name
    /// when one is given.
    Note(Option<&'static str>, LogEvent),
    /// Take the host breaker's admission and the ledger entry.
    Commit(Text, PullKind),
    /// Give the ledger entry back, and with it any half-open probe slot;
    /// `Some(true)` first records a success on the host, `Some(false)` then
    /// records a failure.
    Release(Text, PullKind, Option<bool>),
    /// Run a selection round: for an attempt (`None`), or for a repair
    /// passing over the blamed hosts.
    Select(Option<Vec<String>>),
    /// Verify the banked segments against the catalog's digest.
    Verify,
    /// Start the ranged get from `src` under the tuning.
    Launch(NodeId, RangeSet, TransferTuning),
    /// Arm the request's monitor tick unless it is armed.
    Watch,
    /// Cancel the live transfer.
    Cancel(TransferHandle),
    /// Wake after this delay (the tape stage; zero without one).
    Wait(SimDuration),
    /// Wake after a delay drawn from the retry policy.
    Backoff,
    /// Wake after `DEFER_RETRY`; `true` when the tenant is at its share.
    Defer(bool),
    /// The file left its request; `true` when it gave back an admission
    /// slot.
    Settle(Settled, bool),
}

/// One file's lifecycle state: its status, the open phase and what it
/// holds — the admission slot and the committed [`Pull`] — plus the data
/// banked across pulls.
#[derive(Default)]
pub(crate) struct FileLife {
    pub status: FileStatus,
    /// The open phase span's phase; `None` until the lifeline opens and
    /// again once the file settles.
    pub phase: Option<Phase>,
    /// Holds one of its request's admission slots, kept across retries.
    pub slot: bool,
    pub pull: Option<Pull>,
    /// Hosts already tried and failed in the current selection round.
    /// Cleared whenever the round runs dry — long-term memory of host
    /// health lives in the manager's circuit breakers instead.
    pub excluded: Vec<String>,
    /// The catalog knows this logical file (size lookup succeeded).
    pub known: bool,
    /// Provenance of every banked byte range, for post-delivery digest
    /// verification. Cleared when a repair escalates to a full re-fetch.
    pub segments: Vec<SegRecord>,
    /// Block-granular repair rounds consumed since the last full fetch.
    pub repair_rounds: u32,
    /// Total bytes re-fetched by ERET repairs (reporting; never reset).
    pub repair_bytes: u64,
    /// The corrupt ranges of a repair whose source is being selected.
    pub repair: Option<RangeSet>,
}

impl FileLife {
    pub fn settled(&self) -> bool {
        self.status.done || self.status.failed
    }

    pub fn live(&self) -> Option<LivePull> {
        self.pull.as_ref().and_then(|p| p.live)
    }

    /// Apply `ev` at `now`, pushing the effects onto `fx`. A settled file
    /// ignores every event.
    pub fn step(&mut self, ev: Event, now: SimTime, rules: &Rules, fx: &mut Vec<Effect>) {
        if self.settled() {
            return;
        }
        match ev {
            Event::Open => {
                self.phase = Some(Phase::Queue);
                fx.extend([Effect::Open, Effect::Enter(Phase::Queue, None)]);
            }
            Event::Admitted => {
                self.slot = true;
                self.wake(now, rules, fx);
            }
            Event::Wake => self.wake(now, rules, fx),
            Event::Selected(sel) => self.selected(sel, now, fx),
            Event::Started(handle, seq) => {
                let base = self.status.bytes_done;
                let Some(pull) = &mut self.pull else {
                    return;
                };
                pull.live = Some(LivePull {
                    handle,
                    started: now,
                    base,
                    seq,
                });
                // A repair opened `Repair` when it committed.
                if pull.kind == PullKind::Attempt {
                    self.enter(Phase::Transfer, None, fx);
                }
                fx.push(Effect::Watch);
            }
            Event::Failed(err) => {
                let Some(pull) = self.pull.take() else {
                    return;
                };
                // An unreachable source counts against its breaker and, for
                // an attempt, is passed over for the rest of this round (a
                // repair re-plans from the verifier's blame list). Anything
                // else is a global outage that heals: no host is blamed.
                let unreachable = matches!(err, TransferError::NoRoute { .. });
                if unreachable && pull.kind == PullKind::Attempt {
                    self.excluded.push(pull.host.to_string());
                }
                fx.push(Effect::Release(
                    pull.host,
                    pull.kind,
                    unreachable.then_some(false),
                ));
                self.backoff(fx);
            }
            Event::Delivered(ranges) => {
                let Some(pull) = self.pull.take() else {
                    return;
                };
                // Bank the delivered ranges with their provenance so
                // verification can reconstruct what was received; a repair's
                // are the newest writes and overwrite the corrupt ones.
                for (start, end) in ranges.iter() {
                    self.bank(&pull, start, end, now);
                }
                self.status.bytes_done = self.status.size;
                fx.push(Effect::Release(pull.host, pull.kind, Some(true)));
                // Attempt deltas telescope, so a file's Transfer spans sum to
                // its size.
                self.enter(Phase::Verify, Some(ranges.total()), fx);
                self.verify(fx);
            }
            Event::Poll(poll) => self.poll(poll, now, rules, fx),
            Event::Verified(verdict) => self.verified(verdict, now, fx),
        }
    }

    /// The worker wakes: it launches the pull it committed to (the tape
    /// stage is over), verifies a file whose bytes are all banked, gives up
    /// at the attempt cap, or runs a selection round.
    fn wake(&mut self, now: SimTime, rules: &Rules, fx: &mut Vec<Effect>) {
        if let Some(pull) = &self.pull {
            // The resume point is read as the transfer starts, so the
            // restart marker and the requested range are the same snapshot.
            let base = self.status.bytes_done;
            self.status.staging_until = None;
            if base > 0 {
                let marker = LogEvent::new(now, "rm.failover.restart_marker").field("offset", base);
                fx.push(Effect::Note(None, marker));
            }
            let mut tail = RangeSet::new();
            tail.insert(base, self.status.size);
            fx.push(Effect::Launch(pull.src, tail, pull.tuning));
        } else if self.known && self.status.bytes_done >= self.status.size {
            // All bytes present is not all bytes correct: a banked range
            // never completes a file unverified.
            self.verify(fx);
        } else if rules.retry.exhausted(self.status.attempts) {
            self.settle(Settled::Failed, fx);
        } else {
            self.enter(Phase::Select, None, fx);
            fx.push(Effect::Select(None));
        }
    }

    fn selected(&mut self, sel: Selection, now: SimTime, fx: &mut Vec<Effect>) {
        let repair = self.repair.take();
        match (sel, repair) {
            (Selection::Chosen(c), repair) => {
                let kind = match repair {
                    Some(_) => PullKind::Repair,
                    None => PullKind::Attempt,
                };
                self.status.replica_host = Some(c.host.to_string());
                fx.push(Effect::Commit(c.host.clone(), kind));
                let host = c.host.clone();
                self.pull = Some(Pull {
                    host: c.host,
                    kind,
                    src: c.src,
                    tuning: c.tuning,
                    live: None,
                });
                if let Some(ranges) = repair {
                    let bytes = ranges.total();
                    self.repair_rounds += 1;
                    self.repair_bytes += bytes;
                    self.enter(Phase::Repair, None, fx);
                    let eret = LogEvent::new(now, "integrity.repair.eret")
                        .field("host", host)
                        .field("bytes", bytes)
                        .field("spans", ranges.span_count() as u64)
                        .field("round", self.repair_rounds as u64);
                    fx.push(Effect::Note(Some("rm.integrity.repairs"), eret));
                    fx.push(Effect::Note(None, c.tune));
                    fx.push(Effect::Launch(c.src, ranges, c.tuning));
                    return;
                }
                // Every event of this attempt carries its new number.
                self.status.attempts += 1;
                let selected = LogEvent::new(now, "rm.replica.selected").field("host", host);
                fx.push(Effect::Note(None, selected));
                let mut delay = SimDuration::ZERO;
                if let Some((stage, staging)) = c.stage {
                    delay = stage;
                    self.status.staging_until = Some(now + stage);
                    self.enter(Phase::Stage, None, fx);
                    fx.push(Effect::Note(None, staging));
                }
                fx.extend([Effect::Note(None, c.tune), Effect::Wait(delay)]);
            }
            // No source for the repair right now: back off, then verify and
            // re-plan it.
            (_, Some(_)) => self.backoff(fx),
            (Selection::Deferred(by_tenant), None) => fx.push(Effect::Defer(by_tenant)),
            // Nothing registered anywhere: the file is unsatisfiable and
            // stays pending, mirroring a catalog misconfiguration.
            (Selection::Empty(0), None) if self.excluded.is_empty() => {}
            // Every replica is excluded or breaker-blocked: clear the
            // round's exclusions and wait out a backoff; the breakers'
            // cooldowns decide when a downed host is probed again.
            (Selection::Empty(_), None) => {
                self.excluded.clear();
                self.backoff(fx);
            }
        }
    }

    /// One monitor poll: update the visible progress and apply the §7
    /// reliability plugin — a stalled, too slow or timed-out pull is
    /// abandoned, its delivered prefix banked as the restart marker, its
    /// host excluded, and the worker wakes for an alternate.
    fn poll(&mut self, poll: Poll, now: SimTime, rules: &Rules, fx: &mut Vec<Effect>) {
        let Some(live) = self.live() else {
            return;
        };
        let banked = (live.base + poll.bytes).min(self.status.size);
        self.status.bytes_done = self.status.bytes_done.max(banked);
        let too_slow = rules.min_rate > 0.0 && poll.age > rules.grace && poll.rate < rules.min_rate;
        let limit = rules.retry.attempt_timeout;
        let timed_out = !limit.is_zero() && poll.age > limit;
        if !(poll.stalled || too_slow || timed_out) {
            return;
        }
        let Some(pull) = self.pull.take() else {
            return;
        };
        // The polled bytes are the marker: the cancel reads the same
        // transfer at the same instant. A repair's marker banks nothing.
        let delta = match pull.kind {
            PullKind::Attempt => banked.saturating_sub(live.base),
            PullKind::Repair => 0,
        };
        if delta > 0 {
            self.bank(&pull, live.base, banked, now);
        }
        self.excluded.push(pull.host.to_string());
        let failover = LogEvent::new(now, "rm.reliability.failover")
            .field("from", pull.host.clone())
            .field("stalled", poll.stalled as u64)
            .field("timeout", timed_out as u64)
            .field("rate", poll.rate);
        fx.extend([
            Effect::Cancel(live.handle),
            Effect::Release(pull.host, pull.kind, Some(false)),
            Effect::Note(Some("rm.failovers"), failover),
        ]);
        self.enter(Phase::Select, Some(delta), fx);
        self.wake(now, rules, fx);
    }

    fn verified(&mut self, verdict: Verdict, now: SimTime, fx: &mut Vec<Effect>) {
        match verdict {
            Verdict::Trusted => self.settle(Settled::Done, fx),
            Verdict::Clean(digest) => {
                let ok = LogEvent::new(now, "integrity.file.verified")
                    .field("digest", digest)
                    .field("repair_rounds", self.repair_rounds as u64)
                    .field("repair_bytes", self.repair_bytes);
                fx.push(Effect::Note(Some("rm.integrity.verified"), ok));
                self.settle(Settled::Done, fx);
            }
            // Repair budget spent, or a whole-file mismatch no block
            // explains: re-fetch everything, preferring hosts that were not
            // blamed. The attempt cap still bounds the file — it fails
            // loudly rather than completing corrupt.
            Verdict::Corrupt { blocks, blamed }
                if blocks.is_empty() || self.repair_rounds >= MAX_REPAIR_ROUNDS =>
            {
                self.status.bytes_done = 0;
                self.segments.clear();
                self.repair_rounds = 0;
                self.excluded = blamed;
                let escalate = LogEvent::new(now, "integrity.repair.escalate")
                    .field("blocks", blocks.len() as u64);
                fx.push(Effect::Note(Some("rm.integrity.escalations"), escalate));
                self.backoff(fx);
            }
            // Block-granular repair: re-fetch only the corrupt byte ranges.
            Verdict::Corrupt { blocks, blamed } => {
                self.repair = Some(repair_ranges(&blocks, self.status.size, BLOCK_SIZE));
                fx.push(Effect::Select(Some(blamed)));
            }
        }
    }

    /// The one terminal transition: give back the admission slot and close
    /// the lifeline. A file settles at a verdict or at the attempt cap, each
    /// reached only after its pull was given back.
    fn settle(&mut self, how: Settled, fx: &mut Vec<Effect>) {
        debug_assert!(self.pull.is_none(), "settled holding a pull");
        if how == Settled::Done {
            self.status.bytes_done = self.status.size;
            self.status.done = true;
        } else {
            self.status.failed = true;
        }
        self.phase = None;
        fx.push(Effect::Settle(how, std::mem::take(&mut self.slot)));
    }

    /// Close the open phase and open `phase`; re-entering the open phase
    /// (a deferral loop, a re-verify) changes nothing and drops `bytes`.
    fn enter(&mut self, phase: Phase, bytes: Option<u64>, fx: &mut Vec<Effect>) {
        if self.phase.is_some_and(|open| open != phase) {
            self.phase = Some(phase);
            fx.push(Effect::Enter(phase, bytes));
        }
    }

    fn verify(&mut self, fx: &mut Vec<Effect>) {
        self.enter(Phase::Verify, None, fx);
        fx.push(Effect::Verify);
    }

    fn backoff(&mut self, fx: &mut Vec<Effect>) {
        self.enter(Phase::Backoff, None, fx);
        fx.push(Effect::Backoff);
    }

    /// Record `[start, end)` as delivered by `pull`, up to `now`.
    fn bank(&mut self, pull: &Pull, start: u64, end: u64, now: SimTime) {
        let live = pull.live.expect("a pull that delivered had started");
        self.segments.push(SegRecord {
            host: pull.host.to_string(),
            node: pull.src,
            start,
            end,
            t0: live.started,
            t1: now,
            seq: live.seq,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = BLOCK_SIZE;
    const T: SimTime = SimTime(5_000_000_000);

    fn rules(max_attempts: u32) -> Rules {
        Rules {
            retry: RetryPolicy {
                max_attempts,
                attempt_timeout: SimDuration::from_secs(600),
                ..RetryPolicy::default()
            },
            min_rate: 1e5,
            grace: SimDuration::from_secs(10),
        }
    }

    fn host(name: &str) -> Text {
        Text::shared(name)
    }

    fn choice(name: &str, stage: Option<SimDuration>) -> Choice {
        Choice {
            host: host(name),
            src: NodeId(7),
            tuning: TransferTuning::default(),
            tune: LogEvent::new(T, "rm.tune.path"),
            stage: stage.map(|d| (d, LogEvent::new(T, "rm.hrm.staging"))),
        }
    }

    /// A 4 MiB file open in `phase` holding what the flags say: its slot,
    /// a committed attempt from `fast` (the ledger entry) and that pull's
    /// live transfer. `phase == None` is a file whose RPC has not landed.
    fn file(phase: Option<Phase>, slot: bool, ledger: bool, live: bool) -> FileLife {
        let status = FileStatus {
            collection: "co2".into(),
            name: "jan.esg".into(),
            size: 4 * MB,
            attempts: u32::from(ledger),
            ..FileStatus::default()
        };
        let pull = ledger.then(|| Pull {
            host: host("fast"),
            kind: PullKind::Attempt,
            src: NodeId(7),
            tuning: TransferTuning::default(),
            live: live.then_some(LivePull {
                handle: TransferHandle(1),
                started: SimTime::ZERO,
                base: 0,
                seq: 1,
            }),
        });
        FileLife {
            status,
            phase,
            slot,
            pull,
            known: true,
            ..FileLife::default()
        }
    }

    fn kinds(fx: &[Effect]) -> String {
        let kind = |e: &Effect| match e {
            Effect::Open => "open".to_string(),
            Effect::Enter(phase, _) => format!("enter({})", phase.as_str()),
            Effect::Note(..) => "note".into(),
            Effect::Commit(..) => "commit".into(),
            Effect::Release(..) => "release".into(),
            Effect::Select(_) => "select".into(),
            Effect::Verify => "verify".into(),
            Effect::Launch(..) => "launch".into(),
            Effect::Watch => "watch".into(),
            Effect::Cancel(_) => "cancel".into(),
            Effect::Wait(_) => "wait".into(),
            Effect::Backoff => "backoff".into(),
            Effect::Defer(_) => "defer".into(),
            Effect::Settle(how, _) => format!("settle({how:?})"),
        };
        fx.iter().map(kind).collect::<Vec<_>>().join(" ")
    }

    /// A row: its name, the state and the event; the next phase, the
    /// holdings `(slot, ledger, pull)` and the effects.
    type Row = (
        &'static str,
        FileLife,
        Event,
        Option<Phase>,
        (bool, bool, bool),
        &'static str,
    );

    /// One case per row of DESIGN.md's per-file transition table: the
    /// state `(phase, slot, ledger, pull)` and the event go in; the next
    /// phase, the holdings and the kinds of the effects come out.
    #[test]
    fn every_row_of_the_transition_table() {
        use Phase::*;
        let f = file;
        let banked = |mut life: FileLife| {
            life.status.bytes_done = life.status.size;
            life
        };
        let excluding = |mut life: FileLife| {
            life.excluded.push("slow".into());
            life
        };
        let repairing = |mut life: FileLife| {
            life.status.bytes_done = life.status.size;
            let mut ranges = RangeSet::new();
            ranges.insert(MB, 2 * MB);
            life.repair = Some(ranges);
            life
        };
        let spent = |mut life: FileLife| {
            life.status.bytes_done = life.status.size;
            life.repair_rounds = MAX_REPAIR_ROUNDS;
            life
        };
        let corrupt = |blocks: Vec<u64>| Verdict::Corrupt {
            blocks,
            blamed: vec!["fast".into()],
        };
        let poll = |stalled| Poll {
            bytes: MB,
            stalled,
            rate: 1e6,
            age: SimDuration::from_secs(20),
        };
        let at_cap = |mut life: FileLife| {
            life.status.attempts = 3;
            life
        };
        let no_route = TransferError::NoRoute { source: NodeId(7) };
        let mut whole = RangeSet::new();
        whole.insert(0, 4 * MB);
        #[rustfmt::skip]
        let rows: Vec<Row> = vec![
            ("RPC lands", f(None, false, false, false), Event::Open,
                Some(Queue), (false, false, false), "open enter(queue)"),
            ("a slot is free", f(Some(Queue), false, false, false), Event::Admitted,
                Some(Select), (true, false, false), "enter(select) select"),
            ("wakes, all bytes banked", banked(f(Some(Backoff), true, false, false)), Event::Wake,
                Some(Verify), (true, false, false), "enter(verify) verify"),
            ("wakes at the attempt cap", at_cap(f(Some(Backoff), true, false, false)), Event::Wake,
                None, (false, false, false), "settle(Failed)"),
            ("wakes otherwise", f(Some(Backoff), true, false, false), Event::Wake,
                Some(Select), (true, false, false), "enter(select) select"),
            ("at capacity", f(Some(Select), true, false, false), Event::Selected(Selection::Deferred(true)),
                Some(Select), (true, false, false), "defer"),
            ("every replica excluded or blocked", excluding(f(Some(Select), true, false, false)),
                Event::Selected(Selection::Empty(2)), Some(Backoff), (true, false, false), "enter(backoff) backoff"),
            ("nothing registered", f(Some(Select), true, false, false), Event::Selected(Selection::Empty(0)),
                Some(Select), (true, false, false), ""),
            ("replica chosen, tape-resident", f(Some(Select), true, false, false),
                Event::Selected(Selection::Chosen(choice("hpss", Some(SimDuration::from_secs(30))))),
                Some(Stage), (true, true, false), "commit note enter(stage) note note wait"),
            ("wakes with a committed pull", f(Some(Stage), true, true, false), Event::Wake,
                Some(Stage), (true, true, false), "launch"),
            ("transfer starts", f(Some(Select), true, true, false), Event::Started(TransferHandle(2), 2),
                Some(Transfer), (true, true, true), "enter(transfer) watch"),
            ("start refused", f(Some(Stage), true, true, false), Event::Failed(TransferError::NameServiceDown),
                Some(Backoff), (true, false, false), "release enter(backoff) backoff"),
            ("transfer fails", f(Some(Transfer), true, true, true), Event::Failed(no_route),
                Some(Backoff), (true, false, false), "release enter(backoff) backoff"),
            ("monitor: healthy", f(Some(Transfer), true, true, true), Event::Poll(poll(false)),
                Some(Transfer), (true, true, true), ""),
            ("monitor: stalled", f(Some(Transfer), true, true, true), Event::Poll(poll(true)),
                Some(Select), (true, false, false), "cancel release note enter(select) select"),
            ("delivered", f(Some(Transfer), true, true, true), Event::Delivered(whole),
                Some(Verify), (true, false, false), "release enter(verify) verify"),
            ("digest matches", banked(f(Some(Verify), true, false, false)), Event::Verified(Verdict::Clean("ab".into())),
                None, (false, false, false), "note settle(Done)"),
            ("corrupt blocks, budget left", banked(f(Some(Verify), true, false, false)), Event::Verified(corrupt(vec![1])),
                Some(Verify), (true, false, false), "select"),
            ("repair source found", repairing(f(Some(Verify), true, false, false)),
                Event::Selected(Selection::Chosen(choice("slow", None))),
                Some(Repair), (true, true, false), "commit enter(repair) note note launch"),
            ("no source for the repair", repairing(f(Some(Verify), true, false, false)),
                Event::Selected(Selection::Empty(0)), Some(Backoff), (true, false, false), "enter(backoff) backoff"),
            ("budget spent or unattributable", spent(f(Some(Verify), true, false, false)), Event::Verified(corrupt(vec![1])),
                Some(Backoff), (true, false, false), "note enter(backoff) backoff"),
        ];
        for (row, mut life, event, phase, holdings, effects) in rows {
            let mut fx = Vec::new();
            life.step(event, T, &rules(3), &mut fx);
            assert_eq!(life.phase, phase, "{row}: phase");
            let held = (life.slot, life.pull.is_some(), life.live().is_some());
            assert_eq!(held, holdings, "{row}: (slot, ledger, pull)");
            assert_eq!(kinds(&fx), effects, "{row}: effects");
        }
    }

    /// What the driver owes the file after a step: the answer to the query
    /// the step ended on, if any.
    enum Ask {
        Nothing,
        Select,
        Verify,
        Launch,
    }

    proptest::proptest! {
        /// The core under random event sequences, as a driver could deliver
        /// them, with random selection, staging, poll and verify outcomes.
        /// The driver's view of the file is rebuilt from the effects alone.
        #[test]
        fn the_lifecycle_keeps_its_invariants(
            draws in proptest::collection::vec(0u64..1 << 40, 1..240),
            policy in (0u32..4, 1u64..5),
        ) {
            let (max_attempts, blocks) = policy;
            let rules = Rules {
                retry: RetryPolicy {
                    max_attempts,
                    attempt_timeout: SimDuration::from_secs(60),
                    ..RetryPolicy::default()
                },
                min_rate: 1e5,
                grace: SimDuration::from_secs(10),
            };
            let size = blocks * MB;
            let status = FileStatus { size, ..FileStatus::default() };
            let mut life = FileLife { status, known: true, ..FileLife::default() };
            let (mut root, mut open, mut ledger) = (false, None::<Phase>, 0);
            let (mut ask, mut wake, mut started, mut seq) = (Ask::Nothing, false, false, 0);
            let mut launched = RangeSet::new();
            let mut fx = Vec::new();
            for (i, &d) in draws.iter().enumerate() {
                let now = SimTime::from_secs(i as u64 + 1);
                let bit = |k: u32| (d >> k) & 1 == 1;
                let event = match ask {
                    Ask::Select => Event::Selected(match d % 4 {
                        0 => Selection::Deferred(bit(8)),
                        1 => Selection::Empty((d >> 8) as usize % 3),
                        _ => {
                            let stage = bit(9).then_some(SimDuration::from_secs(30));
                            Selection::Chosen(choice(if bit(8) { "fast" } else { "slow" }, stage))
                        }
                    }),
                    Ask::Verify => Event::Verified(match d % 4 {
                        0 => Verdict::Trusted,
                        1 => Verdict::Clean("ab".into()),
                        _ => Verdict::Corrupt {
                            blocks: (0..blocks).filter(|&b| bit(8 + b as u32)).collect(),
                            blamed: vec!["fast".into()],
                        },
                    }),
                    Ask::Launch if d % 4 == 0 => Event::Failed(if bit(8) {
                        TransferError::NameServiceDown
                    } else {
                        TransferError::NoRoute { source: NodeId(7) }
                    }),
                    Ask::Launch => {
                        seq += 1;
                        Event::Started(TransferHandle(seq), seq)
                    }
                    Ask::Nothing => {
                        let mut enabled = Vec::new();
                        if life.phase.is_none() {
                            enabled.push(Event::Open);
                        } else if !started {
                            enabled.extend([Event::Admitted, Event::Wake]);
                        }
                        if wake {
                            enabled.push(Event::Wake);
                        }
                        if life.live().is_some() {
                            enabled.push(Event::Poll(Poll {
                                bytes: (d >> 8) % (size + 1),
                                stalled: d % 5 == 0,
                                rate: ((d >> 20) % 1_000_000) as f64,
                                age: SimDuration::from_secs((d >> 30) % 120),
                            }));
                            enabled.push(Event::Delivered(launched.clone()));
                            let source = NodeId(7);
                            enabled.push(Event::Failed(TransferError::NoRoute { source }));
                        }
                        if enabled.is_empty() {
                            // Pending forever (nothing registered) or settled.
                            break;
                        }
                        let n = enabled.len();
                        enabled.swap_remove((d >> 4) as usize % n)
                    }
                };
                match event {
                    Event::Wake => {
                        wake = false;
                        started = true;
                    }
                    Event::Admitted => started = true,
                    _ => {}
                }
                let (attempts, bytes) = (life.status.attempts, life.status.bytes_done);
                let was_settled = life.settled();
                fx.clear();
                life.step(event, now, &rules, &mut fx);
                if was_settled {
                    // Settling is absorbing.
                    proptest::prop_assert!(fx.is_empty());
                    break;
                }
                ask = Ask::Nothing;
                let mut just_opened = false;
                for e in &fx {
                    match e {
                        Effect::Open => {
                            proptest::prop_assert!(!root, "the root opened twice");
                            (root, just_opened) = (true, true);
                        }
                        Effect::Enter(phase, _) => {
                            // Every enter closes the phase that was open.
                            proptest::prop_assert!(root && (open.is_some() || just_opened));
                            proptest::prop_assert!(open != Some(*phase), "entered {phase:?} twice");
                            open = Some(*phase);
                        }
                        Effect::Commit(..) => ledger += 1,
                        Effect::Release(..) => ledger -= 1,
                        Effect::Select(_) => ask = Ask::Select,
                        Effect::Verify => ask = Ask::Verify,
                        Effect::Launch(_, ranges, _) => {
                            ask = Ask::Launch;
                            launched = ranges.clone();
                        }
                        Effect::Wait(_) | Effect::Backoff | Effect::Defer(_) => wake = true,
                        Effect::Settle(..) => (root, open) = (false, None),
                        _ => {}
                    }
                }
                // One phase open exactly while the root is, and it is the
                // core's; the ledger holds an entry exactly while a pull does.
                proptest::prop_assert_eq!(root, open.is_some());
                proptest::prop_assert_eq!(life.phase, open);
                proptest::prop_assert_eq!(ledger, i32::from(life.pull.is_some()));
                if life.settled() {
                    proptest::prop_assert!(!life.slot && life.pull.is_none() && !root);
                }
                // Only an attempt's commit counts an attempt.
                let counted = fx
                    .iter()
                    .filter(|e| matches!(e, Effect::Commit(_, PullKind::Attempt)))
                    .count() as u32;
                proptest::prop_assert_eq!(life.status.attempts, attempts + counted);
                // Banked bytes fall only when a repair escalates.
                let escalated = fx.iter().any(
                    |e| matches!(e, Effect::Note(Some("rm.integrity.escalations"), _)),
                );
                proptest::prop_assert!(life.status.bytes_done >= bytes || escalated);
            }
        }
    }
}
