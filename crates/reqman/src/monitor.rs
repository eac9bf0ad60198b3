//! The dynamic transfer monitor (Figure 4).
//!
//! "Since the transfer of large files can take many minutes, a
//! transfer-monitoring tool was developed to show the status of the request
//! transfer dynamically. ... The top part of the screen shows for each file
//! the amount transferred relative to the total file size. The middle part
//! of the figure shows which replica locations have been selected ... At
//! the bottom of the screen, messages about the initiation of replica
//! selection and file transfer ... are displayed." (§4)

use crate::manager::FileStatus;
use esg_netlogger::{LiveLifelines, NetLog};
use esg_simnet::SimTime;
use std::fmt::Write;

const BAR_WIDTH: usize = 40;

/// Above this many files the per-file panes collapse into the summarized
/// view: counts by status plus the worst stragglers. A 10k-file campaign
/// round renders in O(stragglers + tail), not O(files) lines of bars.
pub const SUMMARY_THRESHOLD: usize = 64;

/// How many of the least-complete unsettled files the summary shows.
const STRAGGLERS: usize = 8;

fn human_bytes(b: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
    let mut x = b as f64;
    let mut u = 0;
    while x >= 1000.0 && u < UNITS.len() - 1 {
        x /= 1000.0;
        u += 1;
    }
    if u == 0 {
        format!("{b} B")
    } else {
        format!("{x:.1} {}", UNITS[u])
    }
}

/// One per-file progress bar line, shared by the detailed top pane and
/// the summary's straggler pane.
fn bar_line(out: &mut String, f: &FileStatus) {
    let frac = f.fraction().clamp(0.0, 1.0);
    let filled = (frac * BAR_WIDTH as f64).round() as usize;
    let bar: String = "#".repeat(filled) + &"-".repeat(BAR_WIDTH - filled);
    let state = if f.done {
        "done".to_string()
    } else if f.failed {
        "FAILED".to_string()
    } else if let Some(t) = f.staging_until {
        format!("staging (tape, ready {t})")
    } else {
        format!("{:3.0}%", frac * 100.0)
    };
    writeln!(
        out,
        "  {:<28} [{bar}] {:>9} / {:<9} {state}",
        f.name,
        human_bytes(f.bytes_done),
        human_bytes(f.size),
    )
    .unwrap();
}

fn message_pane(out: &mut String, log: &NetLog) {
    // Recent event messages. `tail` slices the log's end in O(1);
    // collecting the whole log made every render O(events so far), which
    // turned a long soak's periodic monitor into a quadratic scan.
    writeln!(out, "\n--- messages ---").unwrap();
    for e in log.tail(8) {
        writeln!(out, "  [{:9.3}s] {}", e.time.as_secs_f64(), e.to_ulm()).unwrap();
    }
}

fn total_line(out: &mut String, files: &[FileStatus]) {
    let total_done: u64 = files.iter().map(|f| f.bytes_done).sum();
    let total: u64 = files.iter().map(|f| f.size).sum();
    writeln!(
        out,
        "\n  total transferred: {} of {}",
        human_bytes(total_done),
        human_bytes(total)
    )
    .unwrap();
}

/// Render the three-pane monitor for a request's files. Above
/// [`SUMMARY_THRESHOLD`] files the per-file panes give way to the
/// summarized view — counts by status plus the worst stragglers — so the
/// string (and the screen) stays bounded at campaign scale.
pub fn render_monitor(now: SimTime, files: &[FileStatus], log: &NetLog) -> String {
    render_monitor_live(now, files, log, None)
}

/// [`render_monitor`] with an optional online lifeline analyzer. With
/// `live`, the summarized view annotates each straggler with its
/// currently-open phase span and age, and a `live:` line reports the open
/// span count, stalls fired so far, and the oldest open phase span — the
/// questions a 10k-file round's operator actually asks ("is f0412 stuck in
/// `stage`, and for how long?") answered from streaming state instead of a
/// post-hoc trace pass. `None` renders byte-identically to the plain view.
pub fn render_monitor_live(
    now: SimTime,
    files: &[FileStatus],
    log: &NetLog,
    live: Option<&LiveLifelines>,
) -> String {
    if files.len() > SUMMARY_THRESHOLD {
        return render_summary(now, files, log, live);
    }
    let mut out = String::new();
    writeln!(
        out,
        "=== ESG Request Manager — transfer monitor (t={now}) ==="
    )
    .unwrap();
    writeln!(out).unwrap();

    // Top pane: per-file progress bars.
    for f in files {
        bar_line(&mut out, f);
    }
    total_line(&mut out, files);

    // Middle pane: selected replica locations.
    writeln!(out, "\n--- replica selections ---").unwrap();
    for f in files {
        match &f.replica_host {
            Some(h) => writeln!(
                out,
                "  {:<28} <- {h}{}",
                f.name,
                if f.attempts > 1 {
                    format!("  (attempt {})", f.attempts)
                } else {
                    String::new()
                }
            )
            .unwrap(),
            None => writeln!(out, "  {:<28} <- (selecting...)", f.name).unwrap(),
        }
    }

    message_pane(&mut out, log);
    out
}

/// The large-request monitor: one counts-by-status line, the running byte
/// total, and progress bars for only the least-complete unsettled files.
fn render_summary(
    now: SimTime,
    files: &[FileStatus],
    log: &NetLog,
    live: Option<&LiveLifelines>,
) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "=== ESG Request Manager — transfer monitor (t={now}) ==="
    )
    .unwrap();
    writeln!(out).unwrap();

    let (mut done, mut failed, mut staging, mut transferring, mut pending) = (0, 0, 0, 0, 0);
    for f in files {
        if f.done {
            done += 1;
        } else if f.failed {
            failed += 1;
        } else if f.staging_until.is_some() {
            staging += 1;
        } else if f.bytes_done > 0 {
            transferring += 1;
        } else {
            pending += 1;
        }
    }
    writeln!(
        out,
        "  {} files: {done} done, {failed} failed, {staging} staging, \
         {transferring} transferring, {pending} pending",
        files.len(),
    )
    .unwrap();
    if let Some(live) = live {
        let oldest = match live.oldest_open(true) {
            Some(s) => format!(
                "oldest open: {} {} ({:.1}s)",
                s.phase.as_str(),
                s.file.as_deref().unwrap_or("-"),
                s.age_s(now),
            ),
            None => "no open phase spans".to_string(),
        };
        writeln!(
            out,
            "  live: {} open spans, {} stalls fired, {oldest}",
            live.open_count(),
            live.stalls_fired(),
        )
        .unwrap();
    }
    total_line(&mut out, files);

    // The stragglers pane: the unsettled files closest to zero progress,
    // ties broken by name so the rendering is deterministic.
    let mut unsettled: Vec<&FileStatus> = files.iter().filter(|f| !f.done && !f.failed).collect();
    unsettled.sort_by(|a, b| {
        a.fraction()
            .partial_cmp(&b.fraction())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.name.cmp(&b.name))
    });
    writeln!(out, "\n--- worst stragglers ---").unwrap();
    for f in unsettled.into_iter().take(STRAGGLERS) {
        bar_line(&mut out, f);
        if let Some(live) = live {
            match live.open_phase_of(&f.name) {
                Some(s) => writeln!(
                    out,
                    "      in {} for {:.1}s (span {})",
                    s.phase.as_str(),
                    s.age_s(now),
                    s.span,
                )
                .unwrap(),
                None => writeln!(out, "      no open phase span").unwrap(),
            }
        }
    }

    message_pane(&mut out, log);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use esg_netlogger::LogEvent;

    fn file(name: &str, done: u64, size: u64) -> FileStatus {
        FileStatus {
            collection: "co2".into(),
            name: name.into(),
            size,
            bytes_done: done,
            replica_host: Some("sprite.llnl.gov".into()),
            attempts: 1,
            done: done >= size,
            failed: false,
            staging_until: None,
        }
    }

    #[test]
    fn renders_all_panes() {
        let mut log = NetLog::new();
        log.push(LogEvent::new(SimTime::from_secs(1), "rm.replica.selected").field("file", "a"));
        let files = vec![file("jan.esg", 500, 1000), file("feb.esg", 1000, 1000)];
        let text = render_monitor(SimTime::from_secs(2), &files, &log);
        assert!(text.contains("transfer monitor"));
        assert!(text.contains("jan.esg"));
        assert!(text.contains(" 50%"));
        assert!(text.contains("done"));
        assert!(text.contains("replica selections"));
        assert!(text.contains("sprite.llnl.gov"));
        assert!(text.contains("messages"));
        assert!(text.contains("rm.replica.selected"));
    }

    #[test]
    fn bar_lengths_are_constant() {
        let files = vec![file("x", 0, 100), file("y", 50, 100), file("z", 100, 100)];
        let text = render_monitor(SimTime::ZERO, &files, &NetLog::new());
        for line in text.lines().filter(|l| l.contains('[')) {
            let open = line.find('[').unwrap();
            let close = line.find(']').unwrap();
            assert_eq!(close - open - 1, BAR_WIDTH, "{line}");
        }
    }

    #[test]
    fn staging_files_marked() {
        let mut f = file("deep.esg", 0, 100);
        f.staging_until = Some(SimTime::from_secs(60));
        let text = render_monitor(SimTime::ZERO, &[f], &NetLog::new());
        assert!(text.contains("staging (tape"));
    }

    #[test]
    fn failed_files_marked() {
        let mut f = file("gone.esg", 10, 100);
        f.failed = true;
        let text = render_monitor(SimTime::ZERO, &[f], &NetLog::new());
        assert!(text.contains("FAILED"));
    }

    #[test]
    fn message_pane_keeps_only_last_eight() {
        let mut log = NetLog::new();
        for i in 0..12 {
            log.push(LogEvent::new(SimTime::from_secs(i), format!("rm.msg{i}")));
        }
        let text = render_monitor(SimTime::from_secs(20), &[], &log);
        for i in 0..4 {
            assert!(!text.contains(&format!("rm.msg{i} ")), "old msg {i} shown");
        }
        for i in 4..12 {
            assert!(
                text.contains(&format!("rm.msg{i}")),
                "recent msg {i} missing"
            );
        }
    }

    #[test]
    fn overdelivered_bytes_clamp_to_full_bar() {
        // Protection overhead can report wire bytes past the payload size
        // before the clamp upstream lands; the bar must not underflow.
        let f = FileStatus {
            collection: "c".into(),
            name: "over.esg".into(),
            size: 100,
            bytes_done: 150,
            replica_host: Some("h".into()),
            attempts: 1,
            done: false,
            failed: false,
            staging_until: None,
        };
        let text = render_monitor(SimTime::ZERO, &[f], &NetLog::new());
        let line = text.lines().find(|l| l.contains("over.esg")).unwrap();
        let open = line.find('[').unwrap();
        let close = line.find(']').unwrap();
        assert_eq!(close - open - 1, BAR_WIDTH);
        assert!(line.contains(&"#".repeat(BAR_WIDTH)));
    }

    #[test]
    fn renders_with_empty_log_and_no_files() {
        // Degenerate monitor: nothing submitted yet, no events. All three
        // panes still render, and the message pane is simply empty.
        let text = render_monitor(SimTime::ZERO, &[], &NetLog::new());
        assert!(text.contains("transfer monitor"));
        assert!(text.contains("total transferred: 0 B of 0 B"));
        assert!(text.contains("replica selections"));
        assert!(text.ends_with("--- messages ---\n"));
    }

    #[test]
    fn renders_single_event_log() {
        let mut log = NetLog::new();
        log.push(LogEvent::new(SimTime(1_500_000_000), "rm.request.submit").field("files", 1u64));
        let text = render_monitor(SimTime::from_secs(2), &[file("a.esg", 0, 10)], &log);
        // The lone event shows with its ULM line and bracketed timestamp.
        assert!(text.contains("[    1.500s]"));
        assert!(text.contains("EVNT=rm.request.submit"));
        assert!(text.contains("files=1"));
    }

    #[test]
    fn summary_kicks_in_above_threshold() {
        let files: Vec<FileStatus> = (0..SUMMARY_THRESHOLD + 1)
            .map(|i| file(&format!("f{i:04}.esg"), (i as u64) * 10, 1000))
            .collect();
        let text = render_monitor(SimTime::ZERO, &files, &NetLog::new());
        assert!(text.contains("worst stragglers"));
        assert!(text.contains(&format!("{} files:", SUMMARY_THRESHOLD + 1)));
        // Mid-pack files are not itemized, and the per-file middle pane
        // is gone entirely.
        assert!(!text.contains("f0040.esg"));
        assert!(!text.contains("replica selections"));
        assert!(text.contains("--- messages ---"));
    }

    #[test]
    fn detailed_view_below_threshold_keeps_every_file() {
        let files: Vec<FileStatus> = (0..SUMMARY_THRESHOLD)
            .map(|i| file(&format!("f{i:04}.esg"), 10, 1000))
            .collect();
        let text = render_monitor(SimTime::ZERO, &files, &NetLog::new());
        assert!(!text.contains("worst stragglers"));
        assert!(text.contains("replica selections"));
        for i in 0..SUMMARY_THRESHOLD {
            assert!(text.contains(&format!("f{i:04}.esg")));
        }
    }

    #[test]
    fn summary_stragglers_are_least_complete() {
        let mut files: Vec<FileStatus> = (0..100)
            .map(|i| file(&format!("fast{i:03}.esg"), 900, 1000))
            .collect();
        files.push(file("slowest.esg", 1, 1000));
        let text = render_monitor(SimTime::ZERO, &files, &NetLog::new());
        let pane = text.split("worst stragglers").nth(1).unwrap();
        let first = pane.lines().find(|l| l.contains(".esg")).unwrap();
        assert!(first.contains("slowest.esg"), "slowest file must lead");
        // Only STRAGGLERS bar lines, not one per file.
        assert_eq!(pane.lines().filter(|l| l.contains(".esg")).count(), 8);
    }

    #[test]
    fn summary_counts_by_status() {
        let mut files = Vec::new();
        for i in 0..70 {
            files.push(file(&format!("d{i}.esg"), 1000, 1000));
        }
        let mut f = file("bad.esg", 10, 1000);
        f.failed = true;
        files.push(f);
        let mut s = file("tape.esg", 0, 1000);
        s.staging_until = Some(SimTime::from_secs(60));
        files.push(s);
        files.push(file("moving.esg", 500, 1000));
        files.push(file("waiting.esg", 0, 1000));
        let text = render_monitor(SimTime::ZERO, &files, &NetLog::new());
        assert!(
            text.contains("74 files: 70 done, 1 failed, 1 staging, 1 transferring, 1 pending"),
            "{text}"
        );
        assert!(text.contains("total transferred:"));
    }

    #[test]
    fn summary_annotates_stragglers_from_live_analyzer() {
        use esg_netlogger::{Phase, TraceCtx, TracedLog};
        let mut tlog = TracedLog::new();
        tlog.attach_live();
        let c = TraceCtx::request(1).with_file("slowest.esg");
        let r = tlog.span_start(&c, SimTime::ZERO, Phase::File, None);
        let _t = tlog.span_start(&c, SimTime::from_secs(2), Phase::Transfer, Some(r));
        let mut files: Vec<FileStatus> = (0..100)
            .map(|i| file(&format!("fast{i:03}.esg"), 900, 1000))
            .collect();
        files.push(file("slowest.esg", 1, 1000));
        let live = tlog.live().unwrap();
        let text = render_monitor_live(SimTime::from_secs(12), &files, &tlog, Some(live));
        assert!(
            text.contains("live: 2 open spans, 0 stalls fired"),
            "{text}"
        );
        assert!(
            text.contains("oldest open: transfer slowest.esg (10.0s)"),
            "{text}"
        );
        // The straggler's bar is annotated with its open phase and age;
        // fast files with no open span say so instead of going silent.
        assert!(text.contains("in transfer for 10.0s"), "{text}");
        assert!(text.contains("no open phase span"), "{text}");
    }

    #[test]
    fn summary_without_live_is_byte_identical_to_plain_render() {
        let files: Vec<FileStatus> = (0..100)
            .map(|i| file(&format!("f{i:03}.esg"), 10, 1000))
            .collect();
        let log = NetLog::new();
        let plain = render_monitor(SimTime::ZERO, &files, &log);
        let live_none = render_monitor_live(SimTime::ZERO, &files, &log, None);
        assert_eq!(plain, live_none);
        assert!(!plain.contains("live:"));
    }

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(1_500), "1.5 KB");
        assert_eq!(human_bytes(2_000_000), "2.0 MB");
        assert_eq!(human_bytes(230_800_000_000), "230.8 GB");
    }

    #[test]
    fn zero_size_file_shows_complete() {
        let f = FileStatus {
            collection: "c".into(),
            name: "empty".into(),
            size: 0,
            bytes_done: 0,
            replica_host: None,
            attempts: 0,
            done: false,
            failed: false,
            staging_until: None,
        };
        assert_eq!(f.fraction(), 1.0);
        let text = render_monitor(SimTime::ZERO, &[f], &NetLog::new());
        assert!(text.contains("selecting"));
    }
}
