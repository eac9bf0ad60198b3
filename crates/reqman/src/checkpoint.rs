//! A campaign's pure core: the checkpoint journal's line codec, the spec
//! and manifest digests, and a campaign's arithmetic — which checkpoint
//! facts a resume keeps and how the rest splits into rounds, what a settled
//! round journals and tallies, which marker lines a tick writes, and the
//! final [`CampaignOutcome`]. Plain data in, plain data out: `campaign.rs`
//! makes every simulator, catalog, trace, metrics and file call.
//!
//! ## Checkpoint journal
//!
//! Line-oriented text, one fact per line, percent-escaped fields:
//!
//! ```text
//! campaign v1 spec=<sha256> name=<enc> collection=<enc> target=<enc> files=<n>
//! settled file=<enc> size=<u64> digest=<hex|-> status=done|failed round=<k>
//! marker file=<enc> offset=<u64> round=<k>
//! resume skipped=<k> bytes=<n>
//! complete manifest=<sha256>
//! ```
//!
//! The journal is an [`esg_netlogger::journal`] file, so only a complete
//! line is a fact: a torn tail is ignored and healed once, when the
//! campaign opens the journal. A header whose `spec` hash does not match
//! the live spec (the collection changed, a file was resized) invalidates
//! the whole checkpoint — the campaign restarts fresh rather than trusting
//! stale facts. Only `status=done` entries are skipped on resume; `failed`
//! entries are retried. Resume granularity is the settled file: `marker`
//! lines record mid-transfer progress for forensics, but a file interrupted
//! mid-flight restarts from its banked bytes inside the RM's own
//! restart-marker machinery, not from the journal.
//!
//! ## Equivalence
//!
//! The campaign's `manifest_sha256` is a pure function of the delivered
//! file set (sorted name/size/digest lines), so an interrupted-and-resumed
//! campaign is checked bit-for-bit against an uninterrupted one by
//! comparing manifests; `bytes_skipped + bytes_transferred == total`
//! accounts every byte to exactly one of the two runs.

use crate::campaign::{CampaignOutcome, CampaignSpec};
use crate::lifecycle::FileStatus;
use esg_simnet::SimTime;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// One settled fact about a file, in memory and in the journal.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Settled {
    pub size: u64,
    pub digest: Option<String>,
    pub done: bool,
    pub round: u64,
}

/// Percent-escape the characters that would break line/field framing: `%`,
/// `=` and every whitespace character, one `%XX` per UTF-8 byte.
pub(crate) fn enc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        if c == '%' || c == '=' || c.is_whitespace() {
            for b in c.encode_utf8(&mut [0; 4]).bytes() {
                write!(out, "%{b:02X}").unwrap();
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Undo [`enc`], byte by byte: `%` and two ASCII hex digits are an escape,
/// any other byte stands for itself. `None` when the bytes are not UTF-8 —
/// the journal is on-disk input, and a field that does not decode makes its
/// line unusable like any other malformed line, never the process.
pub(crate) fn dec(s: &str) -> Option<String> {
    let nibble = |b: u8| (b as char).to_digit(16).map(|d| d as u8);
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if let [b'%', hi, lo, ..] = bytes[i..] {
            if let (Some(hi), Some(lo)) = (nibble(hi), nibble(lo)) {
                out.push(hi << 4 | lo);
                i += 3;
                continue;
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    String::from_utf8(out).ok()
}

pub(crate) fn header_line(spec_sha: &str, spec: &CampaignSpec, files: usize) -> String {
    format!(
        "campaign v1 spec={spec_sha} name={} collection={} target={} files={files}",
        enc(&spec.name),
        enc(&spec.collection),
        enc(&spec.target_host),
    )
}

pub(crate) fn settled_line(name: &str, s: &Settled) -> String {
    format!(
        "settled file={} size={} digest={} status={} round={}",
        enc(name),
        s.size,
        s.digest.as_deref().unwrap_or("-"),
        if s.done { "done" } else { "failed" },
        s.round,
    )
}

pub(crate) fn resume_line(skipped: usize, bytes: u64) -> String {
    format!("resume skipped={skipped} bytes={bytes}")
}

pub(crate) fn complete_line(manifest: &str) -> String {
    format!("complete manifest={manifest}")
}

/// Split a `kind k=v k=v ...` journal line into its fields.
fn parse_fields(line: &str, kind: &str) -> Option<HashMap<String, String>> {
    let mut toks = line.split_whitespace();
    if toks.next() != Some(kind) {
        return None;
    }
    let mut out = HashMap::new();
    for t in toks {
        if let Some((k, v)) = t.split_once('=') {
            out.insert(k.to_string(), v.to_string());
        }
    }
    Some(out)
}

/// The fact a `settled` line states; `None` for any other or malformed line.
pub(crate) fn settled_fact(line: &str) -> Option<(String, Settled)> {
    let f = parse_fields(line, "settled")?;
    let name = dec(f.get("file")?)?;
    let size = f.get("size")?.parse().ok()?;
    let settled = Settled {
        size,
        digest: f.get("digest").filter(|d| d.as_str() != "-").cloned(),
        done: f.get("status").map(String::as_str) == Some("done"),
        round: f.get("round").and_then(|r| r.parse().ok()).unwrap_or(0),
    };
    Some((name, settled))
}

/// The settled facts of a checkpoint's complete lines, if its header
/// vouches for `spec_sha`. Markers, resume notes and the complete line are
/// forensic records, not resume inputs.
pub(crate) fn load(lines: &[String], spec_sha: &str) -> Option<BTreeMap<String, Settled>> {
    let (header, facts) = lines.split_first()?;
    if !header.starts_with("campaign v1 ")
        || parse_fields(header, "campaign")?.get("spec")? != spec_sha
    {
        return None;
    }
    Some(facts.iter().filter_map(|l| settled_fact(l)).collect())
}

/// sha256 over the canonical spec identity: name, collection, target,
/// location, and the sorted file list with sizes. Tuning knobs (batch
/// size, tenant weights, marker period) are deliberately excluded so a
/// resume may retune without forfeiting the checkpoint.
pub(crate) fn spec_sha(spec: &CampaignSpec, files: &[(String, u64)]) -> String {
    let mut s = format!(
        "campaign-spec v1\nname={}\ncollection={}\ntarget={}\nlocation={}\n",
        enc(&spec.name),
        enc(&spec.collection),
        enc(&spec.target_host),
        enc(&spec.location_name),
    );
    for (name, size) in files {
        writeln!(s, "file={} size={size}", enc(name)).unwrap();
    }
    esg_gsi::hex(&esg_gsi::sha256(s.as_bytes()))
}

/// The resume-equivalence witness: sha256 over the sorted delivered set.
pub(crate) fn manifest_sha(settled: &BTreeMap<String, Settled>) -> String {
    let mut s = String::new();
    for (name, e) in settled.iter().filter(|(_, e)| e.done) {
        let digest = e.digest.as_deref().unwrap_or("-");
        writeln!(s, "file={} size={} digest={digest}", enc(name), e.size).unwrap();
    }
    esg_gsi::hex(&esg_gsi::sha256(s.as_bytes()))
}

/// What a campaign knows, as plain data: its round plan, every settled
/// fact and the byte accounting.
pub(crate) struct Progress {
    files_total: usize,
    /// The files left to move at start, sorted and chunked.
    pub rounds: Vec<Vec<String>>,
    /// The round in flight; once every round settled, the rounds driven.
    pub round_idx: usize,
    /// Every settled file (done or failed), by name. `done` entries are
    /// exactly the checkpoint-skippable set.
    pub settled: BTreeMap<String, Settled>,
    pub files_skipped: usize,
    pub bytes_skipped: u64,
    bytes_transferred: u64,
    /// A checkpoint that vouched for the spec was loaded at start.
    pub resumed: bool,
    /// Last journaled marker offset per in-flight file.
    last_marker: HashMap<String, u64>,
}

/// What one settled round journals and adds to the campaign counters.
pub(crate) struct RoundSettle {
    pub round: u64,
    pub lines: Vec<String>,
    pub delivered: u64,
    pub failed: u64,
    pub bytes: u64,
}

impl Progress {
    /// The resume plan over the collection's sorted `(name, size)` list.
    /// Checkpoint facts only count when they are `done` and still describe
    /// a current file (name and size both match); everything else is
    /// retried. Indexed by name so a 10k-file resume is O(N log N).
    pub fn plan(
        files: &[(String, u64)],
        loaded: Option<BTreeMap<String, Settled>>,
        batch: usize,
    ) -> Progress {
        let resumed = loaded.is_some();
        let mut settled = loaded.unwrap_or_default();
        let by_name: HashMap<&str, u64> = files.iter().map(|(f, s)| (f.as_str(), *s)).collect();
        settled.retain(|name, e| e.done && by_name.get(name.as_str()) == Some(&e.size));
        let mut rounds: Vec<Vec<String>> = Vec::new();
        for (name, _) in files.iter().filter(|(f, _)| !settled.contains_key(f)) {
            if rounds.last().is_none_or(|r| r.len() >= batch) {
                rounds.push(Vec::new());
            }
            rounds.last_mut().unwrap().push(name.clone());
        }
        Progress {
            files_total: files.len(),
            rounds,
            round_idx: 0,
            files_skipped: settled.len(),
            bytes_skipped: settled.values().map(|e| e.size).sum(),
            settled,
            bytes_transferred: 0,
            resumed,
            last_marker: HashMap::new(),
        }
    }

    /// Settle the round in flight from its request's file statuses, each
    /// file's catalog digest read through `digest`, and move to the next.
    pub fn settle(
        &mut self,
        files: Vec<FileStatus>,
        digest: impl Fn(&str) -> Option<String>,
    ) -> RoundSettle {
        let round = self.round_idx as u64;
        let (mut delivered, mut failed, mut bytes) = (0, 0, 0);
        let mut lines = Vec::with_capacity(files.len());
        for fs in files {
            let entry = Settled {
                size: fs.size,
                digest: digest(&fs.name),
                done: fs.done,
                round,
            };
            if fs.done {
                delivered += 1;
                bytes += fs.size;
            } else {
                failed += 1;
            }
            lines.push(settled_line(&fs.name, &entry));
            self.last_marker.remove(&fs.name);
            self.settled.insert(fs.name, entry);
        }
        self.bytes_transferred += bytes;
        self.round_idx += 1;
        RoundSettle {
            round,
            lines,
            delivered,
            failed,
            bytes,
        }
    }

    /// One `marker` line per in-flight file whose banked bytes grew since
    /// its last marker.
    pub fn markers(&mut self, banked: Vec<(String, u64)>) -> Vec<String> {
        let round = self.round_idx;
        let mut lines = Vec::new();
        for (name, offset) in banked {
            if offset > self.last_marker.get(&name).copied().unwrap_or(0) {
                lines.push(format!(
                    "marker file={} offset={offset} round={round}",
                    enc(&name)
                ));
                self.last_marker.insert(name, offset);
            }
        }
        lines
    }

    pub fn outcome(
        &self,
        id: u64,
        spec: &CampaignSpec,
        started: SimTime,
        finished: SimTime,
    ) -> CampaignOutcome {
        let done = self.settled.values().filter(|e| e.done).count();
        CampaignOutcome {
            id,
            name: spec.name.clone(),
            collection: spec.collection.clone(),
            target_host: spec.target_host.clone(),
            files_total: self.files_total,
            files_delivered: done - self.files_skipped,
            files_failed: self.files_total - done,
            files_skipped: self.files_skipped,
            bytes_transferred: self.bytes_transferred,
            bytes_skipped: self.bytes_skipped,
            rounds: self.round_idx,
            resumed: self.resumed,
            cancelled: false,
            manifest_sha256: manifest_sha(&self.settled),
            started,
            finished,
        }
    }
}
