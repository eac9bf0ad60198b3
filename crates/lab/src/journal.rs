//! Resume-safe JSONL trial journal.
//!
//! Every completed trial is appended to `<journal_dir>/<scenario>.jsonl`
//! as one self-contained line: the spec hash it ran under, the build
//! that ran it (sha256 of the executable), the trial's row (variant,
//! seed, rep, the deterministic metrics and the timing section — the same
//! [`TrialRecord::to_row`] codec every `BENCH_*.json` artifact uses), and
//! the path+sha256 of any auxiliary files the trial wrote. A rerun
//! replays the journal first and skips every trial whose spec hash and
//! build match and whose auxiliary files are still on disk with matching
//! digests — the deterministic
//! same-seed trace contract means a journaled trial's metrics ARE the
//! trial, so the resumed analysis table is byte-identical to an
//! uninterrupted run (regression-tested in `tests/journal_resume.rs`).
//! A trial journaled by *another* build is not that trial: its counts may
//! belong to different code and its `wall_ms`/`peak_rss_kb` certainly do,
//! so it re-runs (EXPERIMENTS A20 regenerated an artifact from the
//! previous tree's timings before this check existed).
//!
//! The journal is an [`esg_netlogger::journal`] file: only a complete line
//! is a trial. A torn final line (the run died mid-append) is none, so that
//! trial reruns, and opening the journal to append heals it. A complete
//! line that does not parse is an error — that journal did not come from
//! this code.

use crate::json::{fmt_num, Json};
use esg_netlogger::journal::{read_lines, Journal};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Coordinates of one trial in the variant × seed × rep matrix.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct TrialKey {
    pub variant: String,
    pub seed: u64,
    pub rep: u32,
}

#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    Num(f64),
    Str(String),
}

impl MetricValue {
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            MetricValue::Num(v) => Some(*v),
            MetricValue::Str(_) => None,
        }
    }

    /// Canonical rendering used for table bytes and equivalence compare.
    pub fn canon(&self) -> String {
        match self {
            MetricValue::Num(v) => fmt_num(*v),
            MetricValue::Str(s) => s.clone(),
        }
    }

    pub(crate) fn to_json(&self) -> Json {
        match self {
            MetricValue::Num(v) => num_to_json(*v),
            MetricValue::Str(s) => Json::str(s),
        }
    }
}

/// Canonical numeric JSON: integral in-range values stay integers so
/// counts journal as counts; everything else is a float.
pub fn num_to_json(v: f64) -> Json {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        Json::Int(v as i64 as i128)
    } else {
        Json::Float(v)
    }
}

/// An auxiliary file a trial wrote (ULM trace, …), recorded by path and
/// content digest so resume can prove it still holds the trial's bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct AuxFile {
    pub path: String,
    pub sha256: String,
}

/// Everything one finished trial produced.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRecord {
    pub key: TrialKey,
    /// Deterministic metrics (pure functions of spec + seed), sorted by
    /// name before journaling so the bytes are canonical.
    pub metrics: Vec<(String, MetricValue)>,
    /// Wall-clock / RSS measurements. Kept out of the deterministic
    /// table section: they differ run to run by nature.
    pub timing: Vec<(String, f64)>,
    pub aux: Vec<AuxFile>,
}

impl TrialRecord {
    pub fn metric(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Numeric lookup across both sections (timing shadows nothing:
    /// deterministic metrics win).
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metric(name)
            .and_then(MetricValue::as_f64)
            .or_else(|| self.timing.iter().find(|(k, _)| k == name).map(|(_, v)| *v))
    }

    pub fn sort_metrics(&mut self) {
        self.metrics.sort_by(|a, b| a.0.cmp(&b.0));
        self.timing.sort_by(|a, b| a.0.cmp(&b.0));
    }

    /// The record as one row: `variant`, `seed`, `rep`, `metrics`,
    /// `timing`. A journal line is this row plus its stamps and `aux`; an
    /// artifact's `trials` array is these rows.
    pub fn to_row(&self) -> Vec<(String, Json)> {
        vec![
            ("variant".into(), Json::str(&self.key.variant)),
            ("seed".into(), Json::Int(self.key.seed as i128)),
            ("rep".into(), Json::Int(self.key.rep as i128)),
            (
                "metrics".into(),
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ),
            (
                "timing".into(),
                Json::Obj(
                    self.timing
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Float(*v)))
                        .collect(),
                ),
            ),
        ]
    }

    /// Parse a row written by [`to_row`](Self::to_row); `aux` is empty.
    pub fn from_row(v: &Json) -> Result<TrialRecord, String> {
        let metrics = v
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("row needs metrics")?
            .iter()
            .map(|(k, v)| {
                let mv = match v {
                    Json::Str(s) => MetricValue::Str(s.clone()),
                    other => {
                        MetricValue::Num(other.as_f64().ok_or("metric must be number or string")?)
                    }
                };
                Ok((k.clone(), mv))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let timing = v
            .get("timing")
            .and_then(Json::as_obj)
            .unwrap_or(&[])
            .iter()
            .map(|(k, v)| {
                v.as_f64()
                    .map(|f| (k.clone(), f))
                    .ok_or("timing values must be numeric".to_string())
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(TrialRecord {
            key: TrialKey {
                variant: v
                    .get("variant")
                    .and_then(Json::as_str)
                    .ok_or("row needs variant")?
                    .to_string(),
                seed: v
                    .get("seed")
                    .and_then(Json::as_u64)
                    .ok_or("row needs seed")?,
                rep: v.get("rep").and_then(Json::as_u64).unwrap_or(0) as u32,
            },
            metrics,
            timing,
            aux: Vec::new(),
        })
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    pub spec_sha256: String,
    /// [`build_stamp`] of the process that ran the trial; empty when the
    /// line predates the stamp.
    pub build: String,
    pub record: TrialRecord,
}

/// Identity of the running build: hex sha256 of this executable's bytes,
/// computed once per process.
pub fn build_stamp() -> Result<&'static str, String> {
    static STAMP: OnceLock<Result<String, String>> = OnceLock::new();
    STAMP
        .get_or_init(|| {
            let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
            let bytes = std::fs::read(&exe).map_err(|e| format!("read {exe:?}: {e}"))?;
            Ok(crate::sha_hex_bytes(&bytes))
        })
        .as_deref()
        .map_err(Clone::clone)
}

impl JournalEntry {
    fn to_json(&self) -> Json {
        let mut line = vec![
            ("v".to_string(), Json::Int(1)),
            ("spec_sha256".into(), Json::str(&self.spec_sha256)),
            ("build".into(), Json::str(&self.build)),
        ];
        line.extend(self.record.to_row());
        let aux = self.record.aux.iter().map(|a| {
            Json::obj(vec![
                ("path", Json::str(&a.path)),
                ("sha256", Json::str(&a.sha256)),
            ])
        });
        line.push(("aux".into(), Json::Arr(aux.collect())));
        Json::Obj(line)
    }

    fn from_json(v: &Json) -> Result<JournalEntry, String> {
        let mut record = TrialRecord::from_row(v)?;
        record.aux = match v.get("aux") {
            None | Some(Json::Null) => Vec::new(),
            Some(Json::Arr(a)) => a
                .iter()
                .map(|e| {
                    Ok(AuxFile {
                        path: e
                            .get("path")
                            .and_then(Json::as_str)
                            .ok_or("aux needs path")?
                            .to_string(),
                        sha256: e
                            .get("sha256")
                            .and_then(Json::as_str)
                            .ok_or("aux needs sha256")?
                            .to_string(),
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("aux must be an array".into()),
        };
        Ok(JournalEntry {
            spec_sha256: v
                .get("spec_sha256")
                .and_then(Json::as_str)
                .ok_or("journal entry needs spec_sha256")?
                .to_string(),
            build: v
                .get("build")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            record,
        })
    }
}

pub fn journal_path(dir: &Path, scenario: &str) -> PathBuf {
    dir.join(format!("{scenario}.jsonl"))
}

/// Open the journal at `path` for appending — creating its directory and
/// healing its torn tail — and return its complete lines.
pub fn open(path: &Path) -> Result<(Journal, Vec<String>), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("mkdir {parent:?}: {e}"))?;
    }
    Journal::open(path).map_err(|e| format!("open {path:?}: {e}"))
}

/// Append one entry to the open journal at `path` as one line, written
/// before this returns so a crash after it never loses the trial.
pub fn write(journal: &mut Journal, path: &Path, entry: &JournalEntry) -> Result<(), String> {
    journal
        .append(&[entry.to_json().emit()])
        .map_err(|e| format!("append {path:?}: {e}"))
}

/// Append one entry to the journal at `path`.
pub fn append(path: &Path, entry: &JournalEntry) -> Result<(), String> {
    write(&mut open(path)?.0, path, entry)
}

/// The entries of a journal's complete lines; blank lines are skipped.
pub fn parse(path: &Path, lines: &[String]) -> Result<Vec<JournalEntry>, String> {
    lines
        .iter()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            Json::parse(line)
                .and_then(|v| JournalEntry::from_json(&v))
                .map_err(|err| format!("{path:?} line {}: {err}", i + 1))
        })
        .collect()
}

/// Read a journal back without opening it for writing. A missing journal
/// reads as empty.
pub fn read(path: &Path) -> Result<Vec<JournalEntry>, String> {
    let lines = read_lines(path).map_err(|e| format!("read {path:?}: {e}"))?;
    parse(path, &lines)
}

/// Is this journaled trial safe to reuse for `spec_sha` by the build
/// `build`? Spec hash and build stamp must match and every auxiliary file
/// must still exist with the journaled digest.
pub fn reusable(entry: &JournalEntry, spec_sha: &str, build: &str) -> bool {
    entry.spec_sha256 == spec_sha
        && entry.build == build
        && entry.record.aux.iter().all(|a| {
            std::fs::read_to_string(&a.path)
                .map(|text| crate::sha_hex(&text) == a.sha256)
                .unwrap_or(false)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(variant: &str, seed: u64) -> JournalEntry {
        JournalEntry {
            spec_sha256: "abc".into(),
            build: "b1".into(),
            record: TrialRecord {
                key: TrialKey {
                    variant: variant.into(),
                    seed,
                    rep: 0,
                },
                metrics: vec![
                    ("count".into(), MetricValue::Num(4.0)),
                    ("sha".into(), MetricValue::Str("deadbeef".into())),
                ],
                timing: vec![("wall_ms".into(), 12.25)],
                aux: vec![],
            },
        }
    }

    #[test]
    fn append_read_roundtrip() {
        let dir = std::env::temp_dir().join(format!("lab_j_{}", std::process::id()));
        let path = journal_path(&dir, "demo");
        let _ = std::fs::remove_file(&path);
        // An artifact row: a string metric, an integral count and a
        // fractional timing, as a `BENCH_*.json` holds them.
        let row = r#"{"variant":"n1k","seed":17,"rep":0,"metrics":{"n":1000,"trace_sha256":"91b0"},"timing":{"wall_ms":13.81}}"#;
        let from_artifact = JournalEntry {
            spec_sha256: "abc".into(),
            build: "b1".into(),
            record: TrialRecord::from_row(&Json::parse(row).unwrap()).unwrap(),
        };
        assert_eq!(Json::Obj(from_artifact.record.to_row()).emit(), row);
        let inputs = [entry("a", 17), entry("b", 23), from_artifact];
        for e in &inputs {
            append(&path, e).unwrap();
        }
        assert_eq!(read(&path).unwrap(), inputs);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let dir = std::env::temp_dir().join(format!("lab_torn_{}", std::process::id()));
        let path = journal_path(&dir, "demo");
        let _ = std::fs::remove_file(&path);
        append(&path, &entry("a", 17)).unwrap();
        // Simulate a crash mid-append: half a JSON line, no newline.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"{\"v\":1,\"spec_sha256\":\"abc\",\"varia")
            .unwrap();
        drop(f);
        let back = read(&path).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].record.key.seed, 17);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn append_after_torn_tail_truncates_it() {
        let dir = std::env::temp_dir().join(format!("lab_heal_{}", std::process::id()));
        let path = journal_path(&dir, "demo");
        let _ = std::fs::remove_file(&path);
        append(&path, &entry("a", 17)).unwrap();
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"{\"v\":1,\"spec_sha256\":\"abc\",\"varia")
            .unwrap();
        drop(f);
        // The resumed run appends over the torn tail: it must not weld
        // onto the half line.
        append(&path, &entry("b", 23)).unwrap();
        let back = read(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[1].record.key.variant, "b");
        let _ = std::fs::remove_file(&path);
    }

    /// The reader and the writer agree on what a trial is: an entry whose
    /// line has no `\n` yet is not one, so the trial that reuses it cannot
    /// vanish when the next append heals the tail.
    #[test]
    fn an_unterminated_entry_is_no_trial_to_reader_or_writer() {
        let dir = std::env::temp_dir().join(format!("lab_agree_{}", std::process::id()));
        let path = journal_path(&dir, "demo");
        let _ = std::fs::remove_file(&path);
        append(&path, &entry("a", 1)).unwrap();
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(entry("a", 2).to_json().emit().as_bytes())
            .unwrap();
        drop(f);
        let seeds = || -> Vec<u64> {
            let back = read(&path).unwrap();
            back.iter().map(|e| e.record.key.seed).collect()
        };
        assert_eq!(seeds(), [1]);
        append(&path, &entry("a", 3)).unwrap();
        assert_eq!(seeds(), [1, 3]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mid_journal_corruption_is_an_error() {
        let dir = std::env::temp_dir().join(format!("lab_mid_{}", std::process::id()));
        let path = journal_path(&dir, "demo");
        let _ = std::fs::remove_file(&path);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, "not json\n").unwrap();
        append(&path, &entry("a", 17)).unwrap();
        assert!(read(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reuse_requires_matching_spec_build_and_aux() {
        let mut e = entry("a", 17);
        assert!(reusable(&e, "abc", "b1"));
        assert!(!reusable(&e, "other", "b1"));
        assert!(!reusable(&e, "abc", "b2"));
        // A line from before the stamp reads back with an empty one.
        let unstamped =
            Json::parse(r#"{"spec_sha256":"abc","variant":"a","seed":17,"metrics":{}}"#)
                .and_then(|v| JournalEntry::from_json(&v))
                .unwrap();
        assert!(!reusable(&unstamped, "abc", "b1"));
        e.record.aux.push(AuxFile {
            path: "/definitely/not/a/file.ulm".into(),
            sha256: "0".into(),
        });
        assert!(!reusable(&e, "abc", "b1"));
    }
}
