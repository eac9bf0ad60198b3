//! Append-only line journals: the campaign checkpoint, the campaign's
//! flight-recorder tape and the lab's trial journal.
//!
//! One rule decides what a journal holds: only a `\n`-terminated line is a
//! fact. A crash can tear the final line and nothing else, so every reader
//! ignores an unterminated tail, and opening a journal for appending
//! truncates that tail once — the next append must not weld onto it. After
//! that an append is one write of the whole batch. A journal is UTF-8
//! text; one that is not reads as an `InvalidData` error and is left as it
//! is.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;

/// A journal open for appending, its torn tail already healed.
pub struct Journal {
    file: File,
}

impl Journal {
    /// Open (creating) the journal at `path`, heal its torn tail and
    /// return its complete lines.
    pub fn open(path: &Path) -> io::Result<(Journal, Vec<String>)> {
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        let keep = complete_len(&buf);
        let lines = lines_of(&buf[..keep])?;
        let mut journal = Journal { file };
        if keep < buf.len() {
            journal.cut(keep as u64)?;
        }
        Ok((journal, lines))
    }

    /// Append `lines`, each `\n`-terminated, in one write.
    pub fn append(&mut self, lines: &[impl AsRef<str>]) -> io::Result<()> {
        let mut batch = String::new();
        for line in lines {
            batch.push_str(line.as_ref());
            batch.push('\n');
        }
        self.file.write_all(batch.as_bytes())
    }

    /// Replace everything the journal holds with `lines`.
    pub fn reset(&mut self, lines: &[impl AsRef<str>]) -> io::Result<()> {
        self.cut(0)?;
        self.append(lines)
    }

    /// Truncate to `len` bytes; appends go to the new end.
    fn cut(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }
}

/// The complete lines of the journal at `path`, without opening it for
/// writing. A missing file reads as empty.
pub fn read_lines(path: &Path) -> io::Result<Vec<String>> {
    match std::fs::read(path) {
        Ok(buf) => lines_of(&buf[..complete_len(&buf)]),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(e),
    }
}

/// The length of `buf`'s complete lines: up to and including its last `\n`.
fn complete_len(buf: &[u8]) -> usize {
    buf.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1)
}

/// The lines of complete-line text, without their terminators.
fn lines_of(complete: &[u8]) -> io::Result<Vec<String>> {
    let text =
        std::str::from_utf8(complete).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    Ok(text.split_terminator('\n').map(str::to_string).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("esg-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn open_heals_the_torn_tail_once_and_returns_the_facts() {
        let path = tmp("heal");
        std::fs::write(&path, "a\n\nb c\nd").unwrap();
        assert_eq!(read_lines(&path).unwrap(), ["a", "", "b c"]);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"a\n\nb c\nd",
            "reading writes nothing"
        );
        let (mut j, lines) = Journal::open(&path).unwrap();
        assert_eq!(lines, ["a", "", "b c"]);
        assert_eq!(std::fs::read(&path).unwrap(), b"a\n\nb c\n");
        j.append(&["e", "f"]).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"a\n\nb c\ne\nf\n");
        j.reset(&["h"]).unwrap();
        j.append(&["i"]).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"h\ni\n");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_missing_journal_reads_empty_and_opens_as_a_new_file() {
        let path = tmp("missing");
        assert!(read_lines(&path).unwrap().is_empty());
        assert!(!path.exists());
        let (mut j, lines) = Journal::open(&path).unwrap();
        assert!(lines.is_empty());
        j.append(&["x"]).unwrap();
        assert_eq!(read_lines(&path).unwrap(), ["x"]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_journal_that_is_not_text_is_an_error_and_left_alone() {
        let path = tmp("binary");
        std::fs::write(&path, b"ok\n\xff\ntail").unwrap();
        let kind = |r: io::Result<()>| r.unwrap_err().kind();
        assert_eq!(
            kind(read_lines(&path).map(drop)),
            io::ErrorKind::InvalidData
        );
        assert_eq!(
            kind(Journal::open(&path).map(drop)),
            io::ErrorKind::InvalidData
        );
        assert_eq!(std::fs::read(&path).unwrap(), b"ok\n\xff\ntail");
        // A torn tail is not read at all, so half a character in it is no error.
        std::fs::write(&path, &"ok\n\u{20ac}".as_bytes()[..5]).unwrap();
        assert_eq!(Journal::open(&path).unwrap().1, ["ok"]);
        assert_eq!(std::fs::read(&path).unwrap(), b"ok\n");
        let _ = std::fs::remove_file(&path);
    }
}
