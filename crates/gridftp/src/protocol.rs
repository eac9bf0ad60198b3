//! GridFTP control-channel protocol: commands and replies.
//!
//! "We chose to extend the FTP protocol because ... FTP ... provides a
//! well-defined architecture for protocol extensions and supports dynamic
//! discovery of the extensions supported by a particular implementation"
//! (§6.1). The command set here is RFC 959 plus the GridFTP extensions the
//! paper describes: `AUTH GSSAPI` (GSI), `MODE E` (extended block),
//! `OPTS RETR Parallelism=n`, `SPAS`/`SPOR` (striping), `ERET`/`ESTO`
//! (partial retrieval / server-side processing), `SBUF` (TCP buffer
//! negotiation) and extended `REST` restart markers.

use crate::ranges::RangeSet;
use std::fmt;

/// A parsed control-channel command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    User(String),
    Pass(String),
    /// `AUTH GSSAPI` — begin a GSI handshake on the control channel.
    AuthGssapi,
    /// `ADAT <hex>` — a handshake token.
    Adat(String),
    /// `TYPE I` (binary) or `TYPE A`.
    Type(char),
    /// `MODE S` (stream) or `MODE E` (extended block).
    Mode(char),
    /// `SBUF <bytes>` — set TCP buffer size.
    Sbuf(u64),
    /// `OPTS RETR Parallelism=n;` — request n parallel data streams.
    OptsRetrParallelism(u32),
    Pasv,
    /// `SPAS` — striped passive: server returns multiple endpoints.
    Spas,
    /// `SPOR h1,h2,h3,h4,p1,p2 h1,...` — striped port: tell the server to
    /// dial multiple remote data endpoints (the striped counterpart of
    /// PORT, used for striped third-party transfers).
    Spor(Vec<std::net::SocketAddrV4>),
    /// `PORT h1,h2,h3,h4,p1,p2`.
    Port(std::net::SocketAddrV4),
    /// `REST <marker>` where marker is `N` or `a-b,c-d` (ranges already
    /// received; the server sends the complement).
    Rest(RangeSet),
    Retr(String),
    Stor(String),
    /// `ERET P <offset> <length> <path>` — partial retrieval.
    EretPartial {
        offset: u64,
        length: u64,
        path: String,
    },
    /// `ERET X <variable> <t0> <t1> <path>` — server-side processing: the
    /// server opens the ESG1 dataset, extracts time steps `[t0, t1)` of
    /// one variable, and transmits only the subset. ("Server side
    /// processing ... can process the data prior to transmission", §6.1;
    /// the extraction/subsetting ESG-II planned to push to the server.)
    EretSubset {
        variable: String,
        t0: usize,
        t1: usize,
        path: String,
    },
    /// `ESTO A <offset> <path>` — store with adjusted offset.
    EstoAdjusted {
        offset: u64,
        path: String,
    },
    Size(String),
    /// `CKSM SHA256 <offset> <length> <path>` (length 0 = to EOF).
    Cksm {
        offset: u64,
        length: u64,
        path: String,
    },
    Feat,
    Noop,
    Quit,
}

/// Command parse failure: the server answers 500/501.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    UnknownCommand(String),
    BadArguments(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::UnknownCommand(c) => write!(f, "unknown command {c}"),
            ParseError::BadArguments(c) => write!(f, "bad arguments: {c}"),
        }
    }
}

impl std::error::Error for ParseError {}

fn parse_rest(arg: &str) -> Result<RangeSet, ParseError> {
    let arg = arg.trim();
    if let Ok(n) = arg.parse::<u64>() {
        // Classic REST N: bytes [0, N) already held.
        let mut r = RangeSet::new();
        r.insert(0, n);
        return Ok(r);
    }
    RangeSet::from_marker(arg).ok_or_else(|| ParseError::BadArguments(format!("REST {arg}")))
}

impl Command {
    /// Parse one control line (without CRLF).
    pub fn parse(line: &str) -> Result<Command, ParseError> {
        let line = line.trim();
        let (verb, arg) = match line.split_once(' ') {
            Some((v, a)) => (v, a.trim()),
            None => (line, ""),
        };
        let verb_upper = verb.to_ascii_uppercase();
        let bad = || ParseError::BadArguments(line.to_string());
        match verb_upper.as_str() {
            "USER" => Ok(Command::User(arg.to_string())),
            "PASS" => Ok(Command::Pass(arg.to_string())),
            "AUTH" => {
                if arg.eq_ignore_ascii_case("GSSAPI") {
                    Ok(Command::AuthGssapi)
                } else {
                    Err(bad())
                }
            }
            "ADAT" => Ok(Command::Adat(arg.to_string())),
            "TYPE" => {
                let c = arg.chars().next().ok_or_else(bad)?.to_ascii_uppercase();
                if c == 'I' || c == 'A' {
                    Ok(Command::Type(c))
                } else {
                    Err(bad())
                }
            }
            "MODE" => {
                let c = arg.chars().next().ok_or_else(bad)?.to_ascii_uppercase();
                if c == 'S' || c == 'E' {
                    Ok(Command::Mode(c))
                } else {
                    Err(bad())
                }
            }
            "SBUF" => Ok(Command::Sbuf(arg.parse().map_err(|_| bad())?)),
            "OPTS" => {
                // OPTS RETR Parallelism=n;
                let rest = arg
                    .strip_prefix("RETR ")
                    .or_else(|| arg.strip_prefix("retr "))
                    .ok_or_else(bad)?;
                let rest = rest.trim().trim_end_matches(';');
                let (k, v) = rest.split_once('=').ok_or_else(bad)?;
                if k.eq_ignore_ascii_case("parallelism") {
                    Ok(Command::OptsRetrParallelism(v.parse().map_err(|_| bad())?))
                } else {
                    Err(bad())
                }
            }
            "PASV" => Ok(Command::Pasv),
            "SPAS" => Ok(Command::Spas),
            "SPOR" => {
                let mut addrs = Vec::new();
                for part in arg.split_whitespace() {
                    let nums: Vec<u8> = part
                        .split(',')
                        .map(|p| p.trim().parse::<u8>())
                        .collect::<Result<_, _>>()
                        .map_err(|_| bad())?;
                    if nums.len() != 6 {
                        return Err(bad());
                    }
                    let ip = std::net::Ipv4Addr::new(nums[0], nums[1], nums[2], nums[3]);
                    let port = u16::from(nums[4]) << 8 | u16::from(nums[5]);
                    addrs.push(std::net::SocketAddrV4::new(ip, port));
                }
                if addrs.is_empty() {
                    return Err(bad());
                }
                Ok(Command::Spor(addrs))
            }
            "PORT" => {
                let nums: Vec<u8> = arg
                    .split(',')
                    .map(|p| p.trim().parse::<u8>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| bad())?;
                if nums.len() != 6 {
                    return Err(bad());
                }
                let ip = std::net::Ipv4Addr::new(nums[0], nums[1], nums[2], nums[3]);
                let port = u16::from(nums[4]) << 8 | u16::from(nums[5]);
                Ok(Command::Port(std::net::SocketAddrV4::new(ip, port)))
            }
            "REST" => Ok(Command::Rest(parse_rest(arg)?)),
            "RETR" => Ok(Command::Retr(arg.to_string())),
            "STOR" => Ok(Command::Stor(arg.to_string())),
            "ERET" => {
                let mode = arg.split(' ').next().ok_or_else(bad)?;
                if mode.eq_ignore_ascii_case("P") {
                    // ERET P <offset> <length> <path>
                    let mut it = arg.splitn(4, ' ');
                    it.next();
                    let offset = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                    let length = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                    let path = it.next().ok_or_else(bad)?.to_string();
                    Ok(Command::EretPartial {
                        offset,
                        length,
                        path,
                    })
                } else if mode.eq_ignore_ascii_case("X") {
                    // ERET X <variable> <t0> <t1> <path>
                    let mut it = arg.splitn(5, ' ');
                    it.next();
                    let variable = it.next().ok_or_else(bad)?.to_string();
                    let t0 = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                    let t1 = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                    let path = it.next().ok_or_else(bad)?.to_string();
                    Ok(Command::EretSubset {
                        variable,
                        t0,
                        t1,
                        path,
                    })
                } else {
                    Err(bad())
                }
            }
            "ESTO" => {
                let mut it = arg.splitn(3, ' ');
                let a = it.next().ok_or_else(bad)?;
                if !a.eq_ignore_ascii_case("A") {
                    return Err(bad());
                }
                let offset = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                let path = it.next().ok_or_else(bad)?.to_string();
                Ok(Command::EstoAdjusted { offset, path })
            }
            "SIZE" => Ok(Command::Size(arg.to_string())),
            "CKSM" => {
                let mut it = arg.splitn(4, ' ');
                let alg = it.next().ok_or_else(bad)?;
                if !alg.eq_ignore_ascii_case("SHA256") {
                    return Err(bad());
                }
                let offset = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                let length = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                let path = it.next().ok_or_else(bad)?.to_string();
                Ok(Command::Cksm {
                    offset,
                    length,
                    path,
                })
            }
            "FEAT" => Ok(Command::Feat),
            "NOOP" => Ok(Command::Noop),
            "QUIT" => Ok(Command::Quit),
            _ => Err(ParseError::UnknownCommand(verb_upper)),
        }
    }

    /// Serialize for sending (without CRLF).
    pub fn to_line(&self) -> String {
        match self {
            Command::User(u) => format!("USER {u}"),
            Command::Pass(p) => format!("PASS {p}"),
            Command::AuthGssapi => "AUTH GSSAPI".to_string(),
            Command::Adat(t) => format!("ADAT {t}"),
            Command::Type(c) => format!("TYPE {c}"),
            Command::Mode(c) => format!("MODE {c}"),
            Command::Sbuf(n) => format!("SBUF {n}"),
            Command::OptsRetrParallelism(n) => format!("OPTS RETR Parallelism={n};"),
            Command::Pasv => "PASV".to_string(),
            Command::Spas => "SPAS".to_string(),
            Command::Spor(addrs) => {
                let parts: Vec<String> = addrs
                    .iter()
                    .map(|a| {
                        let [x, y, z, w] = a.ip().octets();
                        let p = a.port();
                        format!("{x},{y},{z},{w},{},{}", p >> 8, p & 0xff)
                    })
                    .collect();
                format!("SPOR {}", parts.join(" "))
            }
            Command::Port(addr) => {
                let [a, b, c, d] = addr.ip().octets();
                let p = addr.port();
                format!("PORT {a},{b},{c},{d},{},{}", p >> 8, p & 0xff)
            }
            Command::Rest(r) => format!("REST {}", r.to_marker()),
            Command::Retr(p) => format!("RETR {p}"),
            Command::Stor(p) => format!("STOR {p}"),
            Command::EretPartial {
                offset,
                length,
                path,
            } => format!("ERET P {offset} {length} {path}"),
            Command::EretSubset {
                variable,
                t0,
                t1,
                path,
            } => format!("ERET X {variable} {t0} {t1} {path}"),
            Command::EstoAdjusted { offset, path } => format!("ESTO A {offset} {path}"),
            Command::Size(p) => format!("SIZE {p}"),
            Command::Cksm {
                offset,
                length,
                path,
            } => format!("CKSM SHA256 {offset} {length} {path}"),
            Command::Feat => "FEAT".to_string(),
            Command::Noop => "NOOP".to_string(),
            Command::Quit => "QUIT".to_string(),
        }
    }
}

/// A control-channel reply: 3-digit code + text (possibly multiline).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    pub code: u16,
    pub lines: Vec<String>,
}

impl Reply {
    pub fn new(code: u16, text: impl Into<String>) -> Self {
        Reply {
            code,
            lines: vec![text.into()],
        }
    }

    pub fn multiline(code: u16, lines: Vec<String>) -> Self {
        assert!(!lines.is_empty());
        Reply { code, lines }
    }

    pub fn text(&self) -> String {
        self.lines.join("\n")
    }

    /// Serialize with FTP multiline framing (`123-first`, ..., `123 last`).
    pub fn to_wire(&self) -> String {
        let mut out = String::new();
        for (i, line) in self.lines.iter().enumerate() {
            let last = i + 1 == self.lines.len();
            let sep = if last { ' ' } else { '-' };
            out.push_str(&format!("{}{}{}\r\n", self.code, sep, line));
        }
        out
    }

    /// Parse a full reply from wire lines; returns the reply and the number
    /// of input lines consumed.
    pub fn from_wire_lines(lines: &[&str]) -> Option<(Reply, usize)> {
        // Byte-level framing: a reply line is `DDDs…` where D are ASCII
        // digits and s is ' ' or '-'. Checking char boundaries explicitly
        // keeps arbitrary (multi-byte) garbage from panicking the slices.
        fn frame(line: &str) -> Option<(u16, u8, &str)> {
            let b = line.as_bytes();
            if b.len() < 4 || !b[..3].iter().all(|c| c.is_ascii_digit()) {
                return None;
            }
            if !line.is_char_boundary(4) {
                return None;
            }
            let code: u16 = line[..3].parse().ok()?;
            Some((code, b[3], &line[4..]))
        }
        let first = lines.first()?;
        let (code, sep, text) = frame(first)?;
        if sep != b' ' && sep != b'-' {
            return None;
        }
        let mut out = vec![text.to_string()];
        if sep == b' ' {
            return Some((Reply { code, lines: out }, 1));
        }
        for (i, line) in lines.iter().enumerate().skip(1) {
            match frame(line) {
                Some((c, s, text)) if c == code && s == b' ' => {
                    out.push(text.to_string());
                    return Some((Reply { code, lines: out }, i + 1));
                }
                // Prefixed continuation (`229-...`): strip the frame.
                Some((c, s, text)) if c == code && s == b'-' => {
                    out.push(text.to_string());
                }
                // Unprefixed continuation: keep verbatim.
                _ => out.push(line.to_string()),
            }
        }
        None // incomplete
    }
}

/// The FEAT response advertised by our server: the extension list is how
/// clients discover GridFTP capability.
pub fn feature_list() -> Vec<String> {
    vec![
        "Extensions supported:".to_string(),
        " AUTH GSSAPI".to_string(),
        " MODE E".to_string(),
        " PARALLEL".to_string(),
        " SPAS".to_string(),
        " ERET".to_string(),
        " ERET-X ESG1-SUBSET".to_string(),
        " ESTO".to_string(),
        " SBUF".to_string(),
        " REST STREAM".to_string(),
        " SIZE".to_string(),
        " CKSM SHA256".to_string(),
        "END".to_string(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_commands() {
        assert_eq!(
            Command::parse("USER esg").unwrap(),
            Command::User("esg".into())
        );
        assert_eq!(Command::parse("TYPE I").unwrap(), Command::Type('I'));
        assert_eq!(Command::parse("MODE E").unwrap(), Command::Mode('E'));
        assert_eq!(Command::parse("PASV").unwrap(), Command::Pasv);
        assert_eq!(Command::parse("QUIT").unwrap(), Command::Quit);
        assert_eq!(Command::parse("quit").unwrap(), Command::Quit);
        assert_eq!(
            Command::parse("SBUF 1048576").unwrap(),
            Command::Sbuf(1048576)
        );
    }

    #[test]
    fn parse_gridftp_extensions() {
        assert_eq!(
            Command::parse("OPTS RETR Parallelism=4;").unwrap(),
            Command::OptsRetrParallelism(4)
        );
        assert_eq!(
            Command::parse("ERET P 100 50 /data/file.esg").unwrap(),
            Command::EretPartial {
                offset: 100,
                length: 50,
                path: "/data/file.esg".into()
            }
        );
        assert_eq!(
            Command::parse("CKSM SHA256 0 0 /f").unwrap(),
            Command::Cksm {
                offset: 0,
                length: 0,
                path: "/f".into()
            }
        );
        assert_eq!(Command::parse("AUTH GSSAPI").unwrap(), Command::AuthGssapi);
    }

    #[test]
    fn parse_rest_variants() {
        match Command::parse("REST 1000").unwrap() {
            Command::Rest(r) => {
                assert!(r.contains(0, 1000));
                assert_eq!(r.total(), 1000);
            }
            _ => panic!(),
        }
        match Command::parse("REST 0-99,500-599").unwrap() {
            Command::Rest(r) => {
                assert_eq!(r.total(), 200);
                assert_eq!(r.span_count(), 2);
            }
            _ => panic!(),
        }
        assert!(Command::parse("REST x-y").is_err());
    }

    #[test]
    fn parse_port() {
        match Command::parse("PORT 127,0,0,1,4,1").unwrap() {
            Command::Port(addr) => {
                assert_eq!(addr.ip().octets(), [127, 0, 0, 1]);
                assert_eq!(addr.port(), 1025);
            }
            _ => panic!(),
        }
        assert!(Command::parse("PORT 1,2,3").is_err());
    }

    #[test]
    fn unknown_and_bad() {
        assert!(matches!(
            Command::parse("FROB x"),
            Err(ParseError::UnknownCommand(_))
        ));
        assert!(matches!(
            Command::parse("TYPE Z"),
            Err(ParseError::BadArguments(_))
        ));
        assert!(matches!(
            Command::parse("SBUF many"),
            Err(ParseError::BadArguments(_))
        ));
    }

    #[test]
    fn command_round_trip() {
        let cmds = vec![
            Command::User("u".into()),
            Command::AuthGssapi,
            Command::Type('I'),
            Command::Mode('E'),
            Command::Sbuf(65536),
            Command::OptsRetrParallelism(8),
            Command::Pasv,
            Command::Spas,
            Command::Spor(vec![
                std::net::SocketAddrV4::new(std::net::Ipv4Addr::new(10, 0, 0, 3), 5000),
                std::net::SocketAddrV4::new(std::net::Ipv4Addr::new(10, 0, 0, 4), 5001),
            ]),
            Command::Port(std::net::SocketAddrV4::new(
                std::net::Ipv4Addr::new(10, 0, 0, 2),
                2811,
            )),
            Command::Retr("/a/b".into()),
            Command::Stor("/c".into()),
            Command::EretPartial {
                offset: 5,
                length: 10,
                path: "/p".into(),
            },
            Command::EretSubset {
                variable: "tas".into(),
                t0: 4,
                t1: 12,
                path: "/chunk.esg".into(),
            },
            Command::EstoAdjusted {
                offset: 7,
                path: "/q".into(),
            },
            Command::Size("/s".into()),
            Command::Feat,
            Command::Noop,
            Command::Quit,
        ];
        for c in cmds {
            let line = c.to_line();
            assert_eq!(Command::parse(&line).unwrap(), c, "{line}");
        }
    }

    #[test]
    fn reply_wire_single() {
        let r = Reply::new(200, "OK");
        assert_eq!(r.to_wire(), "200 OK\r\n");
        let lines = vec!["200 OK"];
        let (parsed, used) = Reply::from_wire_lines(&lines).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(used, 1);
    }

    #[test]
    fn reply_wire_multiline() {
        let r = Reply::multiline(211, feature_list());
        let wire = r.to_wire();
        assert!(wire.starts_with("211-Extensions supported:\r\n"));
        assert!(wire.ends_with("211 END\r\n"));
        let line_refs: Vec<&str> = wire.lines().collect();
        let (parsed, used) = Reply::from_wire_lines(&line_refs).unwrap();
        assert_eq!(parsed.code, 211);
        assert_eq!(used, line_refs.len());
        // Framing round-trips exactly: parse(to_wire(r)) == r.
        assert_eq!(parsed, r);
    }

    #[test]
    fn incomplete_multiline_returns_none() {
        let lines = vec!["211-start", "middle"];
        assert!(Reply::from_wire_lines(&lines).is_none());
    }
}
