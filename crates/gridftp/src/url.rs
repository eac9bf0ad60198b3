//! `gsiftp://` URL handling.
//!
//! Replica catalog location entries "contain attributes that provide all
//! information (protocol, hostname, port, path) required to map from
//! logical names for files to URLs corresponding to file locations on the
//! storage system" (§6.2).

use std::fmt;

/// Default GridFTP control port.
pub const DEFAULT_PORT: u16 = 2811;

/// A parsed storage URL.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GridUrl {
    pub scheme: String,
    pub host: String,
    pub port: u16,
    /// Path on the storage system (leading slash stripped).
    pub path: String,
}

/// URL parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UrlError(pub String);

impl fmt::Display for UrlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid URL: {}", self.0)
    }
}

impl std::error::Error for UrlError {}

impl GridUrl {
    pub fn new(host: impl Into<String>, path: impl Into<String>) -> Self {
        GridUrl {
            scheme: "gsiftp".to_string(),
            host: host.into(),
            port: DEFAULT_PORT,
            path: path.into().trim_start_matches('/').to_string(),
        }
    }

    /// Parse `scheme://host[:port]/path`.
    pub fn parse(s: &str) -> Result<GridUrl, UrlError> {
        let (scheme, rest) = s
            .split_once("://")
            .ok_or_else(|| UrlError(format!("missing scheme: {s}")))?;
        if scheme.is_empty() {
            return Err(UrlError(format!("empty scheme: {s}")));
        }
        let (authority, path) = match rest.split_once('/') {
            Some((a, p)) => (a, p),
            None => (rest, ""),
        };
        if authority.is_empty() {
            // `file:///path` has an empty authority: local files.
            if scheme == "file" {
                return Ok(GridUrl {
                    scheme: scheme.to_string(),
                    host: String::new(),
                    port: 0,
                    path: path.to_string(),
                });
            }
            return Err(UrlError(format!("empty host: {s}")));
        }
        let (host, port) = match authority.split_once(':') {
            Some((h, p)) => (
                h,
                p.parse::<u16>()
                    .map_err(|_| UrlError(format!("bad port in {s}")))?,
            ),
            None => (authority, DEFAULT_PORT),
        };
        if host.is_empty() {
            return Err(UrlError(format!("empty host: {s}")));
        }
        Ok(GridUrl {
            scheme: scheme.to_string(),
            host: host.to_string(),
            port,
            path: path.to_string(),
        })
    }
}

impl fmt::Display for GridUrl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.port == DEFAULT_PORT {
            write!(f, "{}://{}/{}", self.scheme, self.host, self.path)
        } else {
            write!(
                f,
                "{}://{}:{}/{}",
                self.scheme, self.host, self.port, self.path
            )
        }
    }
}

impl std::str::FromStr for GridUrl {
    type Err = UrlError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        GridUrl::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full() {
        let u = GridUrl::parse("gsiftp://sprite.llnl.gov:2812/data/co2/jan.esg").unwrap();
        assert_eq!(u.scheme, "gsiftp");
        assert_eq!(u.host, "sprite.llnl.gov");
        assert_eq!(u.port, 2812);
        assert_eq!(u.path, "data/co2/jan.esg");
    }

    #[test]
    fn default_port() {
        let u = GridUrl::parse("gsiftp://jupiter.isi.edu/f").unwrap();
        assert_eq!(u.port, DEFAULT_PORT);
    }

    #[test]
    fn display_round_trip() {
        for s in [
            "gsiftp://host/a/b/c",
            "gsiftp://host:9999/a",
            "http://dods.server/data",
        ] {
            let u = GridUrl::parse(s).unwrap();
            assert_eq!(GridUrl::parse(&u.to_string()).unwrap(), u, "{s}");
        }
    }

    #[test]
    fn errors() {
        assert!(GridUrl::parse("no-scheme").is_err());
        assert!(GridUrl::parse("gsiftp://").is_err());
        assert!(GridUrl::parse("gsiftp://host:notaport/x").is_err());
        assert!(GridUrl::parse("://host/x").is_err());
    }

    #[test]
    fn file_urls_have_empty_host() {
        let u = GridUrl::parse("file:///tmp/data/payload.bin").unwrap();
        assert_eq!(u.scheme, "file");
        assert_eq!(u.host, "");
        assert_eq!(u.path, "tmp/data/payload.bin");
        assert!(GridUrl::parse("file://").is_ok());
        // Non-file schemes still require a host.
        assert!(GridUrl::parse("http://").is_err());
    }

    #[test]
    fn builder() {
        let u = GridUrl {
            port: 3000,
            ..GridUrl::new("anl.gov", "/cache/file.esg")
        };
        assert_eq!(u.to_string(), "gsiftp://anl.gov:3000/cache/file.esg");
    }

    #[test]
    fn empty_path_allowed() {
        let u = GridUrl::parse("gsiftp://host").unwrap();
        assert_eq!(u.path, "");
        assert_eq!(u.to_string(), "gsiftp://host/");
    }
}
