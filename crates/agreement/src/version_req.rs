//! Version strings and constraints.
//!
//! Package versions in the 2004 software stacks are messy: `2.4.3`,
//! `1.6.2`, `4.2r0`, `3.2p1`. [`Version`] parses them into alternating
//! numeric/alphabetic components compared piecewise; [`VersionReq`]
//! expresses the constraints a service agreement states (exact,
//! minimum, wildcard).

use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;

/// One parsed component of a version string.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Part {
    /// Alphabetic runs compare lexically, below any number…
    Alpha(String),
    /// …numeric runs compare numerically.
    Num(u64),
}

/// A parsed version string.
///
/// Equality follows ordering semantics (`2.4 == 2.4.0`), not textual
/// identity; alphabetic suffixes sort *below* the bare version, the
/// semver pre-release convention (`1.2rc1 < 1.2`).
#[derive(Debug, Clone, Eq)]
pub struct Version {
    parts: Vec<Part>,
    original: String,
}

impl PartialEq for Version {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Version {
    /// Parses any non-empty string; separators (`.`, `-`, `_`) split
    /// components, and digit/letter boundaries split within them
    /// (`4.2r0` → 4, 2, "r", 0).
    pub fn parse(s: &str) -> Option<Version> {
        let s = s.trim();
        if s.is_empty() {
            return None;
        }
        let mut parts = Vec::new();
        for chunk in s.split(['.', '-', '_']) {
            let mut current = String::new();
            let mut is_digit: Option<bool> = None;
            for c in chunk.chars() {
                let d = c.is_ascii_digit();
                if is_digit.is_some() && is_digit != Some(d) {
                    push_part(&mut parts, &current, is_digit == Some(true));
                    current.clear();
                }
                is_digit = Some(d);
                current.push(c);
            }
            if !current.is_empty() {
                push_part(&mut parts, &current, is_digit == Some(true));
            }
        }
        if parts.is_empty() {
            return None;
        }
        Some(Version { parts, original: s.to_string() })
    }

    /// The original text.
    pub fn as_str(&self) -> &str {
        &self.original
    }

    /// Number of components (used by wildcard matching).
    fn len(&self) -> usize {
        self.parts.len()
    }

    fn prefix_matches(&self, other: &Version, n: usize) -> bool {
        self.parts.iter().take(n).eq(other.parts.iter().take(n))
    }
}

fn push_part(parts: &mut Vec<Part>, text: &str, digit: bool) {
    if digit {
        parts.push(Part::Num(text.parse().unwrap_or(u64::MAX)));
    } else {
        parts.push(Part::Alpha(text.to_ascii_lowercase()));
    }
}

impl PartialOrd for Version {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Version {
    fn cmp(&self, other: &Self) -> Ordering {
        // Missing trailing components compare as zero: 2.4 == 2.4.0.
        let len = self.parts.len().max(other.parts.len());
        for i in 0..len {
            let a = self.parts.get(i).cloned().unwrap_or(Part::Num(0));
            let b = other.parts.get(i).cloned().unwrap_or(Part::Num(0));
            match a.cmp(&b) {
                Ordering::Equal => continue,
                non_eq => return non_eq,
            }
        }
        Ordering::Equal
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.original)
    }
}

/// A version constraint from a service agreement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VersionReq {
    /// Any version is acceptable (presence is the requirement).
    Any,
    /// Exactly this version.
    Exact(Version),
    /// This version or newer.
    AtLeast(Version),
    /// Matches the given leading components (`2.4.x`).
    Prefix(Version),
}

impl VersionReq {
    /// Whether `version` satisfies the constraint.
    pub fn matches(&self, version: &Version) -> bool {
        match self {
            VersionReq::Any => true,
            VersionReq::Exact(want) => version == want,
            VersionReq::AtLeast(min) => version >= min,
            VersionReq::Prefix(prefix) => version.prefix_matches(prefix, prefix.len()),
        }
    }

    /// Whether a raw version string satisfies the constraint.
    pub fn matches_str(&self, version: &str) -> bool {
        Version::parse(version).is_some_and(|v| self.matches(&v))
    }
}

impl fmt::Display for VersionReq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VersionReq::Any => f.write_str("*"),
            VersionReq::Exact(v) => write!(f, "{v}"),
            VersionReq::AtLeast(v) => write!(f, ">={v}"),
            VersionReq::Prefix(v) => write!(f, "{v}.x"),
        }
    }
}

impl FromStr for VersionReq {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() || s == "*" {
            return Ok(VersionReq::Any);
        }
        if let Some(rest) = s.strip_prefix(">=") {
            let v = Version::parse(rest).ok_or_else(|| format!("bad version in {s:?}"))?;
            return Ok(VersionReq::AtLeast(v));
        }
        if let Some(rest) = s.strip_suffix(".x").or_else(|| s.strip_suffix(".*")) {
            let v = Version::parse(rest).ok_or_else(|| format!("bad version in {s:?}"))?;
            return Ok(VersionReq::Prefix(v));
        }
        let v = Version::parse(s).ok_or_else(|| format!("bad version in {s:?}"))?;
        Ok(VersionReq::Exact(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Version {
        Version::parse(s).unwrap()
    }

    #[test]
    fn parse_and_order_simple() {
        assert!(v("2.4.3") > v("2.4.0"));
        assert!(v("2.4.3") < v("2.10.0"), "numeric, not lexical");
        assert!(v("1.2.5") == v("1.2.5"));
        assert!(v("2.4") == v("2.4.0"), "missing components are zero");
    }

    #[test]
    fn parse_messy_2004_versions() {
        assert!(v("4.2r0") > v("4.1r3"));
        assert!(v("4.2r1") > v("4.2r0"));
        // Alphabetic suffixes sort below the bare version (semver
        // pre-release convention).
        assert!(v("3.2p1") < v("3.2"));
        assert!(v("6.6.5") > v("6.6"));
        assert_eq!(v("4.2r0").as_str(), "4.2r0");
    }

    #[test]
    fn alpha_below_number() {
        // 1.2rc1 < 1.2.1 (alpha part sorts below numeric part).
        assert!(v("1.2rc1") < v("1.2.1"));
    }

    #[test]
    fn empty_rejected() {
        assert!(Version::parse("").is_none());
        assert!(Version::parse("   ").is_none());
        assert!(Version::parse("...").is_none());
    }

    #[test]
    fn req_any() {
        let req: VersionReq = "*".parse().unwrap();
        assert!(req.matches_str("0.0.1"));
        assert!(req.matches_str("99"));
        assert!(!req.matches_str(""), "unparseable version never matches");
        let req: VersionReq = "".parse().unwrap();
        assert_eq!(req, VersionReq::Any);
    }

    #[test]
    fn req_exact() {
        let req: VersionReq = "2.4.3".parse().unwrap();
        assert!(req.matches_str("2.4.3"));
        assert!(!req.matches_str("2.4.4"));
        assert!(req.matches_str("2.4.3.0"), "trailing zeros equal");
    }

    #[test]
    fn req_at_least() {
        let req: VersionReq = ">=2.4.0".parse().unwrap();
        assert!(req.matches_str("2.4.0"));
        assert!(req.matches_str("2.4.3"));
        assert!(req.matches_str("3.0"));
        assert!(!req.matches_str("2.3.9"));
    }

    #[test]
    fn req_prefix() {
        let req: VersionReq = "2.4.x".parse().unwrap();
        assert!(req.matches_str("2.4.0"));
        assert!(req.matches_str("2.4.99"));
        assert!(!req.matches_str("2.5.0"));
        assert!(!req.matches_str("3.4.0"));
        let req: VersionReq = "1.6.*".parse().unwrap();
        assert!(req.matches_str("1.6.2"));
    }

    #[test]
    fn req_display_roundtrip() {
        for text in ["*", "2.4.3", ">=2.4.0", "2.4.x"] {
            let req: VersionReq = text.parse().unwrap();
            let again: VersionReq = req.to_string().parse().unwrap();
            assert_eq!(req, again, "roundtrip failed for {text}");
        }
    }

    #[test]
    fn req_rejects_garbage() {
        assert!(">=".parse::<VersionReq>().is_err());
        assert!(".x".parse::<VersionReq>().is_err());
    }
}
