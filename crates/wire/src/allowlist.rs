//! The centralized controller's host allowlist.
//!
//! "When the centralized controller receives an incoming connection
//! from a distributed controller, it checks the host against a list of
//! hostnames to see whether it should accept the connection" (§3.2.1).
//! Entries are exact hostnames or leading-wildcard patterns
//! (`*.teragrid.org`), matched case-insensitively as DNS names are.

/// A list of hosts permitted to submit reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HostAllowlist {
    exact: Vec<String>,
    /// Suffixes (including the leading dot) from `*.domain` patterns.
    suffixes: Vec<String>,
    /// Whether the list allows everyone (`*`).
    allow_all: bool,
}

impl HostAllowlist {
    /// An empty list that rejects everything.
    pub fn deny_all() -> Self {
        HostAllowlist::default()
    }

    /// A list that accepts any host (useful in tests and closed nets).
    pub fn allow_all() -> Self {
        HostAllowlist { allow_all: true, ..Default::default() }
    }

    /// Builds a list from entries (exact names, `*.suffix`, or `*`).
    pub fn from_entries<I, S>(entries: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut list = HostAllowlist::default();
        for entry in entries {
            list.add(entry.as_ref());
        }
        list
    }

    /// Adds one entry.
    pub fn add(&mut self, entry: &str) {
        let entry = entry.trim().to_ascii_lowercase();
        if entry.is_empty() {
            return;
        }
        if entry == "*" {
            self.allow_all = true;
        } else if let Some(suffix) = entry.strip_prefix("*.") {
            self.suffixes.push(format!(".{suffix}"));
        } else {
            self.exact.push(entry);
        }
    }

    /// Whether `host` may submit reports.
    pub fn allows(&self, host: &str) -> bool {
        if self.allow_all {
            return true;
        }
        let host = host.trim().to_ascii_lowercase();
        if self.exact.contains(&host) {
            return true;
        }
        self.suffixes.iter().any(|s| host.ends_with(s.as_str()) && host.len() > s.len())
    }

    /// Number of configured entries (wildcard-all counts as one).
    pub fn len(&self) -> usize {
        self.exact.len() + self.suffixes.len() + usize::from(self.allow_all)
    }

    /// Whether no entry is configured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deny_all_rejects() {
        let list = HostAllowlist::deny_all();
        assert!(!list.allows("tg-login1.sdsc.teragrid.org"));
        assert!(list.is_empty());
    }

    #[test]
    fn allow_all_accepts() {
        let list = HostAllowlist::allow_all();
        assert!(list.allows("anything.example.com"));
        assert_eq!(list.len(), 1);
    }

    #[test]
    fn exact_match() {
        let list = HostAllowlist::from_entries(["rachel.psc.edu", "lemieux.psc.edu"]);
        assert!(list.allows("rachel.psc.edu"));
        assert!(list.allows("lemieux.psc.edu"));
        assert!(!list.allows("other.psc.edu"));
        assert_eq!(list.len(), 2);
    }

    #[test]
    fn wildcard_suffix() {
        let list = HostAllowlist::from_entries(["*.teragrid.org"]);
        assert!(list.allows("tg-login1.sdsc.teragrid.org"));
        assert!(list.allows("tg-viz-login1.uc.teragrid.org"));
        assert!(!list.allows("teragrid.org"), "bare suffix must not match");
        assert!(!list.allows("evil-teragrid.org"));
        assert!(!list.allows("tg-login1.sdsc.teragrid.org.evil.com"));
    }

    #[test]
    fn case_insensitive() {
        let list = HostAllowlist::from_entries(["Rachel.PSC.edu", "*.TeraGrid.Org"]);
        assert!(list.allows("rachel.psc.edu"));
        assert!(list.allows("RACHEL.PSC.EDU"));
        assert!(list.allows("tg-login1.ncsa.teragrid.org"));
    }

    #[test]
    fn teragrid_deployment_list() {
        // The ten Table 2 machines under one pattern set.
        let list = HostAllowlist::from_entries([
            "*.teragrid.org",
            "rachel.psc.edu",
            "lemieux.psc.edu",
            "cycle.cc.purdue.edu",
            "dslogin.sdsc.edu",
        ]);
        for host in [
            "tg-viz-login1.uc.teragrid.org",
            "tg-login2.uc.teragrid.org",
            "tg-login1.caltech.teragrid.org",
            "tg-login1.ncsa.teragrid.org",
            "rachel.psc.edu",
            "lemieux.psc.edu",
            "cycle.cc.purdue.edu",
            "tg-login.rcs.purdue.edu",
            "tg-login1.sdsc.teragrid.org",
            "dslogin.sdsc.edu",
        ] {
            // tg-login.rcs.purdue.edu is NOT covered by the patterns above.
            if host == "tg-login.rcs.purdue.edu" {
                assert!(!list.allows(host));
            } else {
                assert!(list.allows(host), "{host} should be allowed");
            }
        }
    }

    #[test]
    fn empty_entries_ignored() {
        let list = HostAllowlist::from_entries(["", "  ", "real.host.org"]);
        assert_eq!(list.len(), 1);
        assert!(list.allows("real.host.org"));
    }
}
