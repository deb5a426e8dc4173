//! What the depot's two caches share when they read the cache
//! document: an `<incaCache>` root nesting `<branch name="…" id="…">`
//! levels, general component outermost, with each `<incaReport>` at its
//! branch's innermost level.

use std::fmt;

use inca_xml::{Token, Tokenizer, XmlError};

use crate::BranchId;

/// Errors from cache reads and from loading a persisted document.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheError {
    /// The cache document, or a report read from it, is corrupt.
    Corrupt(String),
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Corrupt(m) => write!(f, "cache corrupt: {m}"),
        }
    }
}

impl std::error::Error for CacheError {}

impl From<XmlError> for CacheError {
    fn from(e: XmlError) -> Self {
        CacheError::Corrupt(e.to_string())
    }
}

/// The branch identifier of a general-first nesting path (identifiers
/// read specific-first).
pub fn branch_of<N: AsRef<str>, V: AsRef<str>>(path: &[(N, V)]) -> Result<BranchId, CacheError> {
    BranchId::new(path.iter().rev().map(|(n, v)| (n.as_ref(), v.as_ref())))
        .map_err(|e| CacheError::Corrupt(e.to_string()))
}

/// Consumes tokens until the element `name`, whose start tag was just
/// read, closes; returns the byte offset just past its end tag.
pub fn element_end(tok: &mut Tokenizer<'_>, name: &str) -> Result<usize, CacheError> {
    let mut depth = 1usize;
    while depth > 0 {
        let token = tok
            .next_token()?
            .ok_or_else(|| CacheError::Corrupt(format!("<{name}> never closes")))?;
        match token {
            Token::StartTag { self_closing: false, .. } => depth += 1,
            Token::EndTag { .. } => depth -= 1,
            _ => {}
        }
    }
    Ok(tok.offset())
}
