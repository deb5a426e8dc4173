//! Structural well-formedness skim: one tokenizer pass, no tree.
//!
//! The binary wire fast path (inca-wire) splices report bytes into the
//! depot cache without materializing an [`crate::Element`] tree — but
//! the cache must never hold garbage, because a single unbalanced tag
//! would corrupt the whole VO document. [`skim_balanced`] is the cheap
//! safety check for that path: it verifies the input is exactly one
//! well-formed element (balanced tags, nothing but whitespace, comments
//! and processing instructions outside the root) and returns the root
//! element's name, without building a tree, copying text, or expanding
//! entity references in attribute values beyond what the tokenizer
//! already does. Cost is one linear pass with no per-element
//! allocation.

use crate::error::{XmlError, XmlResult};
use crate::tokenizer::{Token, Tokenizer};

/// Verifies that `input` is a single balanced XML element and returns
/// the root element's name.
///
/// This is a *structural* check only: element nesting must balance and
/// exactly one root element must exist. It deliberately does not
/// validate schema-level shape (that is [`crate::Element::parse`] plus
/// the caller's own checks — the slow path this skim exists to avoid).
///
/// ```
/// use inca_xml::skim_balanced;
/// assert_eq!(skim_balanced("<incaReport><body/></incaReport>").unwrap(), "incaReport");
/// assert!(skim_balanced("<a><b></a></b>").is_err());
/// assert!(skim_balanced("<a/><b/>").is_err());
/// ```
pub fn skim_balanced(input: &str) -> XmlResult<&str> {
    let mut tok = Tokenizer::new(input);
    let mut stack: Vec<&str> = Vec::new();
    let mut root: Option<&str> = None;
    loop {
        let offset = tok.offset();
        let token = match tok.next_token()? {
            Some(t) => t,
            None => break,
        };
        match token {
            Token::StartTag { name, self_closing, .. } => {
                if root.is_some() && stack.is_empty() {
                    return Err(XmlError::TrailingContent { offset });
                }
                if root.is_none() {
                    root = Some(name);
                }
                if !self_closing {
                    stack.push(name);
                }
            }
            Token::EndTag { name } => match stack.pop() {
                Some(open) if open == name => {}
                Some(open) => {
                    return Err(XmlError::MismatchedTag {
                        offset,
                        expected: open.to_string(),
                        found: name.to_string(),
                    })
                }
                None => {
                    return Err(XmlError::Malformed {
                        offset,
                        message: format!("close tag </{name}> with no element open"),
                    })
                }
            },
            Token::Text(text) if stack.is_empty() && !text.trim().is_empty() => {
                if root.is_some() {
                    return Err(XmlError::TrailingContent { offset });
                }
                return Err(XmlError::Malformed {
                    offset,
                    message: "text before the root element".into(),
                });
            }
            Token::CData(_) if stack.is_empty() => {
                return Err(XmlError::Malformed {
                    offset,
                    message: "CDATA outside the root element".into(),
                });
            }
            _ => {}
        }
    }
    if let Some(name) = stack.pop() {
        return Err(XmlError::UnclosedElement { name: name.to_string() });
    }
    match root {
        Some(name) => Ok(name),
        None => Err(XmlError::Malformed { offset: 0, message: "no element found".into() }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_balanced_single_root() {
        assert_eq!(skim_balanced("<incaReport><x>1 &amp; 2</x></incaReport>").unwrap(), "incaReport");
        assert_eq!(skim_balanced("<r/>").unwrap(), "r");
        assert_eq!(skim_balanced("  <!-- c --> <r a=\"1\"><b/></r> ").unwrap(), "r");
    }

    #[test]
    fn rejects_structural_garbage() {
        assert!(skim_balanced("").is_err());
        assert!(skim_balanced("just text").is_err());
        assert!(skim_balanced("<a>").is_err());
        assert!(skim_balanced("</a>").is_err());
        assert!(skim_balanced("<a><b></a></b>").is_err());
        assert!(skim_balanced("<a/><b/>").is_err());
        assert!(skim_balanced("<a/>trailing").is_err());
        assert!(skim_balanced("<a>&bogus;</a>").is_err());
    }

    #[test]
    fn skim_does_not_validate_schema() {
        // Balanced but meaningless XML passes: schema checks stay with
        // Element::parse / Report::parse on the slow path.
        assert_eq!(skim_balanced("<notAReport><whatever/></notAReport>").unwrap(), "notAReport");
    }
}
