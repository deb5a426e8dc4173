//! SAX-style event dispatch over the pull tokenizer.
//!
//! The Inca depot keeps all current reports in one XML document and uses
//! SAX parsing for both updates and queries (§3.2.2). [`SaxDriver`]
//! walks a document, enforces well-formedness (balanced, properly nested
//! tags, a single document element), and hands events to a
//! [`SaxHandler`]. Handlers can terminate the walk early by returning
//! `Ok(false)` from any callback, which is how queries stop as soon as
//! the requested branch has been extracted.

use crate::error::{XmlError, XmlResult};
use crate::tokenizer::{Attribute, Token, Tokenizer};

/// Receiver of SAX events.
///
/// All callbacks default to "keep going, do nothing" so handlers only
/// implement what they need. Returning `Ok(false)` stops the driver
/// without error (used for early-exit queries).
pub trait SaxHandler {
    /// Called for each element start tag. `depth` is the depth of the
    /// element itself (the document element has depth 0).
    fn start_element(
        &mut self,
        name: &str,
        attrs: &[Attribute<'_>],
        depth: usize,
    ) -> XmlResult<bool> {
        let _ = (name, attrs, depth);
        Ok(true)
    }

    /// Called for each element end tag (also synthesized for
    /// self-closing tags immediately after `start_element`).
    fn end_element(&mut self, name: &str, depth: usize) -> XmlResult<bool> {
        let _ = (name, depth);
        Ok(true)
    }

    /// Called for character data (entity references already expanded)
    /// and CDATA content. `depth` is the depth of the enclosing element.
    fn characters(&mut self, text: &str, depth: usize) -> XmlResult<bool> {
        let _ = (text, depth);
        Ok(true)
    }

    /// Called for comments. Most handlers ignore these.
    fn comment(&mut self, text: &str) -> XmlResult<bool> {
        let _ = text;
        Ok(true)
    }

    /// Called for processing instructions and the XML declaration.
    fn processing_instruction(&mut self, target: &str, data: &str) -> XmlResult<bool> {
        let _ = (target, data);
        Ok(true)
    }
}

/// Drives a [`SaxHandler`] over a document, enforcing well-formedness.
#[derive(Debug, Default)]
pub struct SaxDriver {
    /// Stack of currently open element names.
    stack: Vec<String>,
    /// Whether the document element has been closed.
    document_done: bool,
}

impl SaxDriver {
    /// Creates a fresh driver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses `input` to completion (or early handler exit).
    ///
    /// Returns `Ok(true)` if the whole document was consumed, `Ok(false)`
    /// if the handler stopped the walk early.
    pub fn parse<H: SaxHandler>(&mut self, input: &str, handler: &mut H) -> XmlResult<bool> {
        let mut tok = Tokenizer::new(input);
        while let Some(token) = tok.next_token()? {
            let keep_going = self.dispatch(&mut tok, token, handler)?;
            if !keep_going {
                return Ok(false);
            }
        }
        if let Some(open) = self.stack.last() {
            return Err(XmlError::UnclosedElement { name: open.clone() });
        }
        Ok(true)
    }

    fn dispatch<H: SaxHandler>(
        &mut self,
        tok: &mut Tokenizer<'_>,
        token: Token<'_>,
        handler: &mut H,
    ) -> XmlResult<bool> {
        match token {
            Token::StartTag { name, attrs, self_closing } => {
                if self.document_done {
                    return Err(XmlError::TrailingContent { offset: tok.offset() });
                }
                let depth = self.stack.len();
                let keep = handler.start_element(name, &attrs, depth)?;
                if self_closing {
                    if self.stack.is_empty() {
                        self.document_done = true;
                    }
                    if !keep {
                        return Ok(false);
                    }
                    return handler.end_element(name, depth);
                }
                self.stack.push(name.to_string());
                Ok(keep)
            }
            Token::EndTag { name } => {
                let expected = self.stack.pop().ok_or_else(|| XmlError::MismatchedTag {
                    offset: tok.offset(),
                    expected: "(none open)".into(),
                    found: name.to_string(),
                })?;
                if expected != name {
                    return Err(XmlError::MismatchedTag {
                        offset: tok.offset(),
                        expected,
                        found: name.to_string(),
                    });
                }
                if self.stack.is_empty() {
                    self.document_done = true;
                }
                handler.end_element(name, self.stack.len())
            }
            Token::Text(text) => {
                if self.stack.is_empty() {
                    if text.trim().is_empty() {
                        return Ok(true);
                    }
                    return Err(XmlError::TrailingContent { offset: tok.offset() });
                }
                handler.characters(&text, self.stack.len() - 1)
            }
            Token::CData(text) => {
                if self.stack.is_empty() {
                    return Err(XmlError::TrailingContent { offset: tok.offset() });
                }
                handler.characters(text, self.stack.len() - 1)
            }
            Token::Comment(text) => handler.comment(text),
            Token::Decl(data) => handler.processing_instruction("xml", data),
            Token::Pi { target, data } => handler.processing_instruction(target, data),
        }
    }
}

/// Convenience: parse a document with a handler, requiring full
/// consumption and well-formedness. A handler that stops the walk
/// early has not seen the whole document, so that is an error here;
/// use [`SaxDriver::parse`] for early-exit queries.
pub fn parse_document<H: SaxHandler>(input: &str, handler: &mut H) -> XmlResult<()> {
    if SaxDriver::new().parse(input, handler)? {
        Ok(())
    } else {
        Err(XmlError::Constraint {
            message: "handler stopped before the end of the document".into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records the event stream as strings for assertions.
    #[derive(Default)]
    struct Recorder {
        events: Vec<String>,
        stop_after: Option<usize>,
    }

    impl Recorder {
        fn push(&mut self, e: String) -> bool {
            self.events.push(e);
            match self.stop_after {
                Some(n) => self.events.len() < n,
                None => true,
            }
        }
    }

    impl SaxHandler for Recorder {
        fn start_element(
            &mut self,
            name: &str,
            attrs: &[Attribute<'_>],
            depth: usize,
        ) -> XmlResult<bool> {
            let attrs: Vec<String> =
                attrs.iter().map(|a| format!("{}={}", a.name, a.value)).collect();
            Ok(self.push(format!("start:{name}@{depth}[{}]", attrs.join(","))))
        }
        fn end_element(&mut self, name: &str, depth: usize) -> XmlResult<bool> {
            Ok(self.push(format!("end:{name}@{depth}")))
        }
        fn characters(&mut self, text: &str, depth: usize) -> XmlResult<bool> {
            if text.trim().is_empty() {
                return Ok(true);
            }
            Ok(self.push(format!("text:{}@{depth}", text.trim())))
        }
        fn comment(&mut self, text: &str) -> XmlResult<bool> {
            Ok(self.push(format!("comment:{}", text.trim())))
        }
    }

    #[test]
    fn event_stream_in_document_order() {
        let mut rec = Recorder::default();
        parse_document("<metric><ID>bw</ID><value unit=\"Mbps\">9</value></metric>", &mut rec)
            .unwrap();
        assert_eq!(
            rec.events,
            vec![
                "start:metric@0[]",
                "start:ID@1[]",
                "text:bw@1",
                "end:ID@1",
                "start:value@1[unit=Mbps]",
                "text:9@1",
                "end:value@1",
                "end:metric@0",
            ]
        );
    }

    #[test]
    fn self_closing_synthesizes_end() {
        let mut rec = Recorder::default();
        parse_document("<a><b/></a>", &mut rec).unwrap();
        assert_eq!(rec.events, vec!["start:a@0[]", "start:b@1[]", "end:b@1", "end:a@0"]);
    }

    #[test]
    fn early_exit_returns_false() {
        let mut rec = Recorder { stop_after: Some(2), ..Default::default() };
        let done = SaxDriver::new().parse("<a><b/><c/><d/></a>", &mut rec).unwrap();
        assert!(!done);
        assert_eq!(rec.events.len(), 2);
    }

    #[test]
    fn parse_document_rejects_an_early_exit() {
        let mut rec = Recorder { stop_after: Some(2), ..Default::default() };
        let err = parse_document("<a><b/><c/><d/></a>", &mut rec).unwrap_err();
        assert!(matches!(err, XmlError::Constraint { .. }), "{err}");
        assert_eq!(rec.events.len(), 2);
    }

    #[test]
    fn mismatched_tags_rejected() {
        let mut rec = Recorder::default();
        let err = parse_document("<a><b></a></b>", &mut rec).unwrap_err();
        assert!(matches!(err, XmlError::MismatchedTag { .. }));
    }

    #[test]
    fn unclosed_element_rejected() {
        let mut rec = Recorder::default();
        let err = parse_document("<a><b>", &mut rec).unwrap_err();
        assert!(matches!(err, XmlError::UnclosedElement { .. }));
    }

    #[test]
    fn stray_end_tag_rejected() {
        let mut rec = Recorder::default();
        let err = parse_document("</a>", &mut rec).unwrap_err();
        assert!(matches!(err, XmlError::MismatchedTag { .. }));
    }

    #[test]
    fn trailing_element_rejected() {
        let mut rec = Recorder::default();
        let err = parse_document("<a/><b/>", &mut rec).unwrap_err();
        assert!(matches!(err, XmlError::TrailingContent { .. }));
    }

    #[test]
    fn trailing_whitespace_allowed() {
        let mut rec = Recorder::default();
        parse_document("<a/>\n  \n", &mut rec).unwrap();
    }

    #[test]
    fn declaration_and_comment_dispatched() {
        let mut rec = Recorder::default();
        parse_document("<?xml version=\"1.0\"?><!-- hi --><a/>", &mut rec).unwrap();
        assert!(rec.events.contains(&"comment:hi".to_string()));
    }

    #[test]
    fn cdata_reported_as_characters() {
        let mut rec = Recorder::default();
        parse_document("<a><![CDATA[x < y]]></a>", &mut rec).unwrap();
        assert!(rec.events.contains(&"text:x < y@0".to_string()));
    }

    #[test]
    fn deep_nesting_depths() {
        let mut rec = Recorder::default();
        parse_document("<a><b><c><d/></c></b></a>", &mut rec).unwrap();
        assert!(rec.events.contains(&"start:d@3[]".to_string()));
        assert!(rec.events.contains(&"end:a@0".to_string()));
    }
}
