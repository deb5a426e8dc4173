//! A pull tokenizer for the XML subset used by Inca.
//!
//! The tokenizer operates on a borrowed UTF-8 string and yields
//! [`Token`]s without building any tree, which is what makes the depot's
//! streaming cache updates possible: the 2004 paper explicitly replaced
//! a DOM-based cache with SAX parsing because DOM memory "grew too
//! rapidly with the size of the data" (§3.2.2). All tokens borrow from
//! the input where possible; text is unescaped lazily and only allocates
//! when an entity reference is present.

use std::borrow::Cow;

use crate::error::{XmlError, XmlResult};
use crate::escape::unescape;

/// A single `name="value"` attribute on a start tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute<'a> {
    /// Attribute name, borrowed from the document.
    pub name: &'a str,
    /// Attribute value with entity references expanded.
    pub value: Cow<'a, str>,
}

/// One lexical token of an XML document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token<'a> {
    /// The `<?xml …?>` declaration, passed through verbatim (content
    /// between `<?xml` and `?>`).
    Decl(&'a str),
    /// A processing instruction other than the XML declaration.
    Pi {
        /// PI target (the first word).
        target: &'a str,
        /// Remaining PI content, possibly empty.
        data: &'a str,
    },
    /// A comment, without the `<!--`/`-->` delimiters.
    Comment(&'a str),
    /// An element start tag (or empty-element tag when `self_closing`).
    StartTag {
        /// Element name.
        name: &'a str,
        /// Attributes in document order.
        attrs: Vec<Attribute<'a>>,
        /// Whether the tag was `<name …/>`.
        self_closing: bool,
    },
    /// An element end tag.
    EndTag {
        /// Element name.
        name: &'a str,
    },
    /// Character data with entity references expanded. Whitespace-only
    /// runs between tags are still reported; higher layers decide
    /// whether they are significant.
    Text(Cow<'a, str>),
    /// A CDATA section's raw content (no unescaping applies).
    CData(&'a str),
}

impl Token<'_> {
    /// Returns the element name for start/end tags, `None` otherwise.
    pub fn tag_name(&self) -> Option<&str> {
        match self {
            Token::StartTag { name, .. } | Token::EndTag { name } => Some(name),
            _ => None,
        }
    }
}

/// Pull tokenizer over a borrowed document.
///
/// ```
/// use inca_xml::{Token, Tokenizer};
/// let mut t = Tokenizer::new("<a x=\"1\">hi</a>");
/// assert!(matches!(t.next_token().unwrap(), Some(Token::StartTag { name: "a", .. })));
/// assert!(matches!(t.next_token().unwrap(), Some(Token::Text(_))));
/// assert!(matches!(t.next_token().unwrap(), Some(Token::EndTag { name: "a" })));
/// assert!(t.next_token().unwrap().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct Tokenizer<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Tokenizer<'a> {
    /// Creates a tokenizer positioned at the start of `input`.
    pub fn new(input: &'a str) -> Self {
        Tokenizer { input, pos: 0 }
    }

    /// Current byte offset into the input.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// The full input this tokenizer reads from.
    pub fn input(&self) -> &'a str {
        self.input
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn eof_err(&self, context: &'static str) -> XmlError {
        XmlError::UnexpectedEof { offset: self.pos, context }
    }

    fn malformed(&self, message: impl Into<String>) -> XmlError {
        XmlError::Malformed { offset: self.pos, message: message.into() }
    }

    /// Returns the next token, or `None` at end of input.
    pub fn next_token(&mut self) -> XmlResult<Option<Token<'a>>> {
        if self.pos >= self.input.len() {
            return Ok(None);
        }
        if self.rest().starts_with('<') {
            self.read_markup().map(Some)
        } else {
            self.read_text().map(Some)
        }
    }

    fn read_text(&mut self) -> XmlResult<Token<'a>> {
        let start = self.pos;
        let end = self.rest().find('<').map(|i| start + i).unwrap_or(self.input.len());
        let raw = &self.input[start..end];
        self.pos = end;
        let text = unescape(raw, start)?;
        Ok(Token::Text(text))
    }

    fn read_markup(&mut self) -> XmlResult<Token<'a>> {
        let rest = self.rest();
        if let Some(body) = rest.strip_prefix("<!--") {
            let end = body.find("-->").ok_or_else(|| self.eof_err("comment"))?;
            let comment = &body[..end];
            self.pos += 4 + end + 3;
            return Ok(Token::Comment(comment));
        }
        if let Some(body) = rest.strip_prefix("<![CDATA[") {
            let end = body.find("]]>").ok_or_else(|| self.eof_err("CDATA section"))?;
            let cdata = &body[..end];
            self.pos += 9 + end + 3;
            return Ok(Token::CData(cdata));
        }
        if let Some(body) = rest.strip_prefix("<?") {
            let end = body.find("?>").ok_or_else(|| self.eof_err("processing instruction"))?;
            let content = &body[..end];
            self.pos += 2 + end + 2;
            if content.starts_with("xml")
                && content[3..].chars().next().is_none_or(|c| c.is_ascii_whitespace())
            {
                return Ok(Token::Decl(content[3..].trim()));
            }
            let (target, data) = match content.find(|c: char| c.is_ascii_whitespace()) {
                Some(i) => (&content[..i], content[i..].trim_start()),
                None => (content, ""),
            };
            return Ok(Token::Pi { target, data });
        }
        if rest.starts_with("<!") {
            return Err(self.malformed("DTD declarations are not supported"));
        }
        if let Some(body) = rest.strip_prefix("</") {
            let end = body.find('>').ok_or_else(|| self.eof_err("end tag"))?;
            let name = body[..end].trim();
            if name.is_empty() || !is_name(name) {
                return Err(self.malformed(format!("invalid end tag name {name:?}")));
            }
            self.pos += 2 + end + 1;
            return Ok(Token::EndTag { name });
        }
        self.read_start_tag()
    }

    fn read_start_tag(&mut self) -> XmlResult<Token<'a>> {
        debug_assert!(self.rest().starts_with('<'));
        let tag_start = self.pos;
        self.pos += 1; // consume '<'
        let name = self.read_name()?;
        let mut attrs = Vec::new();
        loop {
            self.skip_whitespace();
            let rest = self.rest();
            if rest.is_empty() {
                return Err(XmlError::UnexpectedEof { offset: tag_start, context: "start tag" });
            }
            if let Some(_r) = rest.strip_prefix("/>") {
                self.pos += 2;
                return Ok(Token::StartTag { name, attrs, self_closing: true });
            }
            if rest.starts_with('>') {
                self.pos += 1;
                return Ok(Token::StartTag { name, attrs, self_closing: false });
            }
            attrs.push(self.read_attribute()?);
        }
    }

    fn read_attribute(&mut self) -> XmlResult<Attribute<'a>> {
        let name = self.read_name()?;
        self.skip_whitespace();
        if !self.rest().starts_with('=') {
            return Err(self.malformed(format!("attribute {name:?} is missing '='")));
        }
        self.pos += 1;
        self.skip_whitespace();
        let quote = self
            .rest()
            .chars()
            .next()
            .ok_or_else(|| self.eof_err("attribute value"))?;
        if quote != '"' && quote != '\'' {
            return Err(self.malformed("attribute value must be quoted"));
        }
        self.pos += 1;
        let value_start = self.pos;
        let end = self
            .rest()
            .find(quote)
            .ok_or_else(|| self.eof_err("attribute value"))?;
        let raw = &self.input[value_start..value_start + end];
        self.pos = value_start + end + 1;
        let value = unescape(raw, value_start)?;
        Ok(Attribute { name, value })
    }

    fn read_name(&mut self) -> XmlResult<&'a str> {
        let rest = self.rest();
        let len = rest
            .char_indices()
            .find(|&(_, c)| !is_name_char(c))
            .map(|(i, _)| i)
            .unwrap_or(rest.len());
        if len == 0 {
            return Err(self.malformed("expected a name"));
        }
        let name = &rest[..len];
        if !is_name(name) {
            return Err(self.malformed(format!("invalid name {name:?}")));
        }
        self.pos += len;
        Ok(name)
    }

    fn skip_whitespace(&mut self) {
        let rest = self.rest();
        let len = rest
            .char_indices()
            .find(|&(_, c)| !c.is_ascii_whitespace())
            .map(|(i, _)| i)
            .unwrap_or(rest.len());
        self.pos += len;
    }
}

/// Whether `c` may appear inside an XML name (simplified rule).
fn is_name_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':')
}

/// Whether `s` is a valid XML name (simplified: must not start with a
/// digit, `-` or `.`).
fn is_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(is_name_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_tokens(input: &str) -> Vec<Token<'_>> {
        let mut t = Tokenizer::new(input);
        let mut out = Vec::new();
        while let Some(tok) = t.next_token().unwrap() {
            out.push(tok);
        }
        out
    }

    #[test]
    fn empty_input_yields_no_tokens() {
        assert!(all_tokens("").is_empty());
    }

    #[test]
    fn simple_element() {
        let toks = all_tokens("<a>text</a>");
        assert_eq!(toks.len(), 3);
        assert_eq!(toks[0], Token::StartTag { name: "a", attrs: vec![], self_closing: false });
        assert_eq!(toks[1], Token::Text(Cow::Borrowed("text")));
        assert_eq!(toks[2], Token::EndTag { name: "a" });
    }

    #[test]
    fn self_closing_tag() {
        let toks = all_tokens("<br/>");
        assert_eq!(toks[0], Token::StartTag { name: "br", attrs: vec![], self_closing: true });
    }

    #[test]
    fn self_closing_with_space() {
        let toks = all_tokens("<br />");
        assert!(matches!(toks[0], Token::StartTag { self_closing: true, .. }));
    }

    #[test]
    fn attributes_double_and_single_quoted() {
        let toks = all_tokens(r#"<a x="1" y='two'/>"#);
        match &toks[0] {
            Token::StartTag { attrs, .. } => {
                assert_eq!(attrs[0], Attribute { name: "x", value: Cow::Borrowed("1") });
                assert_eq!(attrs[1], Attribute { name: "y", value: Cow::Borrowed("two") });
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn attribute_value_unescaped() {
        let toks = all_tokens(r#"<a msg="a&amp;b &lt;c&gt;"/>"#);
        match &toks[0] {
            Token::StartTag { attrs, .. } => assert_eq!(attrs[0].value, "a&b <c>"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn text_is_unescaped() {
        let toks = all_tokens("<a>1 &lt; 2 &amp;&amp; 3 &gt; 2</a>");
        assert_eq!(toks[1], Token::Text(Cow::Owned("1 < 2 && 3 > 2".to_string())));
    }

    #[test]
    fn xml_declaration() {
        let toks = all_tokens("<?xml version=\"1.0\" encoding=\"UTF-8\"?><r/>");
        assert_eq!(toks[0], Token::Decl("version=\"1.0\" encoding=\"UTF-8\""));
    }

    #[test]
    fn processing_instruction() {
        let toks = all_tokens("<?php echo 1; ?><r/>");
        assert_eq!(toks[0], Token::Pi { target: "php", data: "echo 1; " });
    }

    #[test]
    fn comment() {
        let toks = all_tokens("<!-- a comment --><r/>");
        assert_eq!(toks[0], Token::Comment(" a comment "));
    }

    #[test]
    fn cdata_not_unescaped() {
        let toks = all_tokens("<a><![CDATA[1 < 2 && raw & stuff]]></a>");
        assert_eq!(toks[1], Token::CData("1 < 2 && raw & stuff"));
    }

    #[test]
    fn nested_structure() {
        let toks = all_tokens("<metric><ID>bandwidth</ID></metric>");
        let names: Vec<_> = toks.iter().filter_map(Token::tag_name).collect();
        assert_eq!(names, ["metric", "ID", "ID", "metric"]);
    }

    #[test]
    fn unterminated_comment_errors() {
        let mut t = Tokenizer::new("<!-- never ends");
        assert!(matches!(t.next_token(), Err(XmlError::UnexpectedEof { .. })));
    }

    #[test]
    fn unterminated_tag_errors() {
        let mut t = Tokenizer::new("<a x=\"1\"");
        assert!(matches!(t.next_token(), Err(XmlError::UnexpectedEof { .. })));
    }

    #[test]
    fn unterminated_cdata_errors() {
        let mut t = Tokenizer::new("<![CDATA[ oops");
        assert!(matches!(t.next_token(), Err(XmlError::UnexpectedEof { .. })));
    }

    #[test]
    fn dtd_rejected() {
        let mut t = Tokenizer::new("<!DOCTYPE html>");
        assert!(matches!(t.next_token(), Err(XmlError::Malformed { .. })));
    }

    #[test]
    fn unquoted_attribute_rejected() {
        let mut t = Tokenizer::new("<a x=1/>");
        assert!(matches!(t.next_token(), Err(XmlError::Malformed { .. })));
    }

    #[test]
    fn missing_equals_rejected() {
        let mut t = Tokenizer::new("<a x \"1\"/>");
        assert!(matches!(t.next_token(), Err(XmlError::Malformed { .. })));
    }

    #[test]
    fn invalid_name_rejected() {
        let mut t = Tokenizer::new("<1bad/>");
        assert!(t.next_token().is_err());
    }

    #[test]
    fn names_allow_inca_characters() {
        // Branch-identifier-ish names with dots, dashes, colons.
        let toks = all_tokens("<tg:softenv-db.v2/>");
        assert_eq!(toks[0].tag_name(), Some("tg:softenv-db.v2"));
    }

    #[test]
    fn offset_tracks_progress() {
        let mut t = Tokenizer::new("<a>x</a>");
        assert_eq!(t.offset(), 0);
        t.next_token().unwrap();
        assert_eq!(t.offset(), 3);
        t.next_token().unwrap();
        assert_eq!(t.offset(), 4);
        t.next_token().unwrap();
        assert_eq!(t.offset(), 8);
    }

    #[test]
    fn whitespace_between_elements_is_text() {
        let toks = all_tokens("<a>\n  <b/>\n</a>");
        assert!(matches!(&toks[1], Token::Text(t) if t.trim().is_empty()));
    }
}
