//! A lightweight owned element tree.
//!
//! The depot's hot path deliberately avoids building trees (see
//! [`crate::sax`]), but plenty of Inca components work on *small*
//! documents where a DOM is the right tool: reporter specification
//! files, service agreements, individual reports being inspected by a
//! data consumer. [`Element`] is that DOM: an owned, ordered tree of
//! elements and text with no parent pointers and no interior mutability,
//! so it is cheap to clone subtrees and safe to send across threads.

use crate::error::{XmlError, XmlResult};
use crate::sax::{parse_document, SaxHandler};
use crate::tokenizer::Attribute;
use crate::writer::XmlWriter;

/// A child of an [`Element`]: either a nested element or a text run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A nested element.
    Element(Element),
    /// A run of character data (already unescaped).
    Text(String),
}

impl Node {
    /// Returns the element if this node is one.
    pub fn as_element(&self) -> Option<&Element> {
        match self {
            Node::Element(e) => Some(e),
            Node::Text(_) => None,
        }
    }

    /// Returns the text if this node is a text run.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Node::Text(t) => Some(t),
            Node::Element(_) => None,
        }
    }
}

/// An owned XML element: name, attributes in document order, children.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Element {
    /// Tag name.
    pub name: String,
    /// Attributes in document order.
    pub attributes: Vec<(String, String)>,
    /// Child nodes in document order.
    pub children: Vec<Node>,
}

impl Element {
    /// Creates an empty element named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Element { name: name.into(), attributes: Vec::new(), children: Vec::new() }
    }

    /// Creates `<name>text</name>`. An empty `text` yields an empty
    /// element — `<name></name>` and a zero-length text node are
    /// indistinguishable after a parse round-trip, so none is stored.
    pub fn with_text(name: impl Into<String>, text: impl Into<String>) -> Self {
        let text = text.into();
        let mut e = Element::new(name);
        if !text.is_empty() {
            e.children.push(Node::Text(text));
        }
        e
    }

    /// Builder-style: adds an attribute and returns `self`.
    pub fn attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.attributes.push((name.into(), value.into()));
        self
    }

    /// Builder-style: appends a child element and returns `self`.
    pub fn child(mut self, child: Element) -> Self {
        self.children.push(Node::Element(child));
        self
    }

    /// Appends a child element in place.
    pub fn push_child(&mut self, child: Element) {
        self.children.push(Node::Element(child));
    }

    /// Looks up an attribute value by name.
    pub fn attribute(&self, name: &str) -> Option<&str> {
        self.attributes.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// First child element with the given name.
    pub fn find_child(&self, name: &str) -> Option<&Element> {
        self.child_elements().find(|e| e.name == name)
    }

    /// Mutable variant of [`Element::find_child`].
    pub fn find_child_mut(&mut self, name: &str) -> Option<&mut Element> {
        self.children.iter_mut().find_map(|n| match n {
            Node::Element(e) if e.name == name => Some(e),
            _ => None,
        })
    }

    /// All child elements with the given name, in order.
    pub fn find_children<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.child_elements().filter(move |e| e.name == name)
    }

    /// All child elements, in order.
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(Node::as_element)
    }

    /// Concatenation of the element's *direct* text children, trimmed.
    ///
    /// This is the accessor used for Inca leaf values such as
    /// `<value>998.67</value>`.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for node in &self.children {
            if let Node::Text(t) = node {
                out.push_str(t);
            }
        }
        out.trim().to_string()
    }

    /// Text of the first child element with the given name, if any.
    pub fn child_text(&self, name: &str) -> Option<String> {
        self.find_child(name).map(Element::text)
    }

    /// The Inca *unique identifier* of this branch: the text of the
    /// element's `ID` child (the reporter specification requires every
    /// branch element to carry one so paths can address it).
    pub fn branch_id(&self) -> Option<String> {
        self.child_text("ID")
    }

    /// Depth-first search for the first descendant (including self)
    /// matching `pred`.
    pub fn find<'a>(&'a self, pred: &dyn Fn(&Element) -> bool) -> Option<&'a Element> {
        if pred(self) {
            return Some(self);
        }
        self.child_elements().find_map(|c| c.find(pred))
    }

    /// Total number of elements in this subtree (including self).
    pub fn element_count(&self) -> usize {
        1 + self.child_elements().map(Element::element_count).sum::<usize>()
    }

    /// Validates the Inca unique-branch rule on this subtree: every
    /// element that contains child elements must be unambiguously
    /// addressable among its siblings — either it is the only sibling
    /// with its tag name, or all same-named siblings carry distinct
    /// `ID` children.
    pub fn validate_unique_branches(&self) -> XmlResult<()> {
        let elements: Vec<&Element> = self.child_elements().collect();
        for e in &elements {
            let same_named: Vec<&&Element> =
                elements.iter().filter(|s| s.name == e.name).collect();
            if same_named.len() > 1 {
                let mut ids = Vec::new();
                for s in &same_named {
                    match s.branch_id() {
                        Some(id) => ids.push(id),
                        None => {
                            return Err(XmlError::Constraint {
                                message: format!(
                                    "element <{}> repeats under <{}> without an <ID> child",
                                    e.name, self.name
                                ),
                            })
                        }
                    }
                }
                ids.sort();
                for pair in ids.windows(2) {
                    if pair[0] == pair[1] {
                        return Err(XmlError::Constraint {
                            message: format!(
                                "duplicate branch ID {:?} among <{}> siblings under <{}>",
                                pair[0], e.name, self.name
                            ),
                        });
                    }
                }
            }
        }
        for e in elements {
            e.validate_unique_branches()?;
        }
        Ok(())
    }

    /// Parses a complete document into its root element.
    pub fn parse(input: &str) -> XmlResult<Element> {
        struct Builder {
            stack: Vec<Element>,
            root: Option<Element>,
        }
        impl SaxHandler for Builder {
            fn start_element(
                &mut self,
                name: &str,
                attrs: &[Attribute<'_>],
                _depth: usize,
            ) -> XmlResult<bool> {
                let mut e = Element::new(name);
                e.attributes = attrs
                    .iter()
                    .map(|a| (a.name.to_string(), a.value.to_string()))
                    .collect();
                self.stack.push(e);
                Ok(true)
            }
            fn end_element(&mut self, _name: &str, _depth: usize) -> XmlResult<bool> {
                let done = self.stack.pop().expect("balanced by SaxDriver");
                match self.stack.last_mut() {
                    Some(parent) => parent.children.push(Node::Element(done)),
                    None => self.root = Some(done),
                }
                Ok(true)
            }
            fn characters(&mut self, text: &str, _depth: usize) -> XmlResult<bool> {
                if let Some(open) = self.stack.last_mut() {
                    // Skip pure indentation so parse→write roundtrips stay stable.
                    if !text.trim().is_empty() {
                        open.children.push(Node::Text(text.to_string()));
                    }
                }
                Ok(true)
            }
        }
        let mut b = Builder { stack: Vec::new(), root: None };
        parse_document(input, &mut b)?;
        b.root.ok_or(XmlError::Malformed {
            offset: 0,
            message: "document contains no element".into(),
        })
    }

    /// Serializes this subtree as compact XML (no indentation).
    pub fn to_xml(&self) -> String {
        let mut w = XmlWriter::compact();
        w.write_element(self);
        w.finish()
    }

    /// Serializes this subtree with two-space indentation.
    pub fn to_pretty_xml(&self) -> String {
        let mut w = XmlWriter::pretty();
        w.write_element(self);
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Element {
        Element::new("metric")
            .child(Element::with_text("ID", "bandwidth"))
            .child(
                Element::new("statistic")
                    .child(Element::with_text("ID", "upperBound"))
                    .child(Element::with_text("value", "998.67").attr("units", "Mbps")),
            )
            .child(
                Element::new("statistic")
                    .child(Element::with_text("ID", "lowerBound"))
                    .child(Element::with_text("value", "984.99").attr("units", "Mbps")),
            )
    }

    #[test]
    fn builder_and_accessors() {
        let e = sample();
        assert_eq!(e.branch_id().as_deref(), Some("bandwidth"));
        assert_eq!(e.find_children("statistic").count(), 2);
        let upper = e
            .find_children("statistic")
            .find(|s| s.branch_id().as_deref() == Some("upperBound"))
            .unwrap();
        assert_eq!(upper.child_text("value").as_deref(), Some("998.67"));
        assert_eq!(upper.find_child("value").unwrap().attribute("units"), Some("Mbps"));
    }

    #[test]
    fn parse_roundtrip() {
        let xml = sample().to_xml();
        let parsed = Element::parse(&xml).unwrap();
        assert_eq!(parsed, sample());
    }

    #[test]
    fn pretty_roundtrip_ignores_indentation() {
        let pretty = sample().to_pretty_xml();
        assert!(pretty.contains('\n'));
        let parsed = Element::parse(&pretty).unwrap();
        assert_eq!(parsed, sample());
    }

    #[test]
    fn text_concatenates_and_trims() {
        let e = Element::parse("<a> hello <b/> world </a>").unwrap();
        assert_eq!(e.text(), "hello  world");
    }

    #[test]
    fn escaped_content_roundtrips() {
        let e = Element::with_text("err", "exit 1: <stdin> & friends \"quoted\"");
        let parsed = Element::parse(&e.to_xml()).unwrap();
        assert_eq!(parsed.text(), "exit 1: <stdin> & friends \"quoted\"");
    }

    #[test]
    fn element_count() {
        assert_eq!(sample().element_count(), 8);
        assert_eq!(Element::new("x").element_count(), 1);
    }

    #[test]
    fn find_descendant() {
        let e = sample();
        let v = e.find(&|el| el.name == "value" && el.text() == "984.99");
        assert!(v.is_some());
        assert!(e.find(&|el| el.name == "nope").is_none());
    }

    #[test]
    fn unique_branches_accepts_distinct_ids() {
        sample().validate_unique_branches().unwrap();
    }

    #[test]
    fn unique_branches_rejects_missing_id() {
        let e = Element::new("m")
            .child(Element::new("s").child(Element::with_text("v", "1")))
            .child(Element::new("s").child(Element::with_text("v", "2")));
        assert!(matches!(
            e.validate_unique_branches(),
            Err(XmlError::Constraint { .. })
        ));
    }

    #[test]
    fn unique_branches_rejects_duplicate_id() {
        let e = Element::new("m")
            .child(Element::new("s").child(Element::with_text("ID", "x")))
            .child(Element::new("s").child(Element::with_text("ID", "x")));
        assert!(matches!(
            e.validate_unique_branches(),
            Err(XmlError::Constraint { .. })
        ));
    }

    #[test]
    fn unique_branches_allows_single_unnamed() {
        let e = Element::new("m").child(Element::new("s").child(Element::with_text("v", "1")));
        e.validate_unique_branches().unwrap();
    }

    #[test]
    fn parse_rejects_empty_document() {
        assert!(Element::parse("").is_err());
        assert!(Element::parse("   ").is_err());
    }

    #[test]
    fn find_child_mut_allows_update() {
        let mut e = sample();
        e.find_child_mut("ID").unwrap().children = vec![Node::Text("latency".into())];
        assert_eq!(e.branch_id().as_deref(), Some("latency"));
    }

    #[test]
    fn node_accessors() {
        let n = Node::Text("t".into());
        assert_eq!(n.as_text(), Some("t"));
        assert!(n.as_element().is_none());
        let n = Node::Element(Element::new("e"));
        assert!(n.as_text().is_none());
        assert_eq!(n.as_element().unwrap().name, "e");
    }
}
