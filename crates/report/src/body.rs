//! The open-schema report body.
//!
//! "The schema for the body is open; there is not a set XML schema.
//! Restrictions on tag formatting are enforced to enable generic data
//! handling … the most important restriction is that each branch of the
//! XML document have a unique identifier" (§3.1.2). [`Body`] wraps an
//! arbitrary element tree and enforces exactly that restriction, plus
//! helpers for the common "metric with statistics" shape shown in the
//! paper's Figure 2.

use inca_xml::{Element, IncaPath, XmlResult};

/// A validated open-schema report body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Body {
    root: Element,
}

impl Body {
    /// Wraps an element tree, enforcing the unique-branch rule.
    pub fn new(root: Element) -> XmlResult<Body> {
        root.validate_unique_branches()?;
        Ok(Body { root })
    }

    /// An empty `<body>` (legal: reporters that only report pass/fail
    /// carry all their information in the footer).
    pub fn empty() -> Body {
        Body { root: Element::new("body") }
    }

    /// The underlying element tree.
    pub fn root(&self) -> &Element {
        &self.root
    }

    /// Resolves an Inca path against the body.
    pub fn lookup(&self, path: &IncaPath) -> Option<&Element> {
        path.resolve(&self.root)
    }

    /// Resolves a path and returns the element text.
    pub fn lookup_text(&self, path: &IncaPath) -> XmlResult<String> {
        path.resolve_text(&self.root)
    }

    /// Builds the paper's Figure 2 shape: a `<metric>` branch holding
    /// named `<statistic>` branches each with a value and optional
    /// units.
    ///
    /// ```
    /// use inca_report::Body;
    /// let body = Body::metric(
    ///     "bandwidth",
    ///     &[("upperBound", "998.67", Some("Mbps")), ("lowerBound", "984.99", Some("Mbps"))],
    /// ).unwrap();
    /// let p: inca_xml::IncaPath = "value, statistic=lowerBound, metric=bandwidth".parse().unwrap();
    /// assert_eq!(body.lookup_text(&p).unwrap(), "984.99");
    /// ```
    pub fn metric(id: &str, statistics: &[(&str, &str, Option<&str>)]) -> XmlResult<Body> {
        let mut metric = Element::new("metric").child(Element::with_text("ID", id));
        for (stat_id, value, units) in statistics {
            let mut stat = Element::new("statistic")
                .child(Element::with_text("ID", *stat_id))
                .child(Element::with_text("value", *value));
            if let Some(u) = units {
                stat.push_child(Element::with_text("units", *u));
            }
            metric.push_child(stat);
        }
        Body::new(Element::new("body").child(metric))
    }

    /// A body holding a single named text value (package versions etc.).
    pub fn single_value(name: &str, value: &str) -> XmlResult<Body> {
        Body::new(Element::new("body").child(Element::with_text(name, value)))
    }

    /// Approximate serialized size in bytes (used by workload shaping).
    pub fn serialized_len(&self) -> usize {
        self.root.to_xml().len()
    }
}

impl Default for Body {
    fn default() -> Self {
        Body::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_xml::XmlError;

    #[test]
    fn figure2_shape() {
        let body = Body::metric(
            "bandwidth",
            &[
                ("upperBound", "998.67", Some("Mbps")),
                ("lowerBound", "984.99", Some("Mbps")),
            ],
        )
        .unwrap();
        let xml = body.root().to_xml();
        assert!(xml.contains("<ID>bandwidth</ID>"));
        assert!(xml.contains("<units>Mbps</units>"));
        let p: inca_xml::IncaPath =
            "value, statistic=upperBound, metric=bandwidth".parse().unwrap();
        assert_eq!(body.lookup_text(&p).unwrap(), "998.67");
    }

    #[test]
    fn duplicate_branch_rejected() {
        let root = Element::new("body")
            .child(Element::new("metric").child(Element::with_text("ID", "x")))
            .child(Element::new("metric").child(Element::with_text("ID", "x")));
        assert!(matches!(Body::new(root), Err(XmlError::Constraint { .. })));
    }

    #[test]
    fn repeated_unidentified_branch_rejected() {
        let root = Element::new("body")
            .child(Element::new("metric").child(Element::with_text("v", "1")))
            .child(Element::new("metric").child(Element::with_text("v", "2")));
        assert!(Body::new(root).is_err());
    }

    #[test]
    fn empty_body_is_valid() {
        let b = Body::empty();
        assert_eq!(b.root().name, "body");
        assert!(b.root().children.is_empty());
    }

    #[test]
    fn single_value_lookup() {
        let b = Body::single_value("packageVersion", "2.4.3").unwrap();
        let p: inca_xml::IncaPath = "packageVersion".parse().unwrap();
        assert_eq!(b.lookup_text(&p).unwrap(), "2.4.3");
    }

    #[test]
    fn lookup_missing_path() {
        let b = Body::single_value("a", "1").unwrap();
        let p: inca_xml::IncaPath = "zzz".parse().unwrap();
        assert!(b.lookup(&p).is_none());
        assert!(b.lookup_text(&p).is_err());
    }

    #[test]
    fn serialized_len_tracks_content() {
        let small = Body::single_value("a", "1").unwrap();
        let big = Body::single_value("a", &"x".repeat(1000)).unwrap();
        assert!(big.serialized_len() > small.serialized_len() + 900);
    }
}
