//! Complete reports: header + body + footer.
//!
//! [`Report`] assembles the three sections of the reporter specification
//! into the `<incaReport>` document that travels from the reporter,
//! through the distributed and centralized controllers, into the depot.

use std::fmt;
#[cfg(debug_assertions)]
use std::sync::atomic::{AtomicU64, Ordering};

use inca_xml::{Element, XmlError};

use crate::body::Body;
use crate::footer::Footer;
use crate::header::Header;

/// Calls to [`Report::parse`] in this process.
#[cfg(debug_assertions)]
static PARSE_CALLS: AtomicU64 = AtomicU64::new(0);

/// How many times [`Report::parse`] has run in this process. Debug
/// builds only: the consumer-boundary regression test
/// (`tests/consumer_boundary.rs`) reads it around a set read to prove
/// the depot parses only the reports replaced since the last one.
#[cfg(debug_assertions)]
pub fn parse_calls() -> u64 {
    PARSE_CALLS.load(Ordering::Relaxed)
}

/// Error wrapper for report assembly/parsing problems.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportError(pub XmlError);

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid report: {}", self.0)
    }
}

impl std::error::Error for ReportError {}

impl From<XmlError> for ReportError {
    fn from(e: XmlError) -> Self {
        ReportError(e)
    }
}

/// A complete, spec-conformant Inca report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Uniform metadata section.
    pub header: Header,
    /// Open-schema data section.
    pub body: Body,
    /// Uniform status section.
    pub footer: Footer,
}

impl Report {
    /// Assembles and validates a report.
    pub fn new(header: Header, body: Body, footer: Footer) -> Result<Report, ReportError> {
        footer.validate()?;
        Ok(Report { header, body, footer })
    }

    /// Whether the run succeeded.
    pub fn is_success(&self) -> bool {
        self.footer.status.is_success()
    }

    /// Shorthand for the reporter name in the header.
    pub fn reporter(&self) -> &str {
        &self.header.reporter
    }

    /// Serializes the report as a compact XML document (the wire form).
    pub fn to_xml(&self) -> String {
        self.to_element().to_xml()
    }

    /// Serializes with indentation (status pages, debugging).
    pub fn to_pretty_xml(&self) -> String {
        self.to_element().to_pretty_xml()
    }

    /// The `<incaReport>` element tree.
    pub fn to_element(&self) -> Element {
        Element::new("incaReport")
            .child(self.header.to_element())
            .child(self.body.root().clone())
            .child(self.footer.to_element())
    }

    /// Parses and validates a serialized report.
    pub fn parse(xml: &str) -> Result<Report, ReportError> {
        #[cfg(debug_assertions)]
        PARSE_CALLS.fetch_add(1, Ordering::Relaxed);
        Report::from_root(Element::parse(xml)?)
    }

    /// Builds a report from a parsed `<incaReport>` element.
    pub fn from_element(root: &Element) -> Result<Report, ReportError> {
        Report::from_root(root.clone())
    }

    /// Builds a report from an owned `<incaReport>` tree, moving the
    /// `<body>` subtree — most of a large report — out of it instead
    /// of copying it.
    fn from_root(mut root: Element) -> Result<Report, ReportError> {
        if root.name != "incaReport" {
            return Err(ReportError(XmlError::Constraint {
                message: format!("expected <incaReport>, found <{}>", root.name),
            }));
        }
        for section in ["header", "footer"] {
            if root.find_child(section).is_none() {
                return Err(ReportError(XmlError::Constraint {
                    message: format!("report is missing <{section}>"),
                }));
            }
        }
        let body = match root.find_child_mut("body") {
            Some(body_el) => Body::new(std::mem::take(body_el))?,
            None => Body::empty(),
        };
        let section = |name| root.find_child(name).expect("presence checked above");
        Ok(Report {
            header: Header::from_element(section("header"))?,
            body,
            footer: Footer::from_element(section("footer"))?,
        })
    }

    /// Serialized size in bytes of the compact wire form. Report sizes
    /// drive both the paper's Figure 8 histogram and the depot
    /// response-time buckets of Table 4.
    pub fn size_bytes(&self) -> usize {
        self.to_xml().len()
    }

    /// The special *error report* the distributed controller sends when
    /// a reporter could not be executed at all (§3.1.3): a failed
    /// report with an empty body whose message describes the execution
    /// problem.
    pub fn execution_error(header: Header, message: impl Into<String>) -> Report {
        Report { header, body: Body::empty(), footer: Footer::failed(message) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timestamp;

    fn sample() -> Report {
        Report::new(
            Header::new(
                "grid.middleware.globus.version",
                "1.1",
                "tg-login1.caltech.teragrid.org",
                Timestamp::from_gmt(2004, 7, 9, 3, 31, 0),
            )
            .arg("package", "globus"),
            Body::metric("bandwidth", &[("lowerBound", "984.99", Some("Mbps"))]).unwrap(),
            Footer::completed(),
        )
        .unwrap()
    }

    #[test]
    fn roundtrip() {
        let r = sample();
        let parsed = Report::parse(&r.to_xml()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn pretty_roundtrip() {
        let r = sample();
        let parsed = Report::parse(&r.to_pretty_xml()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn sections_in_document_order() {
        let xml = sample().to_xml();
        let h = xml.find("<header>").unwrap();
        let b = xml.find("<body>").unwrap();
        let f = xml.find("<footer>").unwrap();
        assert!(h < b && b < f);
    }

    #[test]
    fn missing_body_parses_as_empty() {
        let r = Report {
            header: sample().header,
            body: Body::empty(),
            footer: Footer::failed("could not fork"),
        };
        let mut el = r.to_element();
        el.children.retain(|n| n.as_element().map(|c| c.name != "body").unwrap_or(true));
        let parsed = Report::from_element(&el).unwrap();
        assert!(parsed.body.root().children.is_empty());
    }

    #[test]
    fn missing_header_rejected() {
        let el = Element::new("incaReport")
            .child(Element::new("body"))
            .child(Footer::completed().to_element());
        assert!(Report::from_element(&el).is_err());
    }

    #[test]
    fn missing_footer_rejected() {
        let el = Element::new("incaReport").child(sample().header.to_element());
        assert!(Report::from_element(&el).is_err());
    }

    #[test]
    fn wrong_root_rejected() {
        assert!(Report::parse("<notAReport/>").is_err());
    }

    #[test]
    fn failed_report_without_message_rejected() {
        let xml = "<incaReport>".to_string()
            + &sample().header.to_element().to_xml()
            + "<body></body><footer><exitStatus>failed</exitStatus></footer></incaReport>";
        assert!(Report::parse(&xml).is_err());
    }

    #[test]
    fn execution_error_is_failed_with_empty_body() {
        let r = Report::execution_error(sample().header, "exceeded expected run time, killed");
        assert!(!r.is_success());
        assert!(r.body.root().children.is_empty());
        assert!(r.to_xml().contains("exceeded expected run time"));
        // And it still parses as a valid report.
        Report::parse(&r.to_xml()).unwrap();
    }

    #[test]
    fn size_bytes_matches_serialization() {
        let r = sample();
        assert_eq!(r.size_bytes(), r.to_xml().len());
    }

    #[test]
    fn invalid_body_rejected_at_parse() {
        let header = sample().header.to_element().to_xml();
        let xml = format!(
            "<incaReport>{header}<body>\
             <m><ID>x</ID></m><m><ID>x</ID></m>\
             </body><footer><exitStatus>completed</exitStatus></footer></incaReport>"
        );
        assert!(Report::parse(&xml).is_err());
    }
}
