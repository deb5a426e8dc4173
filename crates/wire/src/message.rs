//! Client messages: what a distributed controller sends the server.
//!
//! Each frame on the controller→server connection carries one XML
//! message: the submitting resource, the branch identifier that
//! addresses the report in the depot, and the report itself. Error
//! reports (§3.1.3: "If there is an error executing a reporter, a
//! special report is sent to the central controller") use the same
//! shape with a flag, so the server can count them separately.

use std::fmt;
#[cfg(debug_assertions)]
use std::sync::atomic::{AtomicU64, Ordering};

use inca_obs::TraceContext;
use inca_report::{BranchId, Report};
use inca_xml::{escape::escape_text, Element, XmlError};

/// Errors from encoding/decoding wire messages.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The XML could not be parsed or was structurally wrong.
    Malformed(String),
    /// The embedded branch identifier was invalid.
    BadBranch(String),
    /// The embedded report violates the reporter specification.
    BadReport(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Malformed(m) => write!(f, "malformed wire message: {m}"),
            WireError::BadBranch(m) => write!(f, "bad branch identifier: {m}"),
            WireError::BadReport(m) => write!(f, "bad report payload: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<XmlError> for WireError {
    fn from(e: XmlError) -> Self {
        WireError::Malformed(e.to_string())
    }
}

/// Calls to [`ClientMessage::decode`] in this process.
#[cfg(debug_assertions)]
static DECODE_CALLS: AtomicU64 = AtomicU64::new(0);

/// How many times [`ClientMessage::decode`] has run in this process.
/// Debug builds only: the decode-once regression tests
/// (`tests/decode_once.rs`) read it around a known number of frames to
/// prove each ingest route decodes a frame exactly once.
#[cfg(debug_assertions)]
pub fn decode_calls() -> u64 {
    DECODE_CALLS.load(Ordering::Relaxed)
}

/// A message from a distributed controller to the centralized
/// controller.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientMessage {
    /// Hostname of the submitting resource (checked against the
    /// server's allowlist).
    pub resource: String,
    /// Where the report should be stored.
    pub branch: BranchId,
    /// The serialized report.
    pub report_xml: String,
    /// Whether this is an execution-error report rather than reporter
    /// output.
    pub is_error_report: bool,
    /// Trace context of the controller run that produced the report,
    /// carried as an optional `trace` attribute so the server can
    /// stitch its spans into the same trace. Absent from messages sent
    /// by peers without tracing.
    pub trace: Option<TraceContext>,
    /// Reliable-delivery identity `(daemon_id, seq)`, carried as
    /// `daemon`/`seq` attributes. A daemon's spool stamps every report
    /// with a monotonically increasing sequence number so the server
    /// can ingest retried submissions idempotently (a lost reply makes
    /// the daemon re-send; without the stamp the same report would be
    /// counted twice). Absent from peers without a spool, which get
    /// the old at-most-once semantics.
    pub origin: Option<(String, u64)>,
    /// Forwarding hop, carried as an optional `via` attribute: the id
    /// of the depot relay that spooled this message toward its parent.
    /// A federated parent authenticates the *hop* (the relay must be
    /// on its allowlist) while `resource` keeps naming the leaf host
    /// that produced the report. Absent on direct submissions.
    pub via: Option<String>,
}

impl ClientMessage {
    /// Builds a normal report submission.
    pub fn report(resource: impl Into<String>, branch: BranchId, report: &Report) -> Self {
        ClientMessage {
            resource: resource.into(),
            branch,
            report_xml: report.to_xml(),
            is_error_report: false,
            trace: None,
            origin: None,
            via: None,
        }
    }

    /// Builds an execution-error submission.
    pub fn error_report(resource: impl Into<String>, branch: BranchId, report: &Report) -> Self {
        ClientMessage {
            resource: resource.into(),
            branch,
            report_xml: report.to_xml(),
            is_error_report: true,
            trace: None,
            origin: None,
            via: None,
        }
    }

    /// Attaches a trace context to carry across the wire.
    pub fn with_trace(mut self, ctx: TraceContext) -> Self {
        self.trace = Some(ctx);
        self
    }

    /// Stamps the reliable-delivery identity `(daemon_id, seq)`.
    pub fn with_origin(mut self, daemon: impl Into<String>, seq: u64) -> Self {
        self.origin = Some((daemon.into(), seq));
        self
    }

    /// Stamps the forwarding hop: which depot relay carried this
    /// message toward its parent.
    pub fn with_via(mut self, depot: impl Into<String>) -> Self {
        self.via = Some(depot.into());
        self
    }

    /// The host the server authenticates this message by: the
    /// forwarding hop when a depot relay stamped one (a federated
    /// parent lists its relays, not every leaf behind them), else the
    /// submitting resource.
    pub fn allowlist_key(&self) -> &str {
        self.via.as_deref().unwrap_or(&self.resource)
    }

    /// Serializes to the frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let kind = if self.is_error_report { "error" } else { "report" };
        let trace_attr = match self.trace {
            Some(ctx) => format!(" trace=\"{ctx}\""),
            None => String::new(),
        };
        let origin_attr = match &self.origin {
            Some((daemon, seq)) => {
                format!(" daemon=\"{}\" seq=\"{seq}\"", escape_text(daemon))
            }
            None => String::new(),
        };
        let via_attr = match &self.via {
            Some(depot) => format!(" via=\"{}\"", escape_text(depot)),
            None => String::new(),
        };
        let mut xml = String::with_capacity(self.report_xml.len() + 256);
        xml.push_str(&format!(
            "<incaMessage kind=\"{kind}\"{trace_attr}{origin_attr}{via_attr}><resource>{}</resource><branch>{}</branch><payload>{}</payload></incaMessage>",
            escape_text(&self.resource),
            escape_text(&self.branch.to_string()),
            escape_text(&self.report_xml),
        ));
        xml.into_bytes()
    }

    /// Parses a frame payload, validating branch and report.
    pub fn decode(payload: &[u8]) -> Result<ClientMessage, WireError> {
        #[cfg(debug_assertions)]
        DECODE_CALLS.fetch_add(1, Ordering::Relaxed);
        let text = std::str::from_utf8(payload)
            .map_err(|e| WireError::Malformed(format!("not UTF-8: {e}")))?;
        let root = Element::parse(text)?;
        if root.name != "incaMessage" {
            return Err(WireError::Malformed(format!(
                "expected <incaMessage>, found <{}>",
                root.name
            )));
        }
        let kind = root.attribute("kind").unwrap_or("report");
        let is_error_report = match kind {
            "report" => false,
            "error" => true,
            other => return Err(WireError::Malformed(format!("unknown kind {other:?}"))),
        };
        let resource = root
            .child_text("resource")
            .ok_or_else(|| WireError::Malformed("missing <resource>".into()))?;
        let branch_text = root
            .child_text("branch")
            .ok_or_else(|| WireError::Malformed("missing <branch>".into()))?;
        let branch: BranchId =
            branch_text.parse().map_err(|e| WireError::BadBranch(format!("{e}")))?;
        let report_xml = root
            .child_text("payload")
            .ok_or_else(|| WireError::Malformed("missing <payload>".into()))?;
        // Validate the payload is a spec-conformant report before the
        // server accepts it.
        Report::parse(&report_xml).map_err(|e| WireError::BadReport(e.to_string()))?;
        // Trace context is diagnostic metadata: a missing or mangled
        // attribute must never cost us the report, so it degrades to
        // None instead of erroring.
        let trace = root.attribute("trace").and_then(|t| t.parse().ok());
        // Same tolerance for the delivery identity: a peer that sends
        // no (or a mangled) stamp falls back to undeduplicated
        // at-most-once ingest rather than losing the report.
        let origin = match (root.attribute("daemon"), root.attribute("seq")) {
            (Some(daemon), Some(seq)) => {
                seq.parse().ok().map(|seq| (daemon.to_string(), seq))
            }
            _ => None,
        };
        // The hop stamp is authentication metadata for federated
        // parents; absent on direct submissions, so it decodes
        // tolerantly like the other optional attributes.
        let via = root.attribute("via").map(str::to_string);
        Ok(ClientMessage { resource, branch, report_xml, is_error_report, trace, origin, via })
    }
}

/// The server's one-frame reply to each submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerResponse {
    /// Report accepted and handed to the depot.
    Ack,
    /// Report rejected with a reason (host not allowed, malformed…).
    Rejected(String),
}

impl ServerResponse {
    /// Serializes to the reply frame payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            ServerResponse::Ack => b"<ack/>".to_vec(),
            ServerResponse::Rejected(reason) => {
                format!("<rejected>{}</rejected>", escape_text(reason)).into_bytes()
            }
        }
    }

    /// Parses a reply frame payload.
    pub fn decode(payload: &[u8]) -> Result<ServerResponse, WireError> {
        let text = std::str::from_utf8(payload)
            .map_err(|e| WireError::Malformed(format!("not UTF-8: {e}")))?;
        let root = Element::parse(text)?;
        match root.name.as_str() {
            "ack" => Ok(ServerResponse::Ack),
            "rejected" => Ok(ServerResponse::Rejected(root.text())),
            other => Err(WireError::Malformed(format!("unexpected reply <{other}>"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_report::ReportBuilder;

    fn sample_report() -> Report {
        ReportBuilder::new("version.globus", "1.0")
            .host("tg-login1.sdsc.teragrid.org")
            .body_value("packageVersion", "2.4.3")
            .success()
            .unwrap()
    }

    fn sample_branch() -> BranchId {
        "reporter=version.globus,resource=tg-login1,site=sdsc,vo=teragrid".parse().unwrap()
    }

    #[test]
    fn report_roundtrip() {
        let msg = ClientMessage::report("tg-login1.sdsc.teragrid.org", sample_branch(), &sample_report());
        let decoded = ClientMessage::decode(&msg.encode()).unwrap();
        assert_eq!(decoded, msg);
        assert!(!decoded.is_error_report);
    }

    #[test]
    fn error_report_roundtrip() {
        let report = Report::execution_error(
            sample_report().header,
            "reporter exceeded expected run time; killed",
        );
        let msg = ClientMessage::error_report("host", sample_branch(), &report);
        let decoded = ClientMessage::decode(&msg.encode()).unwrap();
        assert!(decoded.is_error_report);
        assert!(decoded.report_xml.contains("exceeded expected run time"));
    }

    #[test]
    fn trace_context_roundtrips_and_degrades_gracefully() {
        let ctx = TraceContext { trace_id: 0xdead_beef, parent_span_id: 0x77 };
        let msg = ClientMessage::report("h", sample_branch(), &sample_report()).with_trace(ctx);
        let decoded = ClientMessage::decode(&msg.encode()).unwrap();
        assert_eq!(decoded.trace, Some(ctx));
        assert_eq!(decoded, msg);

        // A mangled trace attribute drops to None without losing the
        // report.
        let mangled = String::from_utf8(msg.encode())
            .unwrap()
            .replace(&ctx.to_string(), "garbage");
        let decoded = ClientMessage::decode(mangled.as_bytes()).unwrap();
        assert_eq!(decoded.trace, None);
        assert_eq!(decoded.branch, msg.branch);
    }

    #[test]
    fn origin_roundtrips_and_degrades_gracefully() {
        let msg = ClientMessage::report("h", sample_branch(), &sample_report())
            .with_origin("tg-login1.sdsc.teragrid.org", 41);
        let decoded = ClientMessage::decode(&msg.encode()).unwrap();
        assert_eq!(decoded.origin, Some(("tg-login1.sdsc.teragrid.org".into(), 41)));
        assert_eq!(decoded, msg);

        // A mangled seq drops the stamp without losing the report.
        let mangled =
            String::from_utf8(msg.encode()).unwrap().replace("seq=\"41\"", "seq=\"x\"");
        let decoded = ClientMessage::decode(mangled.as_bytes()).unwrap();
        assert_eq!(decoded.origin, None);
        assert_eq!(decoded.branch, msg.branch);
    }

    #[test]
    fn via_roundtrips_and_degrades_gracefully() {
        let msg = ClientMessage::report("h", sample_branch(), &sample_report())
            .with_origin("depot-west", 7)
            .with_via("depot-west");
        let decoded = ClientMessage::decode(&msg.encode()).unwrap();
        assert_eq!(decoded.via.as_deref(), Some("depot-west"));
        assert_eq!(decoded, msg);
        assert_eq!(decoded.allowlist_key(), "depot-west", "the hop authenticates, not the leaf");

        // A message without the hop stamp (a direct submission, or a
        // peer predating federation) decodes with via = None.
        let stripped =
            String::from_utf8(msg.encode()).unwrap().replace(" via=\"depot-west\"", "");
        let decoded = ClientMessage::decode(stripped.as_bytes()).unwrap();
        assert_eq!(decoded.via, None);
        assert_eq!(decoded.allowlist_key(), "h");
        assert_eq!(decoded.branch, msg.branch);
    }

    #[test]
    fn payload_with_markup_survives_escaping() {
        let report = ReportBuilder::new("r", "1")
            .body_value("output", "stderr said: <error> & more")
            .success()
            .unwrap();
        let msg = ClientMessage::report("h", sample_branch(), &report);
        let decoded = ClientMessage::decode(&msg.encode()).unwrap();
        let inner = Report::parse(&decoded.report_xml).unwrap();
        let p: inca_xml::IncaPath = "output".parse().unwrap();
        assert_eq!(inner.body.lookup_text(&p).unwrap(), "stderr said: <error> & more");
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(ClientMessage::decode(b"not xml").is_err());
        assert!(ClientMessage::decode(b"<wrongRoot/>").is_err());
        assert!(ClientMessage::decode(&[0xFF, 0xFE]).is_err());
    }

    #[test]
    fn decode_rejects_bad_branch() {
        let payload = format!(
            "<incaMessage kind=\"report\"><resource>h</resource><branch>notbranch</branch><payload>{}</payload></incaMessage>",
            escape_text(&sample_report().to_xml())
        );
        assert!(matches!(
            ClientMessage::decode(payload.as_bytes()),
            Err(WireError::BadBranch(_))
        ));
    }

    #[test]
    fn decode_rejects_invalid_report_payload() {
        let payload = format!(
            "<incaMessage kind=\"report\"><resource>h</resource><branch>{}</branch><payload>&lt;notAReport/&gt;</payload></incaMessage>",
            sample_branch()
        );
        assert!(matches!(
            ClientMessage::decode(payload.as_bytes()),
            Err(WireError::BadReport(_))
        ));
    }

    #[test]
    fn decode_rejects_unknown_kind() {
        let payload = "<incaMessage kind=\"telepathy\"><resource>h</resource><branch>a=1</branch><payload>x</payload></incaMessage>";
        assert!(ClientMessage::decode(payload.as_bytes()).is_err());
    }

    #[test]
    fn response_roundtrips() {
        for resp in [ServerResponse::Ack, ServerResponse::Rejected("host not allowed".into())] {
            assert_eq!(ServerResponse::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn response_decode_rejects_garbage() {
        assert!(ServerResponse::decode(b"<what/>").is_err());
        assert!(ServerResponse::decode(b"nope").is_err());
    }
}
