//! The SOAP-analog envelope between centralized controller and depot.
//!
//! "It then creates a XML envelope, where the content of the envelope is
//! the report and the envelope address is the branch identifier. The
//! envelope is forwarded to the depot through a Web services interface"
//! (§3.2.1). Section 5.2.2 measures the cost of this interface:
//! unpacking the envelope grows with report size ("it takes almost 3
//! seconds to unpack the SOAP envelope and get the largest report ready
//! for addition to the cache"), and the paper proposes shipping reports
//! "as SOAP attachment rather than in the body of the SOAP envelope in
//! order to speed up the unpacking process".
//!
//! All modes are implemented so the ablation bench can quantify the
//! saving:
//!
//! * [`EnvelopeMode::Body`] — the report is escaped into the envelope
//!   body; unpacking must unescape it and re-parse/validate the result
//!   (cost ∝ report size, as measured in Figure 9).
//! * [`EnvelopeMode::Attachment`] — the envelope carries only the
//!   address and a length; the report rides behind the envelope as raw
//!   bytes and unpacking is a cheap slice.
//! * [`EnvelopeMode::Binary`] — the [`crate::binframe`] section format:
//!   the decoder borrows the report bytes straight out of the payload
//!   (zero copy) and defers XML parsing entirely; see [`EnvelopeView`].
//!
//! Negotiation is per payload: a binary frame announces itself with a
//! magic byte no XML document can start with, so a single receive path
//! ([`EnvelopeView::decode`]) handles mixed traffic.

use std::borrow::Cow;
#[cfg(debug_assertions)]
use std::sync::atomic::{AtomicU64, Ordering};

use inca_obs::TraceContext;
use inca_report::{BranchId, Report};
use inca_xml::{escape::escape_text, skim_balanced, Element};

use crate::binframe;
use crate::message::WireError;

/// Envelope bytes [`Envelope::decode`] has tokenized as XML in this
/// process.
#[cfg(debug_assertions)]
static TOKENIZED_BYTES: AtomicU64 = AtomicU64::new(0);

/// How many envelope bytes [`Envelope::decode`] has run through the
/// XML tokenizer in this process: the whole envelope in body mode (the
/// report's escaped text is tokenized and unescaped with it), the
/// header alone in attachment mode. The report's own validating parse,
/// which both modes do, is not counted. Debug builds only: Figure 9's
/// shape check (`tests/paper_check.rs`) reads it around one unpack of
/// each mode to prove the attachment saving by counting work.
#[cfg(debug_assertions)]
pub fn tokenized_bytes() -> u64 {
    TOKENIZED_BYTES.load(Ordering::Relaxed)
}

/// How the report is packed into the envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnvelopeMode {
    /// Report escaped into the envelope body (2004 behaviour).
    Body,
    /// Report attached as raw bytes after the envelope (the paper's
    /// proposed optimization).
    Attachment,
    /// Report framed as binary sections with zero-copy decode (the
    /// post-paper fast path; see [`crate::binframe`]).
    Binary,
}

/// An addressed report in transit to the depot.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// The branch identifier — "the envelope address".
    pub address: BranchId,
    /// The serialized report — "the content of the envelope".
    pub report_xml: String,
    /// Trace context of the accept that produced the envelope, carried
    /// as an optional `trace` attribute so the depot's spans join the
    /// report's trace.
    pub trace: Option<TraceContext>,
}

/// Separator between the XML header and the raw attachment bytes.
const ATTACHMENT_SEP: u8 = 0;

impl Envelope {
    /// Creates an envelope around an already-serialized report.
    pub fn new(address: BranchId, report_xml: impl Into<String>) -> Envelope {
        Envelope { address, report_xml: report_xml.into(), trace: None }
    }

    /// Attaches a trace context to carry to the depot.
    pub fn with_trace(mut self, ctx: TraceContext) -> Envelope {
        self.trace = Some(ctx);
        self
    }

    /// Packs the envelope for the wire in the given mode.
    pub fn encode(&self, mode: EnvelopeMode) -> Vec<u8> {
        let trace_attr = match self.trace {
            Some(ctx) => format!(" trace=\"{ctx}\""),
            None => String::new(),
        };
        match mode {
            EnvelopeMode::Body => format!(
                "<soapEnvelope mode=\"body\"{trace_attr}><address>{}</address><body>{}</body></soapEnvelope>",
                escape_text(&self.address.to_string()),
                escape_text(&self.report_xml),
            )
            .into_bytes(),
            EnvelopeMode::Attachment => {
                let header = format!(
                    "<soapEnvelope mode=\"attachment\" length=\"{}\"{trace_attr}><address>{}</address></soapEnvelope>",
                    self.report_xml.len(),
                    escape_text(&self.address.to_string()),
                );
                let mut out = Vec::with_capacity(header.len() + 1 + self.report_xml.len());
                out.extend_from_slice(header.as_bytes());
                out.push(ATTACHMENT_SEP);
                out.extend_from_slice(self.report_xml.as_bytes());
                out
            }
            EnvelopeMode::Binary => binframe::encode_binary(
                &self.address.to_string(),
                self.report_xml.as_bytes(),
                self.trace,
            ),
        }
    }

    /// Unpacks an envelope, validating the contained report.
    ///
    /// In body mode this is the expensive path the paper measured: the
    /// whole envelope is tokenized, the body unescaped, and the inner
    /// report re-parsed for validation. In attachment mode only the
    /// small header is parsed and the report is sliced out; the report
    /// is still validated once (the depot must not cache garbage), but
    /// no unescape pass is needed.
    pub fn decode(payload: &[u8]) -> Result<Envelope, WireError> {
        // Binary frames announce themselves with a magic byte that
        // cannot begin UTF-8 text; check before the NUL scan below
        // (binary section bodies may legitimately contain NULs).
        if binframe::is_binary_frame(payload) {
            let frame = binframe::decode_binary(payload)?;
            let address: BranchId =
                frame.address.parse().map_err(|e| WireError::BadBranch(format!("{e}")))?;
            let report_xml = std::str::from_utf8(frame.report)
                .map_err(|e| WireError::Malformed(format!("report not UTF-8: {e}")))?
                .to_string();
            Report::parse(&report_xml).map_err(|e| WireError::BadReport(e.to_string()))?;
            return Ok(Envelope { address, report_xml, trace: frame.trace });
        }

        // Attachment frames contain a NUL separator which never occurs
        // in XML text; use it to split header from raw content.
        if let Some(sep) = payload.iter().position(|&b| b == ATTACHMENT_SEP) {
            let header = std::str::from_utf8(&payload[..sep])
                .map_err(|e| WireError::Malformed(format!("header not UTF-8: {e}")))?;
            let root = Element::parse(header)?;
            #[cfg(debug_assertions)]
            TOKENIZED_BYTES.fetch_add(header.len() as u64, Ordering::Relaxed);
            Self::expect_envelope(&root, "attachment")?;
            let address = Self::address_of(&root)?;
            let declared: usize = root
                .attribute("length")
                .and_then(|l| l.parse().ok())
                .ok_or_else(|| WireError::Malformed("missing/invalid length".into()))?;
            let content = &payload[sep + 1..];
            if content.len() != declared {
                return Err(WireError::Malformed(format!(
                    "attachment length mismatch: declared {declared}, found {}",
                    content.len()
                )));
            }
            let report_xml = std::str::from_utf8(content)
                .map_err(|e| WireError::Malformed(format!("attachment not UTF-8: {e}")))?
                .to_string();
            Report::parse(&report_xml).map_err(|e| WireError::BadReport(e.to_string()))?;
            return Ok(Envelope { address, report_xml, trace: Self::trace_of(&root) });
        }

        let text = std::str::from_utf8(payload)
            .map_err(|e| WireError::Malformed(format!("not UTF-8: {e}")))?;
        let root = Element::parse(text)?;
        #[cfg(debug_assertions)]
        TOKENIZED_BYTES.fetch_add(text.len() as u64, Ordering::Relaxed);
        Self::expect_envelope(&root, "body")?;
        let address = Self::address_of(&root)?;
        let report_xml = root
            .child_text("body")
            .ok_or_else(|| WireError::Malformed("missing <body>".into()))?;
        Report::parse(&report_xml).map_err(|e| WireError::BadReport(e.to_string()))?;
        Ok(Envelope { address, report_xml, trace: Self::trace_of(&root) })
    }

    /// Trace context from the optional `trace` attribute. Diagnostic
    /// metadata only: a mangled value degrades to `None`, it never
    /// rejects the envelope.
    fn trace_of(root: &Element) -> Option<TraceContext> {
        root.attribute("trace").and_then(|t| t.parse().ok())
    }

    fn expect_envelope(root: &Element, mode: &str) -> Result<(), WireError> {
        if root.name != "soapEnvelope" {
            return Err(WireError::Malformed(format!(
                "expected <soapEnvelope>, found <{}>",
                root.name
            )));
        }
        match root.attribute("mode") {
            Some(m) if m == mode => Ok(()),
            Some(m) => Err(WireError::Malformed(format!(
                "envelope mode mismatch: frame looks like {mode:?} but declares {m:?}"
            ))),
            None => Err(WireError::Malformed("envelope missing mode attribute".into())),
        }
    }

    fn address_of(root: &Element) -> Result<BranchId, WireError> {
        let text = root
            .child_text("address")
            .ok_or_else(|| WireError::Malformed("missing <address>".into()))?;
        text.parse().map_err(|e| WireError::BadBranch(format!("{e}")))
    }
}

/// A decoded envelope that borrows its report bytes when it can.
///
/// This is the depot's receive-side view. For binary frames the report
/// is a borrowed slice of the incoming payload, checked only by a
/// structural skim ([`inca_xml::skim_balanced`]: balanced tags, root is
/// `<incaReport>`) — full parsing is deferred to archive/query time.
/// XML envelopes fall back to [`Envelope::decode`], which validates the
/// report completely and owns its string.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvelopeView<'a> {
    /// The branch identifier — "the envelope address".
    pub address: BranchId,
    /// The serialized report: borrowed from the payload on the binary
    /// path, owned on the XML path.
    pub report_xml: Cow<'a, str>,
    /// Trace context carried with the report, if any.
    pub trace: Option<TraceContext>,
    /// Whether the report was fully parsed during decode (XML path) or
    /// only structurally skimmed (binary path).
    pub validated: bool,
}

impl<'a> EnvelopeView<'a> {
    /// Decodes any supported frame, borrowing report bytes from binary
    /// frames and falling back to the XML envelope decoder otherwise.
    pub fn decode(payload: &'a [u8]) -> Result<EnvelopeView<'a>, WireError> {
        if binframe::is_binary_frame(payload) {
            let frame = binframe::decode_binary(payload)?;
            let address: BranchId =
                frame.address.parse().map_err(|e| WireError::BadBranch(format!("{e}")))?;
            let report = std::str::from_utf8(frame.report)
                .map_err(|e| WireError::Malformed(format!("report not UTF-8: {e}")))?;
            // The cache must never hold garbage: one cheap structural
            // pass, no tree, no unescape, no copy.
            let root =
                skim_balanced(report).map_err(|e| WireError::BadReport(e.to_string()))?;
            if root != "incaReport" {
                return Err(WireError::BadReport(format!(
                    "expected <incaReport> root, found <{root}>"
                )));
            }
            return Ok(EnvelopeView {
                address,
                report_xml: Cow::Borrowed(report),
                trace: frame.trace,
                validated: false,
            });
        }
        let env = Envelope::decode(payload)?;
        Ok(EnvelopeView {
            address: env.address,
            report_xml: Cow::Owned(env.report_xml),
            trace: env.trace,
            validated: true,
        })
    }

    /// Converts into an owned [`Envelope`].
    pub fn into_envelope(self) -> Envelope {
        Envelope {
            address: self.address,
            report_xml: self.report_xml.into_owned(),
            trace: self.trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_report::ReportBuilder;

    fn sample() -> Envelope {
        let report = ReportBuilder::new("version.srb", "1.0")
            .host("dslogin.sdsc.edu")
            .body_value("packageVersion", "3.2.1")
            .success()
            .unwrap();
        Envelope::new(
            "reporter=version.srb,resource=dslogin,site=sdsc,vo=teragrid".parse().unwrap(),
            report.to_xml(),
        )
    }

    #[test]
    fn body_mode_roundtrip() {
        let env = sample();
        let decoded = Envelope::decode(&env.encode(EnvelopeMode::Body)).unwrap();
        assert_eq!(decoded, env);
    }

    #[test]
    fn attachment_mode_roundtrip() {
        let env = sample();
        let decoded = Envelope::decode(&env.encode(EnvelopeMode::Attachment)).unwrap();
        assert_eq!(decoded, env);
    }

    #[test]
    fn binary_mode_roundtrip() {
        let env = sample();
        let decoded = Envelope::decode(&env.encode(EnvelopeMode::Binary)).unwrap();
        assert_eq!(decoded, env);
    }

    #[test]
    fn view_borrows_binary_and_owns_xml() {
        let env = sample();
        let binary = env.encode(EnvelopeMode::Binary);
        let view = EnvelopeView::decode(&binary).unwrap();
        assert!(matches!(view.report_xml, Cow::Borrowed(_)));
        assert!(!view.validated);
        assert_eq!(view.report_xml, env.report_xml);
        assert_eq!(view.address, env.address);

        let body = env.encode(EnvelopeMode::Body);
        let view = EnvelopeView::decode(&body).unwrap();
        assert!(matches!(view.report_xml, Cow::Owned(_)));
        assert!(view.validated);
        assert_eq!(view.clone().into_envelope(), env);
    }

    #[test]
    fn view_rejects_unbalanced_or_wrong_root_binary_reports() {
        let broken = Envelope::new("a=1".parse().unwrap(), "<incaReport><x></incaReport>");
        assert!(matches!(
            EnvelopeView::decode(&broken.encode(EnvelopeMode::Binary)),
            Err(WireError::BadReport(_))
        ));
        let wrong_root = Envelope::new("a=1".parse().unwrap(), "<notAReport/>");
        assert!(matches!(
            EnvelopeView::decode(&wrong_root.encode(EnvelopeMode::Binary)),
            Err(WireError::BadReport(_))
        ));
    }

    #[test]
    fn trace_context_roundtrips_in_both_modes() {
        let ctx = TraceContext { trace_id: 0xfeed, parent_span_id: 0x42 };
        let env = sample().with_trace(ctx);
        for mode in [EnvelopeMode::Body, EnvelopeMode::Attachment, EnvelopeMode::Binary] {
            let decoded = Envelope::decode(&env.encode(mode)).unwrap();
            assert_eq!(decoded.trace, Some(ctx));
            assert_eq!(decoded, env);
        }
    }

    #[test]
    fn body_mode_grows_with_escaping() {
        // Every '<' in the report doubles to '&lt;' etc., so the body
        // encoding is strictly larger than the attachment encoding.
        let env = sample();
        let body = env.encode(EnvelopeMode::Body).len();
        let attach = env.encode(EnvelopeMode::Attachment).len();
        assert!(body > attach, "body {body} should exceed attachment {attach}");
    }

    #[test]
    fn reports_with_special_chars_survive_both_modes() {
        let report = ReportBuilder::new("r", "1")
            .body_value("err", "a<b&c \"quoted\" 'single' &amp; literal")
            .success()
            .unwrap();
        let env = Envelope::new("a=1".parse().unwrap(), report.to_xml());
        for mode in [EnvelopeMode::Body, EnvelopeMode::Attachment, EnvelopeMode::Binary] {
            let decoded = Envelope::decode(&env.encode(mode)).unwrap();
            assert_eq!(decoded.report_xml, env.report_xml);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Envelope::decode(b"junk").is_err());
        assert!(Envelope::decode(b"<soapEnvelope mode=\"body\"/>").is_err());
        assert!(Envelope::decode(b"<other/>").is_err());
    }

    #[test]
    fn decode_rejects_length_mismatch() {
        let env = sample();
        let mut bytes = env.encode(EnvelopeMode::Attachment);
        bytes.pop(); // truncate one byte of the attachment
        assert!(matches!(Envelope::decode(&bytes), Err(WireError::Malformed(_))));
    }

    #[test]
    fn decode_rejects_invalid_inner_report() {
        let env = Envelope::new("a=1".parse().unwrap(), "<notAReport/>");
        for mode in [EnvelopeMode::Body, EnvelopeMode::Attachment, EnvelopeMode::Binary] {
            assert!(matches!(
                Envelope::decode(&env.encode(mode)),
                Err(WireError::BadReport(_))
            ));
        }
    }

    #[test]
    fn decode_rejects_bad_address() {
        let report_xml = sample().report_xml;
        let payload = format!(
            "<soapEnvelope mode=\"body\"><address>no-pairs-here</address><body>{}</body></soapEnvelope>",
            escape_text(&report_xml)
        );
        assert!(matches!(
            Envelope::decode(payload.as_bytes()),
            Err(WireError::BadBranch(_))
        ));
    }
}
