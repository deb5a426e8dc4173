//! Seeded inputs: branches, reports and pre-encoded frames.
//!
//! The program under test only ever sees what is generated here. Every
//! report a TCP workload sends is encoded once, in set-up, as a
//! complete length-prefixed `ClientMessage` frame; per send only two
//! fixed-width fields are patched in place — the delivery `seq` (so
//! the server's `DedupIndex` sees a fresh stamp every time) and the
//! report's `gmt` (so a query can prove it returns the report just
//! sent, not its predecessor).

use std::io::Write;

use inca_report::{BranchId, Report, ReportBuilder, Timestamp};
use inca_rrd::ArchivePolicy;
use inca_server::ArchiveRule;
use inca_sim::workload::{synthetic_report, SizeDistribution};
use inca_wire::message::ClientMessage;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Width of the zero-padded `seq="…"` field.
pub const SEQ_WIDTH: usize = 12;
const SEQ_SENTINEL: u64 = 987_654_321_098;
/// Width of an ISO-8601 GMT stamp (`2004-07-07T14:03:00Z`).
const GMT_WIDTH: usize = 20;

fn gmt_sentinel() -> Timestamp {
    Timestamp::from_gmt(1999, 9, 9, 9, 9, 9)
}

/// First `gmt` a workload stamps; each later send of a branch adds one
/// second, so successive reports of one branch always differ.
pub fn gmt_base() -> Timestamp {
    Timestamp::from_gmt(2004, 7, 7, 0, 0, 0)
}

/// Byte offset of the single occurrence of `needle`.
fn find_once(haystack: &[u8], needle: &[u8], what: &str) -> usize {
    let mut hits = haystack
        .windows(needle.len())
        .enumerate()
        .filter(|(_, w)| *w == needle);
    let (at, _) = hits
        .next()
        .unwrap_or_else(|| panic!("{what} sentinel missing from frame"));
    assert!(
        hits.next().is_none(),
        "{what} sentinel is ambiguous in frame"
    );
    at
}

/// One branch's report, encoded once and re-stamped per send.
#[derive(Debug, Clone)]
pub struct Stamped {
    pub branch: BranchId,
    /// Index into [`Inputs::hosts`]: the daemon that submits it.
    pub host: usize,
    /// Whether an uploaded archive rule matches this branch.
    pub archived: bool,
    /// Length prefix + `ClientMessage` payload.
    frame: Vec<u8>,
    seq_at: usize,
    gmt_at: usize,
    /// The report as the depot caches it, `gmt` still the sentinel.
    xml: String,
    xml_gmt_at: usize,
}

impl Stamped {
    /// Encodes `report` for `branch` as submitted by `hostname`.
    pub fn build(
        hostname: &str,
        host: usize,
        branch: BranchId,
        mut report: Report,
        archived: bool,
    ) -> Stamped {
        report.header.gmt = gmt_sentinel();
        let xml = report.to_xml();
        let gmt_text = gmt_sentinel().to_string();
        assert_eq!(gmt_text.len(), GMT_WIDTH, "GMT stamps are fixed-width");
        let xml_gmt_at = find_once(xml.as_bytes(), gmt_text.as_bytes(), "gmt");
        let message = ClientMessage {
            resource: hostname.to_string(),
            branch: branch.clone(),
            report_xml: xml.clone(),
            is_error_report: false,
            trace: None,
            origin: Some((hostname.to_string(), SEQ_SENTINEL)),
            via: None,
        };
        let payload = message.encode();
        let mut frame = Vec::with_capacity(payload.len() + 4);
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(&payload);
        let seq_text = format!("seq=\"{SEQ_SENTINEL}\"");
        let seq_at = find_once(&frame, seq_text.as_bytes(), "seq") + "seq=\"".len();
        let gmt_at = find_once(&frame, gmt_text.as_bytes(), "gmt");
        Stamped {
            branch,
            host,
            archived,
            frame,
            seq_at,
            gmt_at,
            xml,
            xml_gmt_at,
        }
    }

    /// Patches the delivery seq and report gmt into the frame.
    pub fn stamp(&mut self, seq: u64, gmt: Timestamp) {
        assert!(
            seq < 10u64.pow(SEQ_WIDTH as u32),
            "seq outgrew its fixed-width field"
        );
        write!(
            &mut self.frame[self.seq_at..self.seq_at + SEQ_WIDTH],
            "{seq:0w$}",
            w = SEQ_WIDTH
        )
        .expect("seq field holds SEQ_WIDTH digits");
        write!(
            &mut self.frame[self.gmt_at..self.gmt_at + GMT_WIDTH],
            "{gmt}"
        )
        .expect("gmt field holds one ISO stamp");
    }

    /// The whole frame as it goes on the socket.
    pub fn frame(&self) -> &[u8] {
        &self.frame
    }

    /// The `ClientMessage` payload (the frame minus its length prefix).
    pub fn payload(&self) -> &[u8] {
        &self.frame[4..]
    }

    /// What the depot must hold for this branch after a send stamped
    /// `gmt`.
    pub fn expected_xml(&self, gmt: Timestamp) -> String {
        let mut xml = self.xml.clone().into_bytes();
        write!(
            &mut xml[self.xml_gmt_at..self.xml_gmt_at + GMT_WIDTH],
            "{gmt}"
        )
        .expect("gmt field holds one ISO stamp");
        String::from_utf8(xml).expect("patched ASCII stays UTF-8")
    }

    #[cfg(test)]
    fn report_bytes(&self) -> usize {
        self.xml.len()
    }
}

/// How report sizes are chosen.
#[derive(Debug, Clone, Copy)]
pub enum Sizes {
    /// Every report exactly this many bytes.
    Fixed(usize),
    /// Table 4's distribution: the same multiset of sizes for every
    /// seed (drawn once from a fixed stream), dealt out so that every
    /// site holds the same share of small and large reports — two seeds
    /// send the same bytes and read subtrees of the same sizes. The
    /// seed decides which of a site's branches gets which size.
    Teragrid,
}

/// Shape of a synthetic VO.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub sites: usize,
    pub hosts_per_site: usize,
    pub reporters_per_host: usize,
    pub sizes: Sizes,
    /// Leading sites whose every branch matches an uploaded rule.
    pub archived_sites: usize,
}

impl Shape {
    pub fn branches(&self) -> usize {
        self.sites * self.hosts_per_site * self.reporters_per_host
    }
}

/// Everything a TCP workload sends and reads back.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Submitting daemons (hostnames); each keeps its own seq counter.
    pub hosts: Vec<String>,
    pub branches: Vec<Stamped>,
    /// Send order: a seeded shuffle of `0..branches.len()`, cycled.
    pub order: Vec<u32>,
    /// Archive rules uploaded before the run.
    pub rules: Vec<ArchiveRule>,
    /// One subtree query per site.
    pub site_queries: Vec<BranchId>,
}

fn tag(rng: &mut StdRng) -> String {
    (0..4)
        .map(|_| (b'a' + rng.gen_range(0..26u8)) as char)
        .collect()
}

/// `0..n` in a seeded random order.
pub fn shuffled(n: usize, rng: &mut StdRng) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    order
}

impl Inputs {
    /// A synthetic VO of `shape`, named and sized from `seed`.
    pub fn synthetic(seed: u64, shape: Shape) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed);
        let vo = format!("bench{}", tag(&mut rng));
        let per_site = shape.hosts_per_site * shape.reporters_per_host;
        let sorted_draws: Vec<usize> = match shape.sizes {
            Sizes::Fixed(n) => vec![n; shape.branches()],
            Sizes::Teragrid => {
                let table4 = SizeDistribution::teragrid();
                let mut fixed = StdRng::seed_from_u64(0x7ab1e4);
                let mut draws: Vec<usize> = (0..shape.branches())
                    .map(|_| table4.sample(&mut fixed))
                    .collect();
                draws.sort_unstable();
                draws
            }
        };
        let mut hosts = Vec::new();
        let mut branches = Vec::with_capacity(shape.branches());
        let mut rules = Vec::new();
        let mut site_queries = Vec::new();
        for s in 0..shape.sites {
            // Every `sites`-th sorted draw, starting at this site's
            // index, in a seeded order.
            let mut sizes: Vec<usize> = shuffled(per_site, &mut rng)
                .iter()
                .map(|&k| sorted_draws[k as usize * shape.sites + s])
                .collect();
            let site = format!("s{s:02}{}", tag(&mut rng));
            let archived = s < shape.archived_sites;
            if archived {
                rules.push(ArchiveRule {
                    name: format!("load-{site}"),
                    query: format!("site={site},vo={vo}")
                        .parse()
                        .expect("generated ids are branch-safe"),
                    path: "value".parse().expect("static path"),
                    // The reactor stamps archive time in wall-clock
                    // seconds and a branch is re-sent several times a
                    // second, so one second is the measurement period.
                    policy: ArchivePolicy::every("per-second-hour", 3_600),
                    period_secs: 1,
                });
            }
            site_queries.push(
                format!("site={site},vo={vo}")
                    .parse()
                    .expect("generated ids are branch-safe"),
            );
            for h in 0..shape.hosts_per_site {
                let hostname = format!("n{h}-{}.{site}.bench.org", tag(&mut rng));
                let host = hosts.len();
                hosts.push(hostname.clone());
                for r in 0..shape.reporters_per_host {
                    let reporter = format!("bench.{}.r{r:02}", tag(&mut rng));
                    let bytes = sizes.pop().expect("one size per branch of the site");
                    let branch: BranchId =
                        format!("reporter={reporter},resource={hostname},site={site},vo={vo}")
                            .parse()
                            .expect("generated ids are branch-safe");
                    let report = if archived {
                        numeric_report(&reporter, &hostname, bytes, rng.gen_range(1..1_000u32))
                    } else {
                        synthetic_report(&reporter, &hostname, gmt_base(), bytes)
                    };
                    branches.push(Stamped::build(&hostname, host, branch, report, archived));
                }
            }
        }
        let order = shuffled(branches.len(), &mut rng);
        Inputs {
            hosts,
            branches,
            order,
            rules,
            site_queries,
        }
    }
}

/// Like `synthetic_report`, plus the numeric `<value>` an archive rule
/// reads; padded to about `target_bytes`.
fn numeric_report(reporter: &str, host: &str, target_bytes: usize, value: u32) -> Report {
    let build = |filler: String| {
        ReportBuilder::new(reporter, "1.0")
            .host(host)
            .gmt(gmt_base())
            .body_value("value", value.to_string())
            .body_value("data", filler)
            .success()
            .expect("generated report is valid")
    };
    let overhead = build(String::new()).size_bytes();
    let filler = (0..target_bytes.saturating_sub(overhead))
        .map(|i| (b'a' + (i % 26) as u8) as char)
        .collect();
    build(filler)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Inputs {
        Inputs::synthetic(
            7,
            Shape {
                sites: 2,
                hosts_per_site: 2,
                reporters_per_host: 3,
                sizes: Sizes::Teragrid,
                archived_sites: 1,
            },
        )
    }

    #[test]
    fn stamp_round_trips_through_client_message_decode() {
        let mut inputs = tiny();
        for (i, b) in inputs.branches.iter_mut().enumerate() {
            let seq = 41 + i as u64 * 1_000_003;
            let gmt = gmt_base() + 17 * i as u64;
            b.stamp(seq, gmt);
            let declared = u32::from_be_bytes(b.frame()[..4].try_into().unwrap()) as usize;
            assert_eq!(
                declared,
                b.payload().len(),
                "length prefix survives the patch"
            );
            let decoded = ClientMessage::decode(b.payload()).expect("patched frame decodes");
            assert_eq!(decoded.origin, Some((inputs.hosts[b.host].clone(), seq)));
            assert_eq!(decoded.branch, b.branch);
            assert_eq!(decoded.report_xml, b.expected_xml(gmt));
            assert_eq!(Report::parse(&decoded.report_xml).unwrap().header.gmt, gmt);
        }
    }

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_names() {
        let (a, b) = (tiny(), tiny());
        assert_eq!(a.order, b.order);
        for (x, y) in a.branches.iter().zip(&b.branches) {
            assert_eq!(x.frame(), y.frame());
        }
        let c = Inputs::synthetic(
            8,
            Shape {
                sites: 2,
                hosts_per_site: 2,
                reporters_per_host: 3,
                sizes: Sizes::Teragrid,
                archived_sites: 1,
            },
        );
        assert_ne!(a.branches[0].branch, c.branches[0].branch);
    }

    #[test]
    fn archived_sites_carry_a_value_their_rule_resolves() {
        let inputs = tiny();
        assert_eq!(inputs.rules.len(), 1);
        for b in &inputs.branches {
            assert_eq!(
                b.archived,
                b.host < 2,
                "the first site's two hosts are archived"
            );
            assert_eq!(b.archived, b.branch.matches_suffix(&inputs.rules[0].query));
            if b.archived {
                let report = Report::parse(&b.expected_xml(gmt_base())).unwrap();
                let el = inputs.rules[0]
                    .path
                    .resolve(report.body.root())
                    .expect("rule path resolves");
                assert!(el.text().parse::<f64>().is_ok());
            }
        }
    }

    #[test]
    fn fixed_sizes_are_exact() {
        let inputs = Inputs::synthetic(
            3,
            Shape {
                sites: 1,
                hosts_per_site: 1,
                reporters_per_host: 2,
                sizes: Sizes::Fixed(851),
                archived_sites: 0,
            },
        );
        assert!(inputs.branches.iter().all(|b| b.report_bytes() == 851));
    }
}
