//! The compliance view against the full recompute it replaces: after
//! every write batch — new branches, replacements, a branch written
//! twice, a report that passes the binary path's skim but does not
//! parse, batches the depot rejects whole — each summary
//! `ComplianceView::refresh` leaves equals `verify_resource` over a
//! fresh `QueryInterface::reports` of the resource (no data when that
//! read fails), with and without an archive rule parsing every write.
//!
//! `PROPTEST_CASES` sets the number of cases (128 by default).

use proptest::prelude::*;

use inca_agreement::{
    verify_resource, Agreement, Category, ComplianceSummary, EnvVarRequirement, PackageRequirement,
};
use inca_consumer::ComplianceView;
use inca_report::{BranchId, Report, ReportBuilder, Timestamp};
use inca_rrd::ArchivePolicy;
use inca_server::{ArchiveRule, Depot, QueryInterface};
use inca_wire::envelope::{Envelope, EnvelopeMode};
use inca_xml::Element;

/// `(site, host)` labels the view verifies; the third never gets a
/// report.
const LABELS: [(&str, &str); 3] = [("sdsc", "m1"), ("ncsa", "m2"), ("psc", "m3")];

/// Reporter names: every requirement kind of [`agreement`], and one no
/// requirement reads.
const REPORTERS: [&str; 10] = [
    "version.a",
    "version.b",
    "unit.a.t1",
    "unit.a.t2",
    "unit.b.t1",
    "user.environment",
    "cluster.admin.softenv.db",
    "grid.services.gram.probe",
    "grid.services.ssh.probe",
    "other",
];

fn agreement() -> Agreement {
    let mut a = Agreement::new("tg", "2.0");
    a.packages.push(PackageRequirement {
        name: "a".into(),
        category: Category::Grid,
        version: ">=2.4.0".parse().unwrap(),
        require_unit_tests: true,
    });
    a.packages.push(PackageRequirement {
        name: "b".into(),
        category: Category::Development,
        version: ">=2.0".parse().unwrap(),
        require_unit_tests: false,
    });
    a.env_vars.push(EnvVarRequirement { name: "HOME".into(), expected: Some("/home".into()) });
    a.softenv_keys.push("+globus".into());
    a.services.extend(["gram".to_string(), "ssh".to_string()]);
    a
}

/// One envelope of a batch.
#[derive(Debug, Clone)]
enum Item {
    /// A report at `reporter=<branch>` under `LABELS[resource]` (at
    /// the resource level itself when `branch` is `None`), whose header
    /// names `header`. `variant` picks the body and the exit status.
    Report { resource: usize, branch: Option<&'static str>, header: &'static str, variant: usize },
    /// A report the binary path's skim accepts and `Report::parse`
    /// refuses (it has no header).
    Unparseable { resource: usize, branch: &'static str },
    /// Bytes no envelope decoder accepts.
    Garbage,
}

fn item_strategy() -> impl Strategy<Value = Item> {
    (
        0..12usize,
        0..LABELS.len() - 1,
        0..REPORTERS.len() + 1,
        0..REPORTERS.len(),
        0..4usize,
        0..4usize,
    )
        .prop_map(|(kind, resource, branch, header, same, variant)| {
            let branch = REPORTERS.get(branch).copied();
            match kind {
                0 => Item::Garbage,
                1 => Item::Unparseable { resource, branch: branch.unwrap_or("other") },
                _ => Item::Report {
                    resource,
                    branch,
                    // Mostly the branch's own reporter; otherwise one
                    // that may share a name with another branch.
                    header: match (same, branch) {
                        (0, _) | (_, None) => REPORTERS[header],
                        (_, Some(branch)) => branch,
                    },
                    variant,
                },
            }
        })
}

/// A batch; one in eight is rejected whole.
fn batch_strategy() -> impl Strategy<Value = Vec<Item>> {
    (0..8usize, proptest::collection::vec(item_strategy(), 1..7)).prop_map(|(kind, items)| {
        if kind == 0 {
            vec![Item::Garbage; items.len()]
        } else {
            items
        }
    })
}

fn branch(resource: usize, reporter: Option<&str>) -> BranchId {
    let (site, host) = LABELS[resource];
    let level = format!("resource={host},site={site},vo=tg");
    match reporter {
        Some(reporter) => format!("reporter={reporter},{level}").parse().unwrap(),
        None => level.parse().unwrap(),
    }
}

/// A body every requirement kind can read: a version, an environment
/// and a SoftEnv database, each varied by `variant`; variant 3 fails.
fn report(header: &str, variant: usize) -> Report {
    let mut env = Element::new("environment");
    if variant != 2 {
        env.push_child(
            Element::new("var")
                .child(Element::with_text("ID", "HOME"))
                .child(Element::with_text("value", ["/home", "/other"][variant % 2])),
        );
    }
    let mut softenv = Element::new("softenv");
    if variant.is_multiple_of(2) {
        softenv.push_child(
            Element::new("key")
                .child(Element::with_text("ID", "+globus"))
                .child(Element::with_text("expansion", "PATH+=/g")),
        );
    }
    let builder = ReportBuilder::new(header, "1.0")
        .gmt(Timestamp::from_secs(1_000))
        .body_value("packageVersion", ["2.4.3", "2.2.0", "junk"][variant % 3])
        .body_element(env)
        .body_element(softenv);
    if variant == 3 {
        builder.failure("broken").unwrap()
    } else {
        builder.success().unwrap()
    }
}

fn envelope(item: &Item) -> Vec<u8> {
    match item {
        Item::Report { resource, branch: reporter, header, variant } => {
            Envelope::new(branch(*resource, *reporter), report(header, *variant).to_xml())
                .encode(EnvelopeMode::Binary)
        }
        Item::Unparseable { resource, branch: reporter } => {
            Envelope::new(branch(*resource, Some(reporter)), "<incaReport><body/></incaReport>")
                .encode(EnvelopeMode::Binary)
        }
        Item::Garbage => b"garbage".to_vec(),
    }
}

/// What a full pass computes for every label.
fn full_recompute(query: &QueryInterface<'_>, agreement: &Agreement) -> Vec<(String, ComplianceSummary)> {
    LABELS
        .iter()
        .map(|(site, host)| {
            let suffix: BranchId = format!("resource={host},site={site},vo=tg").parse().unwrap();
            let reports = query.reports(Some(&suffix)).unwrap_or_default();
            let verification = verify_resource(agreement, &reports, host);
            (format!("{site}-{host}"), ComplianceSummary::from_verification(&verification))
        })
        .collect()
}

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|n| n.parse().ok()).unwrap_or(128)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn the_view_equals_a_full_recompute_after_every_batch(
        batches in proptest::collection::vec(batch_strategy(), 1..10),
        archive in any::<bool>(),
        read_first in any::<bool>(),
    ) {
        let agreement = agreement();
        let labels: Vec<(String, String)> =
            LABELS.iter().map(|(s, h)| (s.to_string(), h.to_string())).collect();
        let mut depot = Depot::new();
        if archive {
            depot.add_archive_rule(ArchiveRule {
                name: "v".into(),
                query: "vo=tg".parse().unwrap(),
                path: "packageVersion".parse().unwrap(),
                policy: ArchivePolicy::every("p", 86_400),
                period_secs: 600,
            });
        }
        let mut view = ComplianceView::new(&agreement, &labels);
        if read_first {
            view.refresh(&QueryInterface::new(&depot));
        }
        let now = Timestamp::from_secs(1_000);
        for (i, batch) in batches.iter().enumerate() {
            let envelopes: Vec<Vec<u8>> = batch.iter().map(envelope).collect();
            for (item, result) in batch.iter().zip(depot.receive_batch(&envelopes, now)) {
                prop_assert_eq!(result.is_ok(), !matches!(item, Item::Garbage));
            }
            let query = QueryInterface::new(&depot);
            let stats = view.refresh(&query);
            prop_assert!(stats.parsed <= stats.changed);
            let got: Vec<(String, ComplianceSummary)> =
                view.summaries().map(|(label, s)| (label.to_string(), s.clone())).collect();
            prop_assert_eq!(got, full_recompute(&query, &agreement), "after batch {}", i);
        }
    }
}
