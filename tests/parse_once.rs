//! Parse once, read what changed: across a simulated day, the depot's
//! archive step parses each accepted report, and that parse is the
//! only one — the verification consumer and the closing status page
//! share it. Each verification pass reads from the depot exactly the
//! reports written since the pass before, one per branch.
//!
//! The parse count comes from `inca::report::parse_calls`, a
//! process-wide debug-build counter, so this file holds one test:
//! nothing else in the binary may parse a report while it counts. The
//! day runs twice and must count the same both times.

#![cfg(debug_assertions)]

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use inca::obs::trace::{Event, TraceSink};
use inca::prelude::*;
use inca::report::parse_calls;

/// What the run's spans say, in emission order: the branch of every
/// report the depot accepted, and each verification pass.
#[derive(Default)]
struct Ledger {
    events: Mutex<Vec<Entry>>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Entry {
    Insert(String),
    Pass { changed: usize, parsed: usize, reverified: usize },
}

impl TraceSink for Ledger {
    fn emit(&self, event: &Event) {
        let field = |key| event.field(key).expect("the span carries the field").to_string();
        let count = |key| field(key).parse().expect("a count");
        let entry = match event.name {
            "depot.insert" => Entry::Insert(field("branch")),
            "consumer.verify_pass" => Entry::Pass {
                changed: count("changed"),
                parsed: count("parsed"),
                reverified: count("resources_reverified"),
            },
            _ => return,
        };
        self.events.lock().unwrap().push(entry);
    }
}

/// `(reports accepted, reports parsed, the passes)` of one simulated
/// day, each pass as `(branches written since the pass before, what
/// the pass's span says)`.
fn one_day() -> (u64, u64, Vec<(usize, Entry)>) {
    let start = Timestamp::from_gmt(2004, 7, 7, 0, 0, 0);
    let deployment = teragrid_deployment(11, start, start + 86_400);
    let targets: Vec<BranchId> = deployment
        .resource_labels()
        .iter()
        .map(|(site, host)| {
            let vo = &deployment.agreement.vo;
            format!("resource={host},site={site},vo={vo}").parse().unwrap()
        })
        .collect();
    let obs = Obs::new();
    let ledger = Arc::new(Ledger::default());
    obs.tracer().add_sink(ledger.clone());

    let before = parse_calls();
    let outcome =
        SimRun::new(deployment, SimOptions { obs: Some(obs.clone()), ..SimOptions::default() })
            .run();
    let parsed = parse_calls() - before;
    obs.tracer().clear_sinks();

    let accepted = outcome.server.with_depot(|d| d.report_count());
    let mut written = BTreeSet::new();
    let mut passes = Vec::new();
    for entry in ledger.events.lock().unwrap().drain(..) {
        match entry {
            Entry::Insert(branch) => {
                let branch: BranchId = branch.parse().unwrap();
                if targets.iter().any(|t| branch.matches_suffix(t)) {
                    written.insert(branch);
                }
            }
            pass @ Entry::Pass { .. } => {
                passes.push((written.len(), pass));
                written.clear();
            }
        }
    }
    (accepted, parsed, passes)
}

#[test]
fn a_day_parses_each_report_once_and_each_pass_reads_what_changed() {
    let (accepted, parsed, passes) = one_day();
    assert!(accepted > 20_000, "a day of the deployment: {accepted} reports");
    assert_eq!(parsed, accepted, "one parse per accepted report");
    assert_eq!(passes.len(), 143, "a pass every 600 s after the first");
    for (i, (written, pass)) in passes.iter().enumerate() {
        let Entry::Pass { changed, parsed, reverified } = *pass else { unreachable!() };
        assert_eq!(changed, *written, "pass {i} reads the branches written since the last");
        assert_eq!(parsed, 0, "pass {i}: the archive step parsed them all");
        assert!(reverified <= 10, "pass {i}");
    }
    assert!(passes.iter().any(|(written, _)| *written > 0));

    // The x07 rule: the same run counts the same.
    assert_eq!(one_day(), (accepted, parsed, passes), "a second run counts differently");
}
