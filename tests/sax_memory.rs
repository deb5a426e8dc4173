//! The §3.2.2 memory argument, measured. The paper moved the depot's
//! cache off a DOM because its memory "grew too rapidly with the size
//! of the data"; the streaming scan that replaced it holds one token at
//! a time. A counting global allocator tracks live heap bytes, and the
//! file has a single test so nothing else allocates in this binary
//! while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use inca::report::Timestamp;
use inca::sim::workload::synthetic_report;
use inca::xml::{Element, Tokenizer};

/// Live heap bytes now, and the most there have been since
/// [`peak_during`] last reset it.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: both calls go to the system allocator unchanged; the counters
// only observe sizes. `realloc` and `alloc_zeroed` keep their default
// bodies, which call these two.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
            PEAK.fetch_max(live, Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The most heap `f` holds at once beyond what was live when it began.
fn peak_during(f: impl FnOnce()) -> usize {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    f();
    PEAK.load(Relaxed) - base
}

/// What a scan may hold at its peak: the attribute list of the start
/// tag in hand (a report has no attributes, so it reads zero). A token
/// that copied its text would hold kilobytes.
const SCAN_PEAK_BYTES: usize = 1024;

#[test]
fn the_token_scan_holds_a_constant_and_the_tree_grows_with_the_report() {
    let docs = [9_257, 45_527]
        .map(|size| synthetic_report("sax.memory", "host", Timestamp::from_secs(0), size).to_xml());
    assert_eq!(docs.each_ref().map(String::len), [9_257, 45_527]);

    let scan = docs.each_ref().map(|doc| {
        peak_during(|| {
            let mut tokens = Tokenizer::new(doc);
            while let Some(token) = tokens.next_token().expect("well-formed report") {
                black_box(token);
            }
        })
    });
    let tree = docs.each_ref().map(|doc| {
        peak_during(|| {
            black_box(Element::parse(doc).expect("well-formed report"));
        })
    });

    assert_eq!(scan[0], scan[1], "scan peak moved with the report: {scan:?} bytes");
    assert!(scan[1] <= SCAN_PEAK_BYTES, "scan peak {} bytes", scan[1]);
    assert!(tree[1] >= 3 * tree[0], "tree peak {tree:?} bytes did not grow 3x");
}
