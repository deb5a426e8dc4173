//! TraceStore durability suite: concurrent writers racing segment
//! rotation, and reopen-after-crash on a torn final segment.

use std::path::PathBuf;
use std::sync::Arc;

use inca_obs::trace::{TraceContext, Tracer};
use inca_obs::{StoredEvent, TraceStore, TraceStoreConfig};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("inca-trace-store-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Eight threads hammer one store through many rotations. Every line
/// in every segment must parse (no torn writes), and both the live
/// index and a footer-rebuilt reopen must account for every event.
#[test]
fn concurrent_writers_survive_rotation() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 400;
    let dir = temp_dir("concurrent");
    let store = Arc::new(
        TraceStore::open(
            &dir,
            // Tiny segments: thousands of events force dozens of
            // rotations under contention.
            TraceStoreConfig { segment_max_bytes: 2048, max_segments: 10_000 },
        )
        .unwrap(),
    );
    let tracer = Tracer::new();
    tracer.add_sink(store.clone());

    let mut trace_ids = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for worker in 0..THREADS {
            let tracer = tracer.clone();
            handles.push(scope.spawn(move || {
                let mut ids = Vec::new();
                for i in 0..PER_THREAD {
                    let ctx = TraceContext::root();
                    tracer
                        .span("daemon.run")
                        .trace_ctx(ctx)
                        .field("fired_at", worker * PER_THREAD + i)
                        .field("reporter", "unit.pingHost")
                        .finish();
                    ids.push(ctx.trace_id);
                }
                ids
            }));
        }
        for handle in handles {
            trace_ids.extend(handle.join().unwrap());
        }
    });
    tracer.clear_sinks();
    store.seal().unwrap();

    assert!(store.segment_count() > 10, "2 KiB segments must rotate many times");
    assert_eq!(store.event_count(), THREADS * PER_THREAD);

    // Raw-file invariant: every non-footer line in every segment is a
    // complete, parseable event.
    let mut parsed = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        for line in std::fs::read_to_string(&path).unwrap().lines() {
            if line.starts_with("{\"footer\"") {
                continue;
            }
            assert!(
                StoredEvent::parse_line(line).is_some(),
                "torn or corrupt line in {}: {line:?}",
                path.display()
            );
            parsed += 1;
        }
    }
    assert_eq!(parsed, (THREADS * PER_THREAD) as usize);

    // Index invariant, after a cold footer-based reopen: every trace
    // resolves to exactly its one span.
    drop(store);
    let reopened = TraceStore::open(&dir, TraceStoreConfig::default()).unwrap();
    assert_eq!(reopened.event_count(), THREADS * PER_THREAD);
    for id in &trace_ids {
        let events = reopened.by_trace(*id);
        assert_eq!(events.len(), 1, "trace {id:016x} inconsistent after reopen");
        assert_eq!(events[0].name, "daemon.run");
    }
    assert_eq!(
        reopened.by_name_window("daemon.run", 0, THREADS * PER_THREAD).len(),
        (THREADS * PER_THREAD) as usize
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A crash mid-write leaves an unsealed final segment ending in a torn
/// partial line. Reopen must quarantine the tail, keep every earlier
/// event queryable, and accept new writes.
#[test]
fn reopen_after_crash_quarantines_torn_tail() {
    let dir = temp_dir("crash");
    let mut ids = Vec::new();
    {
        let store = Arc::new(
            TraceStore::open(
                &dir,
                TraceStoreConfig { segment_max_bytes: 1024, max_segments: 64 },
            )
            .unwrap(),
        );
        let tracer = Tracer::new();
        tracer.add_sink(store.clone());
        for i in 0..40u64 {
            let ctx = TraceContext::root();
            tracer.span("daemon.run").trace_ctx(ctx).field("fired_at", i).finish();
            ids.push(ctx.trace_id);
        }
        tracer.clear_sinks();
        // Simulate the crash: leak the store so Drop never writes the
        // final segment's footer.
        std::mem::forget(Arc::try_unwrap(store).expect("sole owner"));
    }

    // Tear the final segment: append half an event line.
    let mut segments: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "jsonl"))
        .collect();
    segments.sort();
    assert!(segments.len() > 1, "1 KiB segments must have rotated");
    let last = segments.last().unwrap();
    let torn_tail: &[u8] = b"{\"elapsed_s\":0.99,\"severity\":\"INFO\",\"name\":\"daemon.ru";
    use std::io::Write as _;
    std::fs::OpenOptions::new().append(true).open(last).unwrap().write_all(torn_tail).unwrap();
    let torn_len = std::fs::metadata(last).unwrap().len();

    let store = TraceStore::open(&dir, TraceStoreConfig::default()).unwrap();
    assert_eq!(
        store.quarantined_bytes(),
        torn_tail.len() as u64,
        "exactly the torn tail is quarantined"
    );
    let quarantine = last.with_extension("jsonl.quarantine");
    assert_eq!(std::fs::read(&quarantine).unwrap(), torn_tail);
    assert!(std::fs::metadata(last).unwrap().len() < torn_len, "segment truncated");
    assert_eq!(store.event_count(), 40, "every completed event survives the crash");
    for id in &ids {
        assert_eq!(store.by_trace(*id).len(), 1, "trace {id:016x} lost in crash recovery");
    }

    // The recovered store keeps working as a sink.
    let store = Arc::new(store);
    let tracer = Tracer::new();
    tracer.add_sink(store.clone());
    let ctx = TraceContext::root();
    tracer.span("daemon.run").trace_ctx(ctx).field("fired_at", 100).finish();
    assert_eq!(store.by_trace(ctx.trace_id).len(), 1);
    assert_eq!(store.event_count(), 41);
    std::fs::remove_dir_all(&dir).ok();
}

/// A sealed history plus a clean (untorn) unsealed tail segment — the
/// common "process exited without sealing" shape — reopens with no
/// quarantine and full queryability.
#[test]
fn reopen_unsealed_clean_tail_without_quarantine() {
    let dir = temp_dir("clean-tail");
    {
        let store = Arc::new(
            TraceStore::open(
                &dir,
                TraceStoreConfig { segment_max_bytes: 1 << 20, max_segments: 64 },
            )
            .unwrap(),
        );
        let tracer = Tracer::new();
        tracer.add_sink(store.clone());
        for i in 0..10u64 {
            tracer.span("depot.insert").field("fired_at", i).finish();
        }
        tracer.clear_sinks();
        std::mem::forget(Arc::try_unwrap(store).expect("sole owner"));
    }
    let store = TraceStore::open(&dir, TraceStoreConfig::default()).unwrap();
    assert_eq!(store.quarantined_bytes(), 0);
    assert_eq!(store.event_count(), 10);
    assert_eq!(store.by_name_window("depot.insert", 0, 10).len(), 10);
    assert_eq!(store.slowest(3).len(), 3);
    std::fs::remove_dir_all(&dir).ok();
}
