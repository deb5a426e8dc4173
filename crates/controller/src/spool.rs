//! The daemon's durable report spool — the client half of
//! exactly-once delivery.
//!
//! §3.1.3 has the distributed controller communicate each report to
//! the Inca server over TCP; the original implementation simply lost
//! the report when that connection failed, and re-sent it blindly
//! when only the *reply* was lost (ingesting it twice). The spool
//! fixes both halves on the client side:
//!
//! * every fire's report is enqueued before any delivery attempt, so
//!   a transmit failure leaves it queued instead of dropped;
//! * every enqueued message is stamped with `(daemon_id, seq)` — the
//!   identity the server's sliding-window dedup uses to ingest
//!   retried submissions idempotently;
//! * delivery is head-of-line: a report is never allowed to overtake
//!   an earlier unacknowledged one, so per-branch "latest report
//!   wins" semantics survive retries;
//! * retry timing follows capped exponential backoff with
//!   deterministic jitter ([`BackoffPolicy`]), so a dead server is
//!   not hammered and simulated runs stay reproducible;
//! * [`Spool::dump`]/[`Spool::restore`] round-trip the whole queue
//!   (including the sequence counter) through bytes, the same
//!   dump/restore shape as the depot's `ArchiveStore` — a daemon
//!   restart mid-spool resumes where it left off instead of reusing
//!   sequence numbers or forgetting unsent reports.
//!
//! The spool is bounded: at capacity the *oldest* entry is dropped
//! and counted, on the theory that during a long partition the
//! freshest state of each branch is worth more than a complete
//! backlog of superseded reports.

use std::collections::VecDeque;
use std::io::Cursor;

use inca_wire::binframe::{put_section, SectionReader};
use inca_wire::frame::{read_frame, write_frame, FrameError, MAX_FRAME_LEN};
use inca_wire::message::ClientMessage;
use inca_xml::{escape::escape_text, Element};

/// Entry-frame section tag: the entry's sequence number, u64 BE.
const SECTION_SEQ: u8 = 0x10;
/// Entry-frame section tag: the delivery attempt count, u32 BE.
const SECTION_ATTEMPTS: u8 = 0x11;
/// Entry-frame section tag: the encoded [`ClientMessage`] bytes.
const SECTION_MESSAGE: u8 = 0x12;

/// Capped exponential backoff with deterministic jitter.
///
/// The delay before attempt `n + 1` is `min(base · 2ⁿ, cap)` plus a
/// jitter drawn by hashing `(daemon, seq, attempt)` — deterministic so
/// simulated runs reproduce byte-identically from a seed, spread so a
/// fleet of daemons recovering from the same partition does not
/// stampede the server on the same second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// First-retry delay in seconds.
    pub base_secs: u64,
    /// Upper bound on the exponential delay in seconds.
    pub cap_secs: u64,
    /// Maximum jitter added on top, in seconds (0 disables).
    pub jitter_secs: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        // 5 s, 10 s, 20 s … capped at 10 min: a transient blip retries
        // within the same reporting period, a dead server is probed a
        // few times per period at most.
        BackoffPolicy { base_secs: 5, cap_secs: 600, jitter_secs: 10 }
    }
}

impl BackoffPolicy {
    /// Delay in seconds before the next attempt, given that `attempts`
    /// have already failed.
    pub fn delay_secs(&self, daemon: &str, seq: u64, attempts: u32) -> u64 {
        let exp = self
            .base_secs
            .saturating_mul(1u64.checked_shl(attempts.saturating_sub(1).min(32)).unwrap_or(u64::MAX))
            .min(self.cap_secs);
        exp + self.jitter(daemon, seq, attempts)
    }

    fn jitter(&self, daemon: &str, seq: u64, attempts: u32) -> u64 {
        if self.jitter_secs == 0 {
            return 0;
        }
        // SplitMix64-style finalizer over the attempt identity.
        let mut h = seq ^ (attempts as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for b in daemon.bytes() {
            h = h.wrapping_mul(0x100_0000_01B3) ^ b as u64;
        }
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (h ^ (h >> 31)) % (self.jitter_secs + 1)
    }
}

/// Spool sizing and retry policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpoolConfig {
    /// Maximum queued reports; the oldest is dropped (and counted)
    /// beyond this.
    pub capacity: usize,
    /// Retry backoff policy.
    pub backoff: BackoffPolicy,
}

impl Default for SpoolConfig {
    fn default() -> Self {
        // A TeraGrid-shape daemon fires a few dozen reporters per
        // hour; 4096 entries rides out a multi-day partition.
        SpoolConfig { capacity: 4096, backoff: BackoffPolicy::default() }
    }
}

/// One queued report awaiting acknowledgement.
#[derive(Debug, Clone, PartialEq)]
pub struct SpoolEntry {
    /// The per-daemon sequence number stamped on the message.
    pub seq: u64,
    /// The stamped message, ready for the wire.
    pub message: ClientMessage,
    /// Failed delivery attempts so far.
    pub attempts: u32,
    /// Earliest second (simulated or wall epoch) the next attempt may
    /// run; 0 = immediately.
    pub not_before: u64,
}

/// The bounded durable delivery queue of one daemon.
#[derive(Debug, Clone, PartialEq)]
pub struct Spool {
    daemon_id: String,
    /// Next sequence number to stamp (starts at 1; never reused, even
    /// across [`Spool::dump`]/[`Spool::restore`]).
    next_seq: u64,
    entries: VecDeque<SpoolEntry>,
    config: SpoolConfig,
    /// Entries dropped at capacity over the spool's lifetime.
    dropped: u64,
}

impl Spool {
    /// An empty spool stamping messages as `daemon_id`.
    pub fn new(daemon_id: impl Into<String>, config: SpoolConfig) -> Spool {
        Spool {
            daemon_id: daemon_id.into(),
            next_seq: 1,
            entries: VecDeque::new(),
            config,
            dropped: 0,
        }
    }

    /// The identity stamped on every message.
    pub fn daemon_id(&self) -> &str {
        &self.daemon_id
    }

    /// Queued entries awaiting acknowledgement.
    pub fn depth(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is awaiting delivery.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries dropped at capacity over the spool's lifetime.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The configured capacity/backoff.
    pub fn config(&self) -> SpoolConfig {
        self.config
    }

    /// Stamps `message` with the next `(daemon_id, seq)` and queues
    /// it, returning the assigned seq. At capacity the oldest entry is
    /// dropped first (and counted in [`Spool::dropped`]).
    pub fn enqueue(&mut self, message: ClientMessage) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.entries.len() >= self.config.capacity.max(1) {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back(SpoolEntry {
            seq,
            message: message.with_origin(self.daemon_id.clone(), seq),
            attempts: 0,
            not_before: 0,
        });
        seq
    }

    /// The earliest second any delivery may next be attempted — the
    /// *head's* `not_before`, because delivery is head-of-line (a
    /// later report never overtakes an earlier unacknowledged one).
    /// `None` when the spool is empty.
    pub fn next_due_secs(&self) -> Option<u64> {
        self.entries.front().map(|e| e.not_before)
    }

    /// The head entry if it is deliverable at `now_secs`. Head-of-line
    /// delivery sends exactly this, one at a time.
    pub fn head_if_due(&self, now_secs: u64) -> Option<SpoolEntry> {
        self.entries.front().filter(|e| e.not_before <= now_secs).cloned()
    }

    /// The longest deliverable prefix at `now_secs`: every entry from
    /// the head whose `not_before` has passed (when `ignore_backoff`,
    /// the whole queue). Entries are cloned in seq order; the caller
    /// must resolve each via [`Spool::ack`] / [`Spool::nack`] /
    /// [`Spool::reject`] / [`Spool::defer`].
    pub fn due_prefix(&self, now_secs: u64, ignore_backoff: bool) -> Vec<SpoolEntry> {
        self.entries
            .iter()
            .take_while(|e| ignore_backoff || e.not_before <= now_secs)
            .cloned()
            .collect()
    }

    /// Acknowledges `seq`: the server ingested it; the entry leaves
    /// the spool. Returns false if no such entry was queued.
    pub fn ack(&mut self, seq: u64) -> bool {
        match self.entries.iter().position(|e| e.seq == seq) {
            Some(pos) => {
                self.entries.remove(pos);
                true
            }
            None => false,
        }
    }

    /// Records a failed attempt for `seq`: bumps its attempt count and
    /// schedules the retry per the backoff policy. Returns the new
    /// attempt count (0 if no such entry).
    pub fn nack(&mut self, seq: u64, now_secs: u64) -> u32 {
        let daemon = self.daemon_id.clone();
        let backoff = self.config.backoff;
        match self.entries.iter_mut().find(|e| e.seq == seq) {
            Some(entry) => {
                entry.attempts += 1;
                entry.not_before =
                    now_secs + backoff.delay_secs(&daemon, seq, entry.attempts);
                entry.attempts
            }
            None => 0,
        }
    }

    /// Holds `seq` back until `until_secs` without counting a failed
    /// attempt (in-flight delay rather than loss).
    pub fn defer(&mut self, seq: u64, until_secs: u64) {
        if let Some(entry) = self.entries.iter_mut().find(|e| e.seq == seq) {
            entry.not_before = entry.not_before.max(until_secs);
        }
    }

    /// Drops `seq` permanently (the server rejected it; a retry would
    /// only be rejected again). Returns false if no such entry.
    pub fn reject(&mut self, seq: u64) -> bool {
        self.ack(seq)
    }

    /// Drops queued entries for `branch` that have never been sent
    /// (`attempts == 0` and not past any delivery attempt), returning
    /// how many were dropped. A forwarding relay calls this before
    /// enqueueing a fresh rollup of the same branch: under a long
    /// partition the parent wants the *latest* value per branch, not a
    /// replay of every superseded one — the same "freshest state wins"
    /// theory as the capacity drop. Entries with delivery attempts are
    /// kept: they may already have been ingested, and acking them via
    /// retry is how the relay learns that.
    pub fn supersede(&mut self, branch: &inca_report::BranchId) -> usize {
        let before = self.entries.len();
        self.entries
            .retain(|e| e.attempts > 0 || e.message.branch != *branch);
        before - self.entries.len()
    }

    /// Serializes the whole spool — identity, sequence counter, drop
    /// count, and every queued entry — to bytes. The meta frame stays
    /// XML (it is small and human-greppable); each entry is one frame
    /// of binary `[tag][len][bytes]` sections (seq, attempts, message)
    /// in the same section format as the wire's binary envelope, so
    /// the message bytes are spliced without an XML head per entry.
    /// Backoff deadlines are *not* persisted: a restored spool retries
    /// immediately, which is what a freshly restarted daemon should do.
    /// An entry whose frame would exceed [`MAX_FRAME_LEN`] is left out,
    /// because no frame that large can be read back; its message is
    /// within 27 bytes of that cap or over it, where the transport
    /// refuses it anyway.
    pub fn dump(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let meta = format!(
            "<spool daemon=\"{}\" next_seq=\"{}\" dropped=\"{}\"/>",
            escape_text(&self.daemon_id),
            self.next_seq,
            self.dropped,
        );
        write_frame(&mut out, meta.as_bytes()).expect("vec write cannot fail");
        for entry in &self.entries {
            let mut body = Vec::new();
            put_section(&mut body, SECTION_SEQ, &entry.seq.to_be_bytes());
            put_section(&mut body, SECTION_ATTEMPTS, &entry.attempts.to_be_bytes());
            put_section(&mut body, SECTION_MESSAGE, &entry.message.encode());
            if body.len() <= MAX_FRAME_LEN {
                write_frame(&mut out, &body).expect("vec write cannot fail");
            }
        }
        out
    }

    /// Restores a spool from [`Spool::dump`] bytes.
    pub fn restore(bytes: &[u8], config: SpoolConfig) -> Result<Spool, String> {
        let mut cursor = Cursor::new(bytes);
        let meta_bytes =
            read_frame(&mut cursor).map_err(|e| format!("spool meta frame: {e}"))?;
        let meta = Element::parse(
            std::str::from_utf8(&meta_bytes).map_err(|e| format!("meta not UTF-8: {e}"))?,
        )
        .map_err(|e| format!("bad spool meta: {e}"))?;
        if meta.name != "spool" {
            return Err(format!("expected <spool>, found <{}>", meta.name));
        }
        let daemon_id = meta
            .attribute("daemon")
            .ok_or("spool meta missing daemon")?
            .to_string();
        let attr_u64 = |name: &str| -> Result<u64, String> {
            meta.attribute(name)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("spool meta missing/invalid {name}"))
        };
        let next_seq = attr_u64("next_seq")?;
        let dropped = attr_u64("dropped")?;
        let mut entries = VecDeque::new();
        loop {
            let body = match read_frame(&mut cursor) {
                Ok(b) => b,
                Err(FrameError::Closed) => break,
                Err(e) => return Err(format!("spool entry frame: {e}")),
            };
            let mut sections = SectionReader::new(&body);
            let mut seq: Option<u64> = None;
            let mut attempts: Option<u32> = None;
            let mut message_bytes: Option<&[u8]> = None;
            loop {
                match sections.next_section() {
                    Ok(None) => break,
                    Ok(Some((SECTION_SEQ, bytes))) => {
                        let arr: [u8; 8] = bytes
                            .try_into()
                            .map_err(|_| "entry seq section must be 8 bytes".to_string())?;
                        seq = Some(u64::from_be_bytes(arr));
                    }
                    Ok(Some((SECTION_ATTEMPTS, bytes))) => {
                        let arr: [u8; 4] = bytes.try_into().map_err(|_| {
                            "entry attempts section must be 4 bytes".to_string()
                        })?;
                        attempts = Some(u32::from_be_bytes(arr));
                    }
                    Ok(Some((SECTION_MESSAGE, bytes))) => message_bytes = Some(bytes),
                    // Unknown tags are skipped: a newer daemon may dump
                    // sections an older one safely ignores.
                    Ok(Some(_)) => {}
                    Err(e) => return Err(format!("bad entry sections: {e}")),
                }
            }
            let seq = seq.ok_or("entry missing seq section")?;
            let attempts = attempts.ok_or("entry missing attempts section")?;
            let payload = message_bytes.ok_or("entry missing message section")?;
            let message = ClientMessage::decode(payload)
                .map_err(|e| format!("entry payload for seq {seq}: {e}"))?;
            if message.origin.as_deref_seq() != Some((daemon_id.as_str(), seq)) {
                return Err(format!("entry stamp mismatch for seq {seq}"));
            }
            if seq >= next_seq {
                return Err(format!("entry seq {seq} not below next_seq {next_seq}"));
            }
            entries.push_back(SpoolEntry { seq, message, attempts, not_before: 0 });
        }
        Ok(Spool { daemon_id, next_seq, entries, config, dropped })
    }
}

/// Borrow helper for comparing an `Option<(String, u64)>` origin
/// without cloning.
trait OriginAsRef {
    fn as_deref_seq(&self) -> Option<(&str, u64)>;
}

impl OriginAsRef for Option<(String, u64)> {
    fn as_deref_seq(&self) -> Option<(&str, u64)> {
        self.as_ref().map(|(d, s)| (d.as_str(), *s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_report::{BranchId, ReportBuilder};

    fn message(n: u64) -> ClientMessage {
        let report = ReportBuilder::new("r", "1")
            .body_value("n", n.to_string())
            .success()
            .unwrap();
        let branch: BranchId = format!("reporter=r{n},vo=tg").parse().unwrap();
        ClientMessage::report("host.sdsc.edu", branch, &report)
    }

    fn spool() -> Spool {
        Spool::new("host.sdsc.edu", SpoolConfig::default())
    }

    #[test]
    fn enqueue_stamps_monotonic_seqs() {
        let mut s = spool();
        assert_eq!(s.enqueue(message(1)), 1);
        assert_eq!(s.enqueue(message(2)), 2);
        let due = s.due_prefix(0, false);
        assert_eq!(due.len(), 2);
        assert_eq!(due[0].message.origin, Some(("host.sdsc.edu".into(), 1)));
        assert_eq!(due[1].message.origin, Some(("host.sdsc.edu".into(), 2)));
    }

    #[test]
    fn ack_removes_and_nack_backs_off() {
        let mut s = spool();
        let a = s.enqueue(message(1));
        let b = s.enqueue(message(2));
        assert!(s.ack(a));
        assert!(!s.ack(a), "double ack is a no-op");
        assert_eq!(s.nack(b, 100), 1);
        // Backed-off head gates the whole queue (head-of-line).
        let c = s.enqueue(message(3));
        assert!(s.due_prefix(100, false).is_empty());
        let due_at = s.next_due_secs().unwrap();
        assert!(due_at > 100);
        let due = s.due_prefix(due_at, false);
        assert_eq!(due.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![b, c]);
        assert_eq!(due[0].attempts, 1);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = BackoffPolicy { base_secs: 4, cap_secs: 64, jitter_secs: 0 };
        let delays: Vec<u64> = (1..=8).map(|a| p.delay_secs("d", 1, a)).collect();
        assert_eq!(delays, vec![4, 8, 16, 32, 64, 64, 64, 64]);
        let jittered = BackoffPolicy { base_secs: 4, cap_secs: 64, jitter_secs: 7 };
        let d1 = jittered.delay_secs("d", 1, 3);
        assert_eq!(d1, jittered.delay_secs("d", 1, 3), "jitter is deterministic");
        assert!((16..=23).contains(&d1));
    }

    #[test]
    fn capacity_drops_oldest_and_counts() {
        let mut s = Spool::new(
            "h",
            SpoolConfig { capacity: 2, backoff: BackoffPolicy::default() },
        );
        s.enqueue(message(1));
        s.enqueue(message(2));
        s.enqueue(message(3));
        assert_eq!(s.depth(), 2);
        assert_eq!(s.dropped(), 1);
        let seqs: Vec<u64> = s.due_prefix(0, false).iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3], "oldest entry was dropped");
    }

    #[test]
    fn defer_holds_without_counting_an_attempt() {
        let mut s = spool();
        let a = s.enqueue(message(1));
        s.defer(a, 500);
        assert!(s.due_prefix(499, false).is_empty());
        let due = s.due_prefix(500, false);
        assert_eq!(due[0].attempts, 0);
    }

    #[test]
    fn supersede_drops_only_unsent_entries_of_that_branch() {
        let mut s = spool();
        let a = s.enqueue(message(1)); // reporter=r1
        s.enqueue(message(1)); // superseded rollup of the same branch
        let c = s.enqueue(message(2)); // different branch, untouched
        s.nack(a, 0); // a was sent once: it may already be ingested
        let branch: BranchId = "reporter=r1,vo=tg".parse().unwrap();
        assert_eq!(s.supersede(&branch), 1);
        let seqs: Vec<u64> = s.due_prefix(u64::MAX, true).iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![a, c], "attempted entry and other branches survive");
        assert_eq!(s.supersede(&branch), 0, "nothing left to supersede");
    }

    #[test]
    fn dump_restore_roundtrips_counter_and_entries() {
        let mut s = spool();
        let a = s.enqueue(message(1));
        let b = s.enqueue(message(2));
        s.ack(a);
        s.nack(b, 50);
        let restored = Spool::restore(&s.dump(), s.config()).unwrap();
        assert_eq!(restored.daemon_id(), "host.sdsc.edu");
        assert_eq!(restored.depth(), 1);
        // The sequence counter survives: no seq reuse after restart.
        let mut restored = restored;
        assert_eq!(restored.enqueue(message(3)), 3);
        // Backoff deadlines do not survive: a restarted daemon retries
        // immediately (attempts are kept for the next backoff step).
        let due = restored.due_prefix(0, false);
        assert_eq!(due[0].seq, b);
        assert_eq!(due[0].attempts, 1);
        assert_eq!(due[0].not_before, 0);
        assert_eq!(due[0].message, s.due_prefix(u64::MAX, true)[0].message);
    }

    #[test]
    fn restore_rejects_garbage_and_tampering() {
        assert!(Spool::restore(b"junk", SpoolConfig::default()).is_err());
        let mut s = spool();
        s.enqueue(message(1));
        let mut bytes = s.dump();
        let len = bytes.len();
        bytes.truncate(len - 3);
        assert!(Spool::restore(&bytes, SpoolConfig::default()).is_err());
        // A message whose stamp disagrees with its entry's seq section
        // fails: find the SEQ section `[0x10][len=8][u64 BE]` and flip
        // its low byte from 1 to 9.
        let mut tampered = s.dump();
        let pos = tampered
            .windows(5)
            .position(|w| w == [SECTION_SEQ, 0, 0, 0, 8])
            .expect("dump contains a seq section");
        let low = pos + 5 + 7;
        assert_eq!(tampered[low], 1);
        tampered[low] = 9;
        assert!(Spool::restore(&tampered, SpoolConfig::default()).is_err());
    }

    #[test]
    fn empty_spool_dump_restores_empty() {
        let s = spool();
        let restored = Spool::restore(&s.dump(), s.config()).unwrap();
        assert!(restored.is_empty());
        assert_eq!(restored, s);
    }
}
