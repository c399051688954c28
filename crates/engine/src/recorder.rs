//! The flight recorder: a lock-free ring of per-request audit records,
//! plus bounded slow-request trace exemplars.
//!
//! Aggregate metrics answer "how is the engine doing"; the flight
//! recorder answers "which requests were slow, and what did dispatch
//! choose for them" *after the fact*. Every completed request writes
//! one fixed-size audit record (request id, class, input bytes,
//! dispatch decision, scheduling mode, cache status, queue-wait ns,
//! service ns, worker-thread alloc-bytes delta, outcome) into a
//! fixed-capacity ring; the newest `capacity` records are always
//! available through the AUDIT protocol command and `slcs audit`.
//!
//! Records are written seqlock-style over plain atomics: the writer
//! claims a slot by ticket, zeroes the slot's token, stores the fields,
//! then publishes the new token with `Release`. A reader validates the
//! token before and after reading the fields and discards the slot on
//! mismatch, so a scrape racing a wrap loses that one slot rather than
//! reporting a spliced record. (Fields are atomics — a theoretical torn
//! read is stale data, never undefined behaviour.)
//!
//! Slow-request *exemplars* ride on `slcs_trace::capture`: the worker
//! arms a speculative span capture per request and, when the request
//! breaches its class SLO, retains the rendered span tree here (newest
//! [`SLOW_EXEMPLARS`], behind a mutex — strictly the cold path).

use std::collections::VecDeque;

use crate::metrics::SCHED_MODE_TOKENS;
use crate::request::{CacheStatus, DispatchReason, Operation};
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::Mutex;

/// Default audit-ring capacity (records).
pub const DEFAULT_CAPACITY: usize = 1024;

/// How many slow-request trace exemplars are retained (newest win).
pub const SLOW_EXEMPLARS: usize = 8;

/// Per-request speculative capture budget: the bounded number of trace
/// events buffered while a request runs, kept only if it breaches its
/// SLO (see [`slcs_trace::capture`]).
pub const CAPTURE_EVENTS: usize = 256;

/// Sentinel token for "not recorded" enum fields (a panicked request
/// never reached dispatch, so it has no reason/sched/cache).
const UNKNOWN: u8 = 0xff;

/// What the worker learned about one completed request.
pub struct AuditEvent {
    /// Engine-assigned request id (also the `req` span field).
    pub id: u64,
    /// [`Operation::class_index`] of the request.
    pub class: usize,
    /// Total input size, `pattern.len() + text.len()`.
    pub bytes: u64,
    /// Dispatch branch taken; `None` when the request failed before
    /// dispatch finished.
    pub reason: Option<DispatchReason>,
    /// Scheduling-mode token (a [`SCHED_MODE_TOKENS`] value).
    pub sched: Option<&'static str>,
    pub cache: Option<CacheStatus>,
    pub wait_ns: u64,
    pub service_ns: u64,
    /// Bytes allocated on the worker thread while serving the request.
    pub alloc_bytes: u64,
    /// Whether the request produced a payload (false = panicked).
    pub ok: bool,
}

/// One decoded audit record, token fields resolved to the shared
/// vocabularies ("?" where the event never recorded them).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditRecord {
    pub id: u64,
    pub class: &'static str,
    pub bytes: u64,
    pub algo: &'static str,
    pub reason: &'static str,
    pub sched: &'static str,
    pub cache: &'static str,
    pub wait_ns: u64,
    pub service_ns: u64,
    pub alloc_bytes: u64,
    pub ok: bool,
}

impl AuditRecord {
    /// The AUDIT wire line for this record (single line, `key=value`).
    pub fn to_line(&self) -> String {
        format!(
            "id={} class={} algo={} reason={} sched={} cache={} bytes={} \
             wait_ns={} service_ns={} alloc_bytes={} ok={}",
            self.id,
            self.class,
            self.algo,
            self.reason,
            self.sched,
            self.cache,
            self.bytes,
            self.wait_ns,
            self.service_ns,
            self.alloc_bytes,
            u8::from(self.ok),
        )
    }
}

/// A retained slow-request exemplar: the audit facts plus the rendered
/// worker-thread span tree captured while the request ran.
#[derive(Clone, Debug)]
pub struct SlowCapture {
    pub id: u64,
    pub class: &'static str,
    pub service_ns: u64,
    /// The class SLO (µs) the request breached.
    pub slo_micros: u64,
    /// `slcs_trace::Timeline::to_text_tree` output of the capture.
    pub tree: String,
}

struct Slot {
    /// Validation token: 0 = empty or mid-write, else ticket + 1.
    token: AtomicU64,
    id: AtomicU64,
    /// Packs class:8 | reason:8 | sched:8 | cache:8 | ok:8 (low bits).
    meta: AtomicU64,
    bytes: AtomicU64,
    wait_ns: AtomicU64,
    service_ns: AtomicU64,
    alloc_bytes: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            token: AtomicU64::new(0),
            id: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            wait_ns: AtomicU64::new(0),
            service_ns: AtomicU64::new(0),
            alloc_bytes: AtomicU64::new(0),
        }
    }
}

fn encode_meta(ev: &AuditEvent) -> u64 {
    let class = ev.class.min(Operation::CLASS_COUNT - 1) as u64;
    let reason = ev.reason.map(|r| r.index() as u64).unwrap_or(UNKNOWN as u64);
    let sched = ev
        .sched
        .and_then(|token| SCHED_MODE_TOKENS.iter().position(|t| *t == token))
        .map_or(UNKNOWN as u64, |i| i as u64);
    let cache = ev
        .cache
        .map(|c| match c {
            CacheStatus::Hit => 0u64,
            CacheStatus::Miss => 1,
            CacheStatus::Bypass => 2,
        })
        .unwrap_or(UNKNOWN as u64);
    (class << 32) | (reason << 24) | (sched << 16) | (cache << 8) | u64::from(ev.ok)
}

fn decode_meta(
    meta: u64,
) -> (&'static str, &'static str, &'static str, &'static str, &'static str, bool) {
    let class_ix = ((meta >> 32) & 0xff) as usize;
    let class = Operation::CLASS_TOKENS.get(class_ix).copied().unwrap_or("?");
    let reason_ix = ((meta >> 24) & 0xff) as usize;
    let (algo, reason) = DispatchReason::ALL
        .get(reason_ix)
        .map(|r| (r.algo_token(), r.token()))
        .unwrap_or(("?", "?"));
    let sched = SCHED_MODE_TOKENS.get(((meta >> 16) & 0xff) as usize).copied().unwrap_or("?");
    let cache = match (meta >> 8) & 0xff {
        0 => "hit",
        1 => "miss",
        2 => "bypass",
        _ => "?",
    };
    (class, algo, reason, sched, cache, meta & 1 == 1)
}

/// The fixed-capacity audit ring plus the slow-exemplar store.
pub struct FlightRecorder {
    /// Request-id source; ids start at 1 and never repeat.
    ids: AtomicU64,
    /// Ring write tickets; ticket % capacity is the slot index.
    tickets: AtomicU64,
    slots: Box<[Slot]>,
    slow: Mutex<VecDeque<SlowCapture>>,
}

impl FlightRecorder {
    /// A recorder retaining the newest `capacity` records; capacity 0
    /// disables the whole audit path (the engine then skips recording).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            ids: AtomicU64::new(0),
            tickets: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            slow: Mutex::new(VecDeque::with_capacity(SLOW_EXEMPLARS)),
        }
    }

    /// Is the audit path on? (Capacity was non-zero.)
    pub fn enabled(&self) -> bool {
        !self.slots.is_empty()
    }

    /// Ring capacity in records.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The next request id (1-based, process-unique per engine).
    pub fn next_id(&self) -> u64 {
        // ORDERING: Relaxed — a unique-id counter; no data is published
        // through it.
        self.ids.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Appends one audit record, overwriting the oldest when full.
    pub fn record(&self, ev: &AuditEvent) {
        if self.slots.is_empty() {
            return;
        }
        // ORDERING: Relaxed — tickets only need uniqueness; the slot
        // token below carries the publish ordering.
        let ticket = self.tickets.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        // ORDERING: Release — readers that saw the old token and then
        // see 0 know the slot is mid-write and discard it.
        slot.token.store(0, Ordering::Release);
        // ORDERING: Relaxed (all field stores) — published by the
        // token's Release store below.
        slot.id.store(ev.id, Ordering::Relaxed);
        slot.meta.store(encode_meta(ev), Ordering::Relaxed);
        slot.bytes.store(ev.bytes, Ordering::Relaxed);
        slot.wait_ns.store(ev.wait_ns, Ordering::Relaxed);
        slot.service_ns.store(ev.service_ns, Ordering::Relaxed);
        slot.alloc_bytes.store(ev.alloc_bytes, Ordering::Relaxed);
        // ORDERING: Release — publishes the field stores to readers
        // that Acquire-load this token.
        slot.token.store(ticket + 1, Ordering::Release);
    }

    /// The ring's current records, oldest first (write order). A slot
    /// being overwritten during the scrape is skipped, not spliced.
    pub fn snapshot(&self) -> Vec<AuditRecord> {
        let mut out: Vec<(u64, AuditRecord)> = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            // ORDERING: Acquire — pairs with the writer's Release so the
            // field loads below see that write's values.
            let before = slot.token.load(Ordering::Acquire);
            if before == 0 {
                continue;
            }
            // ORDERING: Relaxed (all field loads) — ordered after the
            // Acquire above; validated by the re-read below.
            let id = slot.id.load(Ordering::Relaxed);
            let meta = slot.meta.load(Ordering::Relaxed);
            let bytes = slot.bytes.load(Ordering::Relaxed);
            let wait_ns = slot.wait_ns.load(Ordering::Relaxed);
            let service_ns = slot.service_ns.load(Ordering::Relaxed);
            let alloc_bytes = slot.alloc_bytes.load(Ordering::Relaxed);
            // ORDERING: Acquire — the token re-read must not be hoisted
            // above the field loads it validates.
            let after = slot.token.load(Ordering::Acquire);
            if after != before {
                continue;
            }
            let (class, algo, reason, sched, cache, ok) = decode_meta(meta);
            out.push((
                before,
                AuditRecord {
                    id,
                    class,
                    bytes,
                    algo,
                    reason,
                    sched,
                    cache,
                    wait_ns,
                    service_ns,
                    alloc_bytes,
                    ok,
                },
            ));
        }
        out.sort_by_key(|(ticket, _)| *ticket);
        out.into_iter().map(|(_, rec)| rec).collect()
    }

    /// Retains one slow-request exemplar, evicting the oldest past
    /// [`SLOW_EXEMPLARS`].
    pub fn note_slow(&self, capture: SlowCapture) {
        let mut slow = self.slow.lock().unwrap();
        if slow.len() >= SLOW_EXEMPLARS {
            slow.pop_front();
        }
        slow.push_back(capture);
    }

    /// The retained slow-request exemplars, oldest first.
    pub fn captures(&self) -> Vec<SlowCapture> {
        self.slow.lock().unwrap().iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(id: u64, service_ns: u64) -> AuditEvent {
        AuditEvent {
            id,
            class: 0,
            bytes: 10,
            reason: Some(DispatchReason::SmallAlphabet),
            sched: Some("seq"),
            cache: Some(CacheStatus::Bypass),
            wait_ns: 500,
            service_ns,
            alloc_bytes: 64,
            ok: true,
        }
    }

    #[test]
    fn records_decode_with_shared_vocabulary() {
        let r = FlightRecorder::new(8);
        r.record(&AuditEvent {
            id: 1,
            class: 2,
            bytes: 4096,
            reason: Some(DispatchReason::EditSimilar),
            sched: Some("work_steal"),
            cache: Some(CacheStatus::Miss),
            wait_ns: 1_000,
            service_ns: 2_000_000,
            alloc_bytes: 12_345,
            ok: true,
        });
        let recs = r.snapshot();
        assert_eq!(recs.len(), 1);
        let rec = &recs[0];
        assert_eq!(rec.class, "edit");
        assert_eq!(rec.algo, "osed");
        assert_eq!(rec.reason, "edit_similar");
        assert_eq!(rec.sched, "work_steal");
        assert_eq!(rec.cache, "miss");
        assert!(rec.ok);
        let line = rec.to_line();
        assert!(line.contains("id=1"), "{line}");
        assert!(line.contains("reason=edit_similar"), "{line}");
        assert!(line.contains("service_ns=2000000"), "{line}");
        assert!(line.contains("ok=1"), "{line}");
    }

    #[test]
    fn failed_requests_record_unknown_dispatch_fields() {
        let r = FlightRecorder::new(4);
        r.record(&AuditEvent {
            id: 9,
            class: 1,
            bytes: 100,
            reason: None,
            sched: None,
            cache: None,
            wait_ns: 1,
            service_ns: 2,
            alloc_bytes: 0,
            ok: false,
        });
        let rec = &r.snapshot()[0];
        assert_eq!(rec.class, "windows");
        assert_eq!((rec.algo, rec.reason, rec.sched, rec.cache), ("?", "?", "?", "?"));
        assert!(!rec.ok);
        assert!(rec.to_line().contains("ok=0"));
    }

    #[test]
    fn ring_wraps_keeping_the_newest_records_in_order() {
        let r = FlightRecorder::new(4);
        for i in 1..=10u64 {
            r.record(&event(i, i * 100));
        }
        let recs = r.snapshot();
        assert_eq!(recs.len(), 4, "capacity bounds retention");
        let ids: Vec<u64> = recs.iter().map(|r| r.id).collect();
        assert_eq!(ids, [7, 8, 9, 10], "oldest-first, newest retained");
    }

    #[test]
    fn zero_capacity_disables_recording() {
        let r = FlightRecorder::new(0);
        assert!(!r.enabled());
        r.record(&event(1, 100));
        assert!(r.snapshot().is_empty());
        assert!(r.next_id() >= 1, "ids still flow for span args");
    }

    #[test]
    fn slow_captures_are_bounded_newest_win() {
        let r = FlightRecorder::new(4);
        for i in 0..(SLOW_EXEMPLARS as u64 + 3) {
            r.note_slow(SlowCapture {
                id: i,
                class: "lcs",
                service_ns: 1,
                slo_micros: 0,
                tree: String::new(),
            });
        }
        let caps = r.captures();
        assert_eq!(caps.len(), SLOW_EXEMPLARS);
        assert_eq!(caps.first().map(|c| c.id), Some(3), "oldest evicted");
        assert_eq!(caps.last().map(|c| c.id), Some(SLOW_EXEMPLARS as u64 + 2));
    }

    #[test]
    fn ids_are_unique_and_monotone() {
        let r = FlightRecorder::new(2);
        let a = r.next_id();
        let b = r.next_id();
        assert!(b > a);
    }
}
