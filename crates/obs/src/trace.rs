//! Hierarchical span tracing with a bounded in-memory journal.
//!
//! A *span* is a named, timed scope: opening one (via the [`crate::span!`]
//! macro or [`open_span`]) pushes it onto the current thread's span stack;
//! dropping the returned [`SpanGuard`] closes it, recording monotonic
//! start/end times, its parent span, and any attributes attached along the
//! way (query ids, candidate counts, op-counter deltas).
//!
//! Tracing is **off by default**. The disabled fast path — what the mining
//! hot loops pay in release builds — is a single relaxed atomic load and a
//! branch, measured under 2% on the kNN cascade (see the `obs_smoke`
//! bench). The journal is per-thread and bounded: once `capacity` spans
//! are recorded, further spans are counted in [`dropped`] (and per name in
//! [`journal_stats`]) instead of allocated, and nesting stays consistent
//! (children of an unrecorded span attach to the nearest recorded
//! ancestor).
//!
//! ## Trace contexts
//!
//! Stack-based parentage only works within one thread. The serving stack
//! crosses threads — a query is enqueued on a client thread, coalesced on
//! the scheduler thread, and executed on parallel shard workers — so spans
//! belonging to one request would otherwise end up as unrelated roots in
//! different journals. A [`TraceCtx`] carries `{trace_id, span_id}` across
//! those boundaries explicitly: mint one per request with
//! [`TraceCtx::root`], derive children with [`TraceCtx::child`], and open
//! spans under a remote parent with [`open_span_ctx`]. Span ids are minted
//! from one process-wide counter, so ids are unique across threads and a
//! request's span tree can be reassembled from any mix of journals.
//!
//! All threads share one monotonic epoch, so `start_ns`/`end_ns` are
//! directly comparable across journals. Journals of threads that exit,
//! and of `simpim-par` pool helpers each time they leave a dispatch
//! ([`hand_over`]), are folded into a process-wide *orphan sink* (bounded
//! by the same capacity) so [`dump_jsonl_all`] still sees them.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::Json;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Default journal capacity used by [`enable`] when callers have no
/// specific bound in mind.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// Process-wide span id mint; 0 is reserved for "no span".
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
/// Process-wide trace id mint; 0 is reserved for "untraced".
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);
/// Capacity handed to [`enable`]: the bound of every thread's journal
/// (threads that outlive an `enable`, pool helpers included, see the new
/// value) and of the orphan sink.
static JOURNAL_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);

fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// One shared monotonic epoch for every thread's journal, so offsets from
/// different threads line up on one timeline.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Per-span-name drop counts, process-wide (satellite of the bounded
/// journal: truncation must be attributable from the artifact alone).
fn drop_registry() -> &'static Mutex<BTreeMap<String, u64>> {
    static DROPS: OnceLock<Mutex<BTreeMap<String, u64>>> = OnceLock::new();
    DROPS.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn note_drop(name: &str) {
    if let Ok(mut m) = drop_registry().lock() {
        *m.entry(name.to_string()).or_insert(0) += 1;
    }
}

/// Spans recorded by threads that have since exited (the engine
/// scheduler) or handed their journal over ([`hand_over`]: pool helpers).
/// Bounded by the journal capacity; overflow counts as per-name drops.
fn orphan_sink() -> &'static Mutex<Vec<SpanRecord>> {
    static SINK: OnceLock<Mutex<Vec<SpanRecord>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(Vec::new()))
}

/// A request-scoped trace context: the pair of ids that lets a span tree
/// be reassembled across threads. Mint one per request with
/// [`TraceCtx::root`]; pass it (it is `Copy`) wherever the request goes;
/// derive per-stage children with [`TraceCtx::child`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    /// Identifies the request; shared by every span in the tree. 0 means
    /// "untraced".
    pub trace_id: u64,
    /// The id of the span this context points at (the parent for any span
    /// opened under it).
    pub span_id: u64,
}

impl TraceCtx {
    /// The null context: untraced, no parent.
    pub const NONE: TraceCtx = TraceCtx {
        trace_id: 0,
        span_id: 0,
    };

    /// Mints a fresh trace with a fresh root span id. Cheap (two relaxed
    /// atomic increments) and independent of whether tracing is enabled,
    /// so request ids are stable for flight recording and exemplars even
    /// when the journal is off.
    pub fn root() -> Self {
        Self {
            trace_id: NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed),
            span_id: next_span_id(),
        }
    }

    /// A child context in the same trace with a freshly minted span id.
    pub fn child(&self) -> Self {
        Self {
            trace_id: self.trace_id,
            span_id: next_span_id(),
        }
    }

    /// A context that *joins* an existing trace: the trace id comes from
    /// elsewhere (typically minted by a remote client and carried over
    /// the wire), the span id is minted locally. Local minting matters —
    /// a remote peer's span-id counter is unrelated to ours, so reusing a
    /// wire-supplied span id could collide with locally minted ids inside
    /// the same reassembled tree. A `trace_id` of 0 falls back to
    /// [`TraceCtx::root`] so untraced peers still get attributable
    /// requests.
    pub fn join(trace_id: u64) -> Self {
        if trace_id == 0 {
            return Self::root();
        }
        Self {
            trace_id,
            span_id: next_span_id(),
        }
    }

    /// Whether this is the null context.
    pub fn is_none(&self) -> bool {
        self.trace_id == 0 && self.span_id == 0
    }
}

/// One closed (or still-open) span in the journal.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Process-unique span id (minted from one global counter, so ids
    /// from different threads never collide).
    pub id: u64,
    /// Id of the parent span, if any. For ctx-opened spans this may live
    /// in another thread's journal.
    pub parent: Option<u64>,
    /// Trace this span belongs to; 0 when opened outside any trace.
    pub trace_id: u64,
    /// Nesting depth on the opening thread (0 = root there).
    pub depth: u32,
    /// Span name, conventionally `<crate>.<stage>` (e.g.
    /// `mining.knn.filter`).
    pub name: String,
    /// Monotonic start offset in nanoseconds from the process epoch.
    pub start_ns: u64,
    /// Monotonic end offset; equals `start_ns` while the span is open.
    pub end_ns: u64,
    /// Attributes: open-time key/values plus anything recorded via
    /// [`SpanGuard::record`] (e.g. op-counter deltas).
    pub attrs: Vec<(String, f64)>,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The span as one JSONL-ready JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::Num(self.id as f64)),
            (
                "parent",
                match self.parent {
                    Some(p) => Json::Num(p as f64),
                    None => Json::Null,
                },
            ),
            ("trace_id", Json::Num(self.trace_id as f64)),
            ("depth", Json::Num(self.depth as f64)),
            ("name", Json::Str(self.name.clone())),
            ("start_ns", Json::Num(self.start_ns as f64)),
            ("end_ns", Json::Num(self.end_ns as f64)),
            (
                "attrs",
                Json::Obj(
                    self.attrs
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ])
    }
}

struct Tracer {
    records: Vec<SpanRecord>,
    /// Indices into `records` of currently-open recorded spans.
    stack: Vec<usize>,
    dropped: u64,
    /// Open-span depth including unrecorded spans, so `depth` stays
    /// truthful even past capacity.
    open_depth: u32,
}

impl Tracer {
    fn new() -> Self {
        Self {
            records: Vec::new(),
            stack: Vec::new(),
            dropped: 0,
            open_depth: 0,
        }
    }
}

impl Tracer {
    /// Moves this journal into the orphan sink (bounded by the journal
    /// capacity; overflow counts as per-name drops).
    fn fold_into_orphans(&mut self) {
        if self.records.is_empty() {
            return;
        }
        if let Ok(mut sink) = orphan_sink().lock() {
            let cap = JOURNAL_CAPACITY.load(Ordering::Relaxed);
            for r in self.records.drain(..) {
                if sink.len() >= cap {
                    note_drop(&r.name);
                } else {
                    sink.push(r);
                }
            }
        }
    }
}

impl Drop for Tracer {
    /// Thread exit: fold this journal into the orphan sink so worker
    /// threads don't take their spans with them.
    fn drop(&mut self) {
        self.fold_into_orphans();
    }
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::new());
}

/// Turns tracing on process-wide with the given per-thread journal
/// capacity (spans beyond it are dropped, not reallocated). Clears this
/// thread's journal, the orphan sink, and the per-name drop counters.
pub fn enable(capacity: usize) {
    let capacity = capacity.max(1);
    JOURNAL_CAPACITY.store(capacity, Ordering::Relaxed);
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.records.clear(); // keep replaced journal out of the orphan sink
        *t = Tracer::new();
    });
    if let Ok(mut sink) = orphan_sink().lock() {
        sink.clear();
    }
    if let Ok(mut m) = drop_registry().lock() {
        m.clear();
    }
    ENABLED.store(true, Ordering::Release);
}

/// Turns tracing off process-wide. The journal is retained until
/// [`enable`] or [`clear`].
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Whether tracing is on.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears this thread's journal (keeps the enabled state and capacity).
pub fn clear() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.records.clear(); // keep replaced journal out of the orphan sink
        *t = Tracer::new();
    });
}

/// Takes this thread's journal, leaving it empty.
pub fn drain() -> Vec<SpanRecord> {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.stack.clear();
        t.open_depth = 0;
        std::mem::take(&mut t.records)
    })
}

/// Hands this thread's journal to the orphan sink now, as thread exit
/// would. A `simpim-par` pool helper calls this before it reports leaving
/// a dispatch — it never exits, and the spans of the jobs it ran must be
/// in [`drain_all`] when `join_all` returns. No span may be open on this
/// thread.
pub fn hand_over() {
    TRACER.with(|t| t.borrow_mut().fold_into_orphans());
}

/// Takes this thread's journal *and* the orphan sink (journals of exited
/// threads), leaving both empty. Span ids are process-unique, so the
/// union is a coherent forest.
pub fn drain_all() -> Vec<SpanRecord> {
    let mut out = match orphan_sink().lock() {
        Ok(mut sink) => std::mem::take(&mut *sink),
        Err(_) => Vec::new(),
    };
    out.extend(drain());
    out
}

/// A copy of this thread's journal.
pub fn snapshot() -> Vec<SpanRecord> {
    TRACER.with(|t| t.borrow().records.clone())
}

/// A copy of the orphan sink (spans from threads that have exited).
pub fn orphaned() -> Vec<SpanRecord> {
    match orphan_sink().lock() {
        Ok(sink) => sink.clone(),
        Err(_) => Vec::new(),
    }
}

/// Number of spans dropped on this thread because the journal was full.
pub fn dropped() -> u64 {
    TRACER.with(|t| t.borrow().dropped)
}

/// Journal health: capacity plus process-wide drop totals per span name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JournalStats {
    /// Per-thread journal capacity in spans (last value given to
    /// [`enable`]).
    pub capacity: usize,
    /// Total spans dropped process-wide since the last [`enable`].
    pub dropped_total: u64,
    /// Drops broken down by span name, sorted by name.
    pub dropped_by_name: Vec<(String, u64)>,
}

impl JournalStats {
    /// As a JSON object (embedded in bench artifacts).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("capacity", Json::Num(self.capacity as f64)),
            ("dropped_total", Json::Num(self.dropped_total as f64)),
            (
                "dropped_by_name",
                Json::Obj(
                    self.dropped_by_name
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Process-wide journal statistics: the configured capacity and how many
/// spans were dropped (total and per span name) since the last
/// [`enable`]. Unlike [`dropped`], this aggregates across threads.
pub fn journal_stats() -> JournalStats {
    let dropped_by_name: Vec<(String, u64)> = match drop_registry().lock() {
        Ok(m) => m.iter().map(|(k, &v)| (k.clone(), v)).collect(),
        Err(_) => Vec::new(),
    };
    JournalStats {
        capacity: JOURNAL_CAPACITY.load(Ordering::Relaxed),
        dropped_total: dropped_by_name.iter().map(|(_, v)| v).sum(),
        dropped_by_name,
    }
}

/// The journal as JSONL: one compact JSON object per line, in open order.
pub fn dump_jsonl() -> String {
    TRACER.with(|t| {
        let t = t.borrow();
        let mut out = String::new();
        for r in &t.records {
            out.push_str(&r.to_json().to_string());
            out.push('\n');
        }
        out
    })
}

/// The orphan sink plus this thread's journal as JSONL (orphans first).
/// What the CLI writes for `--trace`: worker-thread spans included.
pub fn dump_jsonl_all() -> String {
    let mut out = String::new();
    if let Ok(sink) = orphan_sink().lock() {
        for r in sink.iter() {
            out.push_str(&r.to_json().to_string());
            out.push('\n');
        }
    }
    out.push_str(&dump_jsonl());
    out
}

/// Opens a span. Prefer the [`crate::span!`] macro, which stringifies
/// attribute names for you. When tracing is disabled this is one atomic
/// load; the returned guard is inert.
#[inline]
pub fn open_span(name: &str, attrs: &[(&str, f64)]) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard { slot: None };
    }
    open_span_slow(name, None, attrs)
}

/// Opens a span under an explicit cross-thread parent context, returning
/// the guard plus the new span's own context (hand it to further threads
/// or stages). The context is minted even when tracing is disabled, so
/// propagation — flight recording, exemplar trace ids — keeps working with
/// the journal off.
#[inline]
pub fn open_span_ctx(name: &str, parent: TraceCtx, attrs: &[(&str, f64)]) -> (SpanGuard, TraceCtx) {
    let ctx = if parent.is_none() {
        TraceCtx::root()
    } else {
        parent.child()
    };
    if !is_enabled() {
        return (SpanGuard { slot: None }, ctx);
    }
    (open_span_slow(name, Some((parent, ctx)), attrs), ctx)
}

/// Opens a root span and mints a fresh trace for it. Shorthand for
/// [`open_span_ctx`] with [`TraceCtx::NONE`].
#[inline]
pub fn open_root_span(name: &str, attrs: &[(&str, f64)]) -> (SpanGuard, TraceCtx) {
    open_span_ctx(name, TraceCtx::NONE, attrs)
}

#[cold]
fn open_span_slow(
    name: &str,
    ctx: Option<(TraceCtx, TraceCtx)>,
    attrs: &[(&str, f64)],
) -> SpanGuard {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let depth = t.open_depth;
        t.open_depth += 1;
        if t.records.len() >= JOURNAL_CAPACITY.load(Ordering::Relaxed) {
            t.dropped += 1;
            note_drop(name);
            // Unrecorded span: the guard still tracks depth so siblings
            // recorded later keep truthful depths.
            return SpanGuard { slot: None };
        }
        let stack_parent = t
            .stack
            .last()
            .map(|&i| (t.records[i].id, t.records[i].trace_id));
        let (id, parent, trace_id) = match ctx {
            // Explicit cross-thread parentage wins over the local stack.
            Some((parent, own)) => {
                let p = if parent.span_id == 0 {
                    stack_parent.map(|(pid, _)| pid)
                } else {
                    Some(parent.span_id)
                };
                (own.span_id, p, own.trace_id)
            }
            // Plain spans parent on the stack and inherit its trace, so
            // inner stages traced on a worker thread stay in the
            // request's trace without any plumbing of their own.
            None => {
                let (p, tid) = match stack_parent {
                    Some((pid, ptid)) => (Some(pid), ptid),
                    None => (None, 0),
                };
                (next_span_id(), p, tid)
            }
        };
        let start_ns = now_ns();
        t.records.push(SpanRecord {
            id,
            parent,
            trace_id,
            depth,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            attrs: attrs.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        });
        let idx = t.records.len() - 1;
        t.stack.push(idx);
        SpanGuard { slot: Some(idx) }
    })
}

/// RAII guard for an open span; closes it (records the end time and pops
/// the stack) on drop. Obtained from [`crate::span!`] / [`open_span`].
#[must_use = "bind to a named variable; `let _ = span!(..)` closes immediately"]
#[derive(Debug)]
pub struct SpanGuard {
    /// Journal index when the span was recorded; `None` when tracing is
    /// off or the journal was full.
    slot: Option<usize>,
}

impl SpanGuard {
    /// Attaches (or overwrites) an attribute on the span — the hook for
    /// op-counter deltas and result sizes known only at scope exit.
    pub fn record(&mut self, key: &str, value: f64) {
        let Some(idx) = self.slot else { return };
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            if let Some(r) = t.records.get_mut(idx) {
                if let Some(slot) = r.attrs.iter_mut().find(|(k, _)| k == key) {
                    slot.1 = value;
                } else {
                    r.attrs.push((key.to_string(), value));
                }
            }
        });
    }

    /// Attaches several attributes at once (e.g. an op-counter delta).
    pub fn record_all<'a>(&mut self, pairs: impl IntoIterator<Item = (&'a str, f64)>) {
        for (k, v) in pairs {
            self.record(k, v);
        }
    }

    /// Whether this guard refers to a recorded span (tracing on and
    /// journal not full at open time).
    pub fn is_recorded(&self) -> bool {
        self.slot.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        // Even when nothing was recorded we may hold an open_depth slot —
        // but only if tracing was on at open time. Guards created while
        // disabled have slot None AND were never counted; distinguishing
        // costs a flag, so unrecorded-but-counted spans decrement via the
        // enabled check below being true at close. To stay robust when
        // tracing toggles mid-span, treat a None slot as uncounted unless
        // the tracer has outstanding depth beyond its stack.
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            match self.slot {
                Some(idx) => {
                    let end = now_ns();
                    if let Some(r) = t.records.get_mut(idx) {
                        r.end_ns = end;
                    }
                    if t.stack.last() == Some(&idx) {
                        t.stack.pop();
                    } else {
                        // Out-of-order drop (guard moved): remove anyway.
                        t.stack.retain(|&i| i != idx);
                    }
                    t.open_depth = t.open_depth.saturating_sub(1);
                }
                None => {
                    // Dropped-over-capacity spans still occupied a depth
                    // level; disabled-at-open guards never did. The former
                    // only exist when open_depth exceeds the stack depth.
                    if t.open_depth as usize > t.stack.len() {
                        t.open_depth -= 1;
                    }
                }
            }
        });
    }
}

#[cfg(test)]
pub(crate) mod test_lock {
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// Serializes tests that toggle the process-wide tracing flag.
    pub fn hold() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span;

    #[test]
    fn spans_nest_and_time() {
        let _l = test_lock::hold();
        enable(1024);
        {
            let mut outer = span!("outer", query = 7);
            {
                let _inner = span!("inner");
            }
            outer.record("candidates", 12.0);
        }
        let spans = drain();
        disable();
        assert_eq!(spans.len(), 2);
        let outer = &spans[0];
        let inner = &spans[1];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.depth, 0);
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.depth, 1);
        assert!(outer.end_ns >= inner.end_ns);
        assert!(outer.start_ns <= inner.start_ns);
        assert!(outer.attrs.contains(&("query".to_string(), 7.0)));
        assert!(outer.attrs.contains(&("candidates".to_string(), 12.0)));
    }

    #[test]
    fn join_adopts_the_trace_but_mints_the_span_locally() {
        let remote = TraceCtx::root();
        let joined = TraceCtx::join(remote.trace_id);
        assert_eq!(joined.trace_id, remote.trace_id);
        assert_ne!(joined.span_id, remote.span_id, "span id minted locally");
        assert_ne!(TraceCtx::join(remote.trace_id).span_id, joined.span_id);
        // An untraced peer (trace id 0) still gets a fully minted root.
        let fresh = TraceCtx::join(0);
        assert_ne!(fresh.trace_id, 0);
        assert_ne!(fresh.span_id, 0);
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _l = test_lock::hold();
        disable();
        clear();
        let mut g = span!("ignored", x = 1);
        g.record("y", 2.0);
        drop(g);
        assert!(snapshot().is_empty());
        assert!(!open_span("x", &[]).is_recorded());
    }

    #[test]
    fn capacity_bounds_the_journal() {
        let _l = test_lock::hold();
        enable(2);
        for _ in 0..5 {
            let _g = span!("s");
        }
        assert_eq!(snapshot().len(), 2);
        assert_eq!(dropped(), 3);
        // Nesting past capacity keeps depths truthful for later siblings.
        clear();
        {
            let _a = span!("a");
            let _b = span!("b");
            {
                let _c = span!("c"); // dropped (capacity 2)
                let _d = span!("d"); // dropped
            }
        }
        let spans = drain();
        disable();
        assert_eq!(spans.len(), 2);
        assert_eq!(dropped(), 2);
        assert_eq!(spans[1].depth, 1);
    }

    #[test]
    fn jsonl_is_parseable_per_line() {
        let _l = test_lock::hold();
        enable(16);
        {
            let _a = span!("alpha", q = 1);
            let _b = span!("beta");
        }
        let dump = dump_jsonl();
        disable();
        clear();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v = Json::parse(line).expect("valid JSONL line");
            assert!(v.get("name").is_some());
            assert!(v.get("start_ns").is_some());
            assert!(v.get("trace_id").is_some());
        }
    }

    #[test]
    fn record_overwrites_existing_attr() {
        let _l = test_lock::hold();
        enable(16);
        {
            let mut g = span!("s", x = 1);
            g.record("x", 5.0);
        }
        let spans = drain();
        disable();
        assert_eq!(spans[0].attrs, vec![("x".to_string(), 5.0)]);
    }

    #[test]
    fn trace_ctx_ids_are_unique_and_linked() {
        let root = TraceCtx::root();
        let c1 = root.child();
        let c2 = root.child();
        let other = TraceCtx::root();
        assert_eq!(c1.trace_id, root.trace_id);
        assert_eq!(c2.trace_id, root.trace_id);
        assert_ne!(c1.span_id, c2.span_id);
        assert_ne!(c1.span_id, root.span_id);
        assert_ne!(other.trace_id, root.trace_id);
        assert!(!root.is_none());
        assert!(TraceCtx::NONE.is_none());
    }

    #[test]
    fn ctx_spans_carry_explicit_parentage_and_trace() {
        let _l = test_lock::hold();
        enable(64);
        let (root_guard, root_ctx) = open_root_span("req.root", &[]);
        let spans_in_thread = std::thread::scope(|s| {
            s.spawn(|| {
                // A "remote" thread opens under the request's context;
                // a plain nested span inherits trace + parent locally.
                {
                    let (_g, _child) = open_span_ctx("req.remote", root_ctx, &[("shard", 1.0)]);
                    let _inner = span!("req.remote.inner");
                }
                drain()
            })
            .join()
            .unwrap()
        });
        drop(root_guard);
        let local = drain();
        disable();

        assert_eq!(local.len(), 1);
        let root = &local[0];
        assert_eq!(root.name, "req.root");
        assert_eq!(root.trace_id, root_ctx.trace_id);
        assert_eq!(root.id, root_ctx.span_id);

        assert_eq!(spans_in_thread.len(), 2);
        let remote = &spans_in_thread[0];
        let inner = &spans_in_thread[1];
        assert_eq!(remote.parent, Some(root.id), "explicit cross-thread parent");
        assert_eq!(remote.trace_id, root.trace_id);
        assert_eq!(
            inner.parent,
            Some(remote.id),
            "stack nesting under ctx span"
        );
        assert_eq!(inner.trace_id, root.trace_id, "trace inherited via stack");
        // Process-unique ids: no collisions across the two journals.
        let mut ids: Vec<u64> = local
            .iter()
            .chain(spans_in_thread.iter())
            .map(|r| r.id)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn ctx_minted_even_when_disabled() {
        let _l = test_lock::hold();
        disable();
        let (g, ctx) = open_root_span("off", &[]);
        assert!(!g.is_recorded());
        assert!(!ctx.is_none());
        let (g2, child) = open_span_ctx("off.child", ctx, &[]);
        assert!(!g2.is_recorded());
        assert_eq!(child.trace_id, ctx.trace_id);
        assert_ne!(child.span_id, ctx.span_id);
    }

    #[test]
    fn drops_are_counted_per_name() {
        let _l = test_lock::hold();
        enable(1);
        {
            let _keep = span!("kept");
            let _a = span!("lost.alpha");
            let _b = span!("lost.alpha");
            let _c = span!("lost.beta");
        }
        let stats = journal_stats();
        disable();
        clear();
        assert_eq!(stats.capacity, 1);
        assert_eq!(stats.dropped_total, 3);
        assert_eq!(
            stats.dropped_by_name,
            vec![("lost.alpha".to_string(), 2), ("lost.beta".to_string(), 1)]
        );
        let j = stats.to_json();
        assert!(j
            .get("dropped_by_name")
            .and_then(|d| d.get("lost.alpha"))
            .is_some());
    }

    #[test]
    fn orphan_sink_collects_exited_threads() {
        let _l = test_lock::hold();
        enable(1024);
        // Joined, not scoped: a scope returns once the closure has run,
        // which can be before the thread-local journal's destructor has
        // handed its spans to the orphan sink.
        std::thread::spawn(|| {
            let _g = span!("worker.span");
        })
        .join()
        .unwrap();
        let all = drain_all();
        disable();
        assert!(all.iter().any(|r| r.name == "worker.span"));
        // Sink was drained.
        assert!(orphaned().is_empty());
    }
}
