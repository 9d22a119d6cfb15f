//! The load generators: a closed loop with one operation outstanding, and an open loop
//! at a fixed arrival rate with a visibility probe beside it.
//!
//! Both record the latency of every operation whose start falls in the measured window,
//! by kind. The open loop times an operation from its *intended* start on the schedule,
//! so a stall is charged to every operation it delayed (coordinated-omission-safe), and
//! counts how many operations it sent late. With tracing on, the second half of the
//! window also records spans around each call into the client library and the port.

use crate::procstat::{this_thread, ThreadSample};
use crate::session::{check_reply, match_reply, Session};
use crate::spec::{Drive, Kind, Op, Spec, MARKER_SLOTS};
use crate::stats::Samples;
use crate::visibility::{Tracker, EAGER_POLLS, POLL_INTERVAL};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use pocc_proto::{ClientReply, ProtocolClient};
use pocc_runtime::Cluster;
use pocc_types::ReplicaId;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// How long any single reply may take before the operation counts as unanswered.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// An operation sent this long after its intended start counts as late, unless the
/// cluster held it back: in the open loop, the window was full (or a marker waited for a
/// PUT reply) at some point since it was due; in the closed loop, the previous operation
/// had not finished by then. Such a delay is the cluster's latency. The threshold is a
/// few scheduler time slices, so ordinary wake-up delays on a busy 2-vCPU host do not
/// count; a generator that cannot get a CPU for this long is behind.
pub const LATE_AFTER: Duration = Duration::from_millis(5);

/// How long the probe keeps polling after the generator stopped before it declares the
/// remaining markers never visible.
const PROBE_GRACE: Duration = Duration::from_secs(5);

/// A stage of the generator's own loop, timed around one call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// `Client::get/put/ro_tx`: building the request.
    Request,
    /// `ClientPort::submit`.
    Submit,
    /// From the end of `submit` to the reply's arrival.
    ReplyWait,
    /// `Client::process_reply`.
    ProcessReply,
}

/// One traced span: an operation id, a stage, and its start and duration in
/// nanoseconds (start measured from the run's start).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The operation's index in the op stream; all spans of one operation share it.
    pub op: u32,
    /// The stage.
    pub stage: Stage,
    /// Start, nanoseconds after the run started.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Latency samples by operation kind.
#[derive(Debug, Default)]
pub struct Latencies {
    /// Every operation.
    pub all: Samples,
    /// GETs.
    pub get: Samples,
    /// PUTs, marker PUTs included.
    pub put: Samples,
    /// RO-TXs.
    pub rotx: Samples,
}

impl Latencies {
    fn record(&mut self, kind: Kind, nanos: u64) {
        self.all.push(nanos);
        match kind {
            Kind::Get => self.get.push(nanos),
            Kind::Put => self.put.push(nanos),
            Kind::RoTx => self.rotx.push(nanos),
        }
    }
}

/// What one measured run of the generator produced.
#[derive(Default)]
pub struct LoadResult {
    /// Untraced latencies of operations started in the measured window.
    pub untraced: Latencies,
    /// Latencies of operations started in the traced part of the window.
    pub traced: Latencies,
    /// Operations started in the measured window.
    pub attempted: u64,
    /// Of those, operations answered and checked.
    pub completed: u64,
    /// Of those, operations answered before the window closed.
    pub completed_in_window: u64,
    /// Of those, operations the generator itself sent late (see [`LATE_AFTER`]).
    pub late: u64,
    /// The measured window: from its start to the last measured completion.
    pub window: Duration,
    /// Visibility samples (nanoseconds from marker ack to first visible read in DC1).
    pub visibility: Vec<u64>,
    /// Traced spans, in the order they were recorded.
    pub spans: Vec<Span>,
    /// Correctness failures; any entry fails the run.
    pub errors: Vec<String>,
    /// CPU nanoseconds the generator threads spent in the window (they sample
    /// themselves).
    pub gen_cpu_ns: u64,
    /// The sessions the generator used, kept open so their transport threads are still
    /// there for the window's closing `/proc` snapshot.
    pub sessions: Vec<Session>,
}

impl LoadResult {
    /// Operations attempted but not completed.
    pub fn failed(&self) -> u64 {
        self.attempted - self.completed
    }
}

/// The measured window: `[start + warmup, start + warmup + seconds)`, with spans and
/// traced latencies recorded from `trace_from` on (when tracing).
#[derive(Clone, Copy, Debug)]
pub struct Window {
    /// When the generator started.
    pub start: Instant,
    /// Offset of the window's start.
    pub from: Duration,
    /// Offset of the window's end.
    pub to: Duration,
    /// Offset from which operations are traced, if tracing.
    pub trace_from: Option<Duration>,
}

impl Window {
    fn measured(&self, offset: Duration) -> bool {
        offset >= self.from && offset < self.to
    }

    fn traced(&self, offset: Duration) -> bool {
        self.measured(offset) && self.trace_from.is_some_and(|t| offset >= t)
    }
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// CPU nanoseconds the calling thread spent since `since` was sampled.
fn cpu_since(since: Option<ThreadSample>) -> u64 {
    since.map_or(0, |s| this_thread().cpu_ns.saturating_sub(s.cpu_ns))
}

/// Records spans for one operation when tracing.
struct SpanRecorder<'a> {
    spans: &'a mut Vec<Span>,
    start: Instant,
    op: u32,
}

impl SpanRecorder<'_> {
    fn span(&mut self, stage: Stage, from: Instant, to: Instant) {
        self.spans.push(Span {
            op: self.op,
            stage,
            start_ns: nanos(from - self.start),
            dur_ns: nanos(to - from),
        });
    }
}

/// Runs the closed loop: one generator thread, one session in DC0 with exactly one
/// operation outstanding, operation `i` started no earlier than `i / rate` into the run.
/// After every marker PUT the same thread polls the marker from a DC1 session until it
/// is visible, so nothing ever overlaps. Latency is timed from the actual start. When
/// the previous operation (and its polls) ran past an operation's due time, it starts at
/// once: that is the program's latency. It counts as late (see [`LATE_AFTER`]) only when
/// the loop was ready before its due time and still woke over `LATE_AFTER` after it.
pub fn closed_loop(cluster: &Cluster, spec: &Spec, ops: &[Op], window: Window) -> LoadResult {
    let interval = 1.0 / spec.rate();
    let mut out = LoadResult::default();
    let mut writer = Session::open(cluster, spec, ReplicaId(0));
    let mut probe = Session::open(cluster, spec, ReplicaId(1));
    let mut tracker = Tracker::new(MARKER_SLOTS);
    let mut seq = 0u64;
    let mut last_done = window.from;
    let mut cpu_at_start = None;
    for (i, op) in ops.iter().enumerate() {
        let due = window.start + Duration::from_secs_f64(i as f64 * interval);
        let ready = Instant::now();
        if let Some(early) = due.checked_duration_since(ready) {
            std::thread::sleep(early);
        }
        let t0 = Instant::now();
        let offset = t0 - window.start;
        if offset >= window.to {
            break;
        }
        let measured = window.measured(offset);
        if measured && cpu_at_start.is_none() {
            cpu_at_start = Some(this_thread());
        }
        let traced = window.traced(offset);
        seq += 1;
        out.attempted += measured as u64;
        out.late += (measured && ready <= due && t0 > due + LATE_AFTER) as u64;

        let request = writer.request(op, seq);
        let t1 = Instant::now();
        let target = writer.target(op);
        if let Err(err) = writer.port.submit(target, request) {
            out.errors.push(format!("submit failed: {err}"));
            break;
        }
        let t2 = Instant::now();
        let reply = match writer.port.recv_timeout(REPLY_TIMEOUT) {
            Ok(reply) => reply,
            Err(err) => {
                out.errors.push(format!("no reply to {op:?}: {err}"));
                break;
            }
        };
        let t3 = Instant::now();
        if let Err(err) = check_reply(&writer, op, &reply) {
            out.errors.push(err);
            break;
        }
        if let Err(err) = writer.client.process_reply(&reply) {
            out.errors.push(format!("session rejected a reply: {err}"));
            break;
        }
        let t4 = Instant::now();
        if measured {
            out.completed += 1;
            last_done = t4 - window.start;
            let latency = nanos(t4 - t0);
            if traced {
                out.traced.record(op.kind(), latency);
                let mut rec = SpanRecorder {
                    spans: &mut out.spans,
                    start: window.start,
                    op: i as u32,
                };
                rec.span(Stage::Request, t0, t1);
                rec.span(Stage::Submit, t1, t2);
                rec.span(Stage::ReplyWait, t2, t3);
                rec.span(Stage::ProcessReply, t3, t4);
            } else {
                out.untraced.record(op.kind(), latency);
            }
        }
        if let (Op::Marker(slot), true) = (op, measured) {
            tracker.on_ack(*slot, seq, t4);
            if let Err(err) = poll_until_visible(&mut probe, &mut tracker, *slot, false) {
                out.errors.push(err);
                break;
            }
        }
    }
    out.window = last_done.saturating_sub(window.from);
    out.visibility = tracker.samples().to_vec();
    out.gen_cpu_ns = cpu_since(cpu_at_start);
    out.sessions = vec![writer, probe];
    out
}

/// Polls `slot` from the probe session until no marker is pending on it. With `pace`,
/// the first [`EAGER_POLLS`] polls follow each other at once (one round trip apart) and
/// later ones wait [`POLL_INTERVAL`], so a marker visible within a few round trips (TCP,
/// no injected delay) is timed to a round trip while a 5 ms wait costs few polls.
fn poll_until_visible(
    probe: &mut Session,
    tracker: &mut Tracker,
    slot: usize,
    pace: bool,
) -> Result<(), String> {
    let deadline = Instant::now() + PROBE_GRACE;
    let mut polls = 0;
    while tracker.next_slot() == Some(slot) {
        if Instant::now() > deadline {
            return Err(format!("marker slot {slot} never became visible in DC1"));
        }
        let (target, request) = probe.marker_get(slot);
        probe
            .port
            .submit(target, request)
            .map_err(|e| format!("probe submit failed: {e}"))?;
        let reply = probe
            .port
            .recv_timeout(REPLY_TIMEOUT)
            .map_err(|e| format!("probe got no reply: {e}"))?;
        let at = Instant::now();
        let seq = check_reply(probe, &Op::Marker(slot), &reply)?;
        probe
            .client
            .process_reply(&reply)
            .map_err(|e| format!("probe session rejected a reply: {e}"))?;
        tracker.on_read(slot, seq, at).map_err(|r| {
            format!(
                "probe read of marker slot {} went backwards: {} after {}",
                r.slot, r.now, r.earlier
            )
        })?;
        polls += 1;
        if pace && polls >= EAGER_POLLS && tracker.next_slot() == Some(slot) {
            std::thread::sleep(POLL_INTERVAL);
        }
    }
    Ok(())
}

/// One operation in flight in the open loop.
struct InFlight {
    op: Op,
    index: usize,
    seq: u64,
    intended: Duration,
    submitted: Instant,
}

/// Runs the open loop: one generator thread (`bench-gen`) in DC0 sending `ops` on a
/// fixed schedule with up to `window` in flight, and one probe thread (`bench-probe`)
/// in DC1 polling the markers the generator acknowledges.
pub fn open_loop(cluster: &Cluster, spec: &Spec, ops: &[Op], window: Window) -> LoadResult {
    let Drive::Open {
        rate,
        window: depth,
    } = spec.drive
    else {
        panic!("open_loop needs an open-loop workload");
    };
    let (acks_tx, acks_rx) = unbounded();
    std::thread::scope(|scope| {
        let probe = std::thread::Builder::new()
            .name("bench-probe".into())
            .spawn_scoped(scope, || probe_thread(cluster, spec, acks_rx))
            .expect("spawning the probe thread succeeds");
        let generator = std::thread::Builder::new()
            .name("bench-gen".into())
            .spawn_scoped(scope, || {
                generate(cluster, spec, ops, window, rate, depth, acks_tx)
            })
            .expect("spawning the generator thread succeeds");
        let mut out = generator.join().expect("the generator does not panic");
        match probe.join().expect("the probe does not panic") {
            Ok((samples, cpu_ns, session)) => {
                out.visibility = samples;
                out.gen_cpu_ns += cpu_ns;
                out.sessions.push(session);
            }
            Err(err) => out.errors.push(err),
        }
        out
    })
}

fn generate(
    cluster: &Cluster,
    spec: &Spec,
    ops: &[Op],
    window: Window,
    rate: f64,
    depth: usize,
    acks: Sender<(usize, u64, Instant)>,
) -> LoadResult {
    let mut out = LoadResult::default();
    let mut session = Session::open(cluster, spec, ReplicaId(0));
    let intended = |i: usize| Duration::from_secs_f64(i as f64 / rate);
    let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(depth);
    let mut sent = 0usize;
    let mut seq = 0u64;
    let mut last_done = window.from;
    // The last instant the cluster held a due operation back: the window was full, or a
    // reply it still owed kept a marker PUT from going out alone (see `put_conflict`).
    let mut held_until = Duration::ZERO;
    let mut cpu_at_start = None;
    let deadline = intended(ops.len()) + REPLY_TIMEOUT;
    loop {
        // Send everything that is due, up to the window.
        while sent < ops.len() {
            let due = intended(sent);
            let t0 = Instant::now();
            if t0 - window.start < due {
                break;
            }
            if inflight.len() == depth || put_conflict(&inflight, &ops[sent]) {
                held_until = t0 - window.start;
                break;
            }
            let op = ops[sent];
            seq += 1;
            let request = session.request(&op, seq);
            let t1 = Instant::now();
            let target = session.target(&op);
            if let Err(err) = session.port.submit(target, request) {
                out.errors.push(format!("submit failed: {err}"));
                return out;
            }
            let t2 = Instant::now();
            if window.measured(due) {
                if cpu_at_start.is_none() {
                    cpu_at_start = Some(this_thread());
                }
                out.attempted += 1;
                out.late += (t0 - window.start > due + LATE_AFTER && held_until < due) as u64;
                if window.traced(due) {
                    let mut rec = SpanRecorder {
                        spans: &mut out.spans,
                        start: window.start,
                        op: sent as u32,
                    };
                    rec.span(Stage::Request, t0, t1);
                    rec.span(Stage::Submit, t1, t2);
                }
            }
            inflight.push_back(InFlight {
                op,
                index: sent,
                seq,
                intended: due,
                submitted: t2,
            });
            sent += 1;
        }
        if sent == ops.len() && inflight.is_empty() {
            break;
        }
        let now = window.start.elapsed();
        if now > deadline {
            out.errors.push(format!(
                "{} operations got no reply within {REPLY_TIMEOUT:?}",
                inflight.len()
            ));
            break;
        }
        // Wait for a reply until the next send is due, at most a millisecond.
        let can_send =
            sent < ops.len() && inflight.len() < depth && !put_conflict(&inflight, &ops[sent]);
        let wait = if can_send {
            intended(sent).saturating_sub(now)
        } else {
            Duration::from_millis(1)
        };
        let Ok(reply) = session
            .port
            .recv_timeout(wait.min(Duration::from_millis(1)))
        else {
            continue;
        };
        let mut next = Some(reply);
        while let Some(reply) = next.take() {
            if let Err(err) = on_reply(
                &mut session,
                &mut inflight,
                reply,
                window,
                &acks,
                &mut out,
                &mut last_done,
            ) {
                out.errors.push(err);
                return out;
            }
            next = session.port.recv_timeout(Duration::ZERO).ok();
        }
    }
    out.window = last_done.saturating_sub(window.from);
    out.gen_cpu_ns = cpu_since(cpu_at_start);
    out.sessions.push(session);
    out
}

/// Whether sending `op` now would put a marker PUT in flight beside another PUT. A PUT
/// reply carries only its update time, so [`match_reply`] pairs it with the oldest PUT in
/// flight, and replies from different servers or worker lanes may overtake each other;
/// keeping a marker the only PUT in flight makes its reply, and so its ack instant, its
/// own.
fn put_conflict(inflight: &VecDeque<InFlight>, op: &Op) -> bool {
    match op {
        Op::Marker(_) => inflight.iter().any(|f| f.op.kind() == Kind::Put),
        Op::Put(_) => inflight.iter().any(|f| matches!(f.op, Op::Marker(_))),
        Op::Get(_) | Op::RoTx(_) => false,
    }
}

fn on_reply(
    session: &mut Session,
    inflight: &mut VecDeque<InFlight>,
    reply: ClientReply,
    window: Window,
    acks: &Sender<(usize, u64, Instant)>,
    out: &mut LoadResult,
    last_done: &mut Duration,
) -> Result<(), String> {
    let arrived = Instant::now();
    let pos = match_reply(inflight.iter().map(|f| &f.op), &reply)
        .ok_or_else(|| format!("reply {reply:?} matches no operation in flight"))?;
    let f = inflight.remove(pos).expect("matched position is in range");
    check_reply(session, &f.op, &reply)?;
    session
        .client
        .process_reply(&reply)
        .map_err(|e| format!("session rejected a reply: {e}"))?;
    let done = Instant::now();
    if !window.measured(f.intended) {
        return Ok(());
    }
    out.completed += 1;
    let offset = done - window.start;
    out.completed_in_window += (offset < window.to) as u64;
    *last_done = (*last_done).max(offset);
    let latency = nanos(offset.saturating_sub(f.intended));
    if window.traced(f.intended) {
        out.traced.record(f.op.kind(), latency);
        let mut rec = SpanRecorder {
            spans: &mut out.spans,
            start: window.start,
            op: f.index as u32,
        };
        rec.span(Stage::ReplyWait, f.submitted, arrived);
        rec.span(Stage::ProcessReply, arrived, done);
    } else {
        out.untraced.record(f.op.kind(), latency);
    }
    if let Op::Marker(slot) = f.op {
        // The probe outlives the generator, so the send cannot fail.
        let _ = acks.send((slot, f.seq, done));
    }
    Ok(())
}

/// The probe: a DC1 session that polls every acknowledged marker until it is visible.
/// Ends when the generator has hung up and nothing is pending. Returns the visibility
/// samples, its own CPU time and its session.
fn probe_thread(
    cluster: &Cluster,
    spec: &Spec,
    acks: Receiver<(usize, u64, Instant)>,
) -> Result<(Vec<u64>, u64, Session), String> {
    let cpu_at_start = Some(this_thread());
    let mut probe = Session::open(cluster, spec, ReplicaId(1));
    let mut tracker = Tracker::new(MARKER_SLOTS);
    loop {
        if !tracker.has_pending() {
            match acks.recv_timeout(Duration::from_millis(50)) {
                Ok((slot, seq, at)) => tracker.on_ack(slot, seq, at),
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        while let Ok((slot, seq, at)) = acks.try_recv() {
            tracker.on_ack(slot, seq, at);
        }
        let slot = tracker.next_slot().expect("a marker is pending");
        poll_until_visible(&mut probe, &mut tracker, slot, true)?;
    }
    Ok((tracker.samples().to_vec(), cpu_since(cpu_at_start), probe))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pocc_types::Key;

    fn inflight(ops: &[Op]) -> VecDeque<InFlight> {
        ops.iter()
            .enumerate()
            .map(|(index, &op)| InFlight {
                op,
                index,
                seq: index as u64,
                intended: Duration::ZERO,
                submitted: Instant::now(),
            })
            .collect()
    }

    #[test]
    fn a_marker_put_is_the_only_put_in_flight() {
        let reads = inflight(&[Op::Get(Key(1)), Op::RoTx([Key(1), Key(2), Key(3), Key(4)])]);
        assert!(!put_conflict(&reads, &Op::Marker(0)));
        assert!(!put_conflict(&reads, &Op::Put(Key(5))));
        let put = inflight(&[Op::Get(Key(1)), Op::Put(Key(2))]);
        assert!(put_conflict(&put, &Op::Marker(0)));
        assert!(!put_conflict(&put, &Op::Put(Key(3))));
        let marker = inflight(&[Op::Marker(3)]);
        assert!(put_conflict(&marker, &Op::Put(Key(3))));
        assert!(put_conflict(&marker, &Op::Marker(4)));
        assert!(!put_conflict(&marker, &Op::Get(Key(3))));
    }
}
