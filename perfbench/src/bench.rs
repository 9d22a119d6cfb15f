//! One benchmark run of one workload: set-up, the measured window, the correctness
//! checks, and the metrics.
//!
//! An untraced run (`--trace 0`) sets the cluster up [`Spec::setups`] times, measures the
//! window with nothing but latency recording in the generator, and reports the
//! end-to-end metrics. A traced run (`--trace 1`) sets up once, measures the first half
//! of the window untraced and the second half with generator spans, samples thread CPU
//! and server counters around the window, then replays the same op stream
//! single-threaded through the layers' public functions, and reports the per-layer
//! metrics.

use crate::drive::{self, LoadResult, Stage, Window};
use crate::procstat::{self, per_op, Layer, LayerUsage};
use crate::replay;
use crate::report::Metric;
use crate::setup;
use crate::spec::{generate_ops, Drive, Spec};
use crate::stats::{median_f64, Samples};
use pocc_proto::MetricsSnapshot;
use pocc_runtime::Cluster;
use pocc_storage::StoreStats;
use std::time::{Duration, Instant};

/// The generator may send at most this share of operations late before the run fails:
/// beyond it the host, not the program, set the pace.
pub const MAX_LATE_SHARE: f64 = 0.02;

/// An open-loop run fails when it answers fewer than this share of the offered rate
/// inside the window.
pub const MIN_ACHIEVED_SHARE: f64 = 0.97;

/// The outcome of a run that passed every correctness check.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Of those, operations that failed or got no reply.
    pub failed: u64,
    /// The metrics, in reporting order.
    pub metrics: Vec<Metric>,
    /// Informational lines for the text report.
    pub notes: Vec<String>,
}

/// Server counters and store statistics summed over every server.
struct Counters {
    metrics: MetricsSnapshot,
    store: StoreStats,
}

fn counters(cluster: &Cluster) -> Counters {
    let mut metrics = MetricsSnapshot::default();
    let mut store = StoreStats::default();
    for (_, probe) in cluster.probe_all() {
        metrics.merge(&probe.metrics);
        store.merge(&probe.store_stats);
    }
    Counters { metrics, store }
}

/// Everything measured around one window.
struct Measured {
    load: LoadResult,
    usage: LayerUsage,
    counters: Option<(Counters, Counters)>,
}

/// Drives the load over one window while the calling thread samples `/proc` at the
/// window's start and after the load ends (and, when `probe_counters`, the servers'
/// counters at the same two points).
fn measure(
    cluster: &Cluster,
    spec: &Spec,
    ops: &[crate::spec::Op],
    window: Window,
    probe_counters: bool,
) -> Measured {
    std::thread::scope(|scope| {
        // The closed loop generates on this thread; the open loop's thread only
        // starts and joins its generator and probe.
        let name = match spec.drive {
            Drive::Closed { .. } => "bench-gen",
            Drive::Open { .. } => "bench-ctl",
        };
        let load = std::thread::Builder::new()
            .name(name.into())
            .spawn_scoped(scope, || match spec.drive {
                Drive::Closed { .. } => drive::closed_loop(cluster, spec, ops, window),
                Drive::Open { .. } => drive::open_loop(cluster, spec, ops, window),
            })
            .expect("spawning the load thread succeeds");
        if let Some(wait) = (window.start + window.from).checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let before = procstat::snapshot();
        let counters_before = probe_counters.then(|| counters(cluster));
        let mut load = load.join().expect("the load thread does not panic");
        let after = procstat::snapshot();
        let counters = counters_before.map(|b| (b, counters(cluster)));
        // The snapshot above saw the sessions' transport threads; close them now.
        load.sessions.clear();
        Measured {
            load,
            usage: LayerUsage::between(&before, &after),
            counters,
        }
    })
}

/// The op stream of one run: one operation per slot of the schedule.
fn ops_for(spec: &Spec, seed: u64, seconds: f64) -> Vec<crate::spec::Op> {
    let count = ((spec.warmup.as_secs_f64() + seconds) * spec.rate()).ceil() as usize;
    generate_ops(spec, seed, count)
}

/// Why a measured window was rejected.
enum Rejected {
    /// A correctness check failed: the run fails at once.
    Incorrect(String),
    /// The generator could not keep to its schedule: the host, not the program, set the
    /// pace, so the window's numbers are not reported.
    Behind(String),
}

/// A window rejected as [`Rejected::Behind`] is measured again, on a fresh cluster after
/// [`RETRY_PAUSE`], as long as the retry can finish within this long from the start of
/// the run. This rides out a disturbance of a shared host of a minute or two while
/// keeping a run under three minutes; a host that stays saturated still fails the run.
const RETRY_BUDGET: Duration = Duration::from_secs(150);

/// The pause before measuring a rejected window again.
const RETRY_PAUSE: Duration = Duration::from_secs(10);

/// Rejects the window on any correctness error, or when the generator could not keep
/// to its schedule.
fn check_load(spec: &Spec, load: &LoadResult, seconds: f64) -> Result<(), Rejected> {
    if let Some(err) = load.errors.first() {
        return Err(Rejected::Incorrect(format!(
            "{} correctness failure(s); first: {err}",
            load.errors.len()
        )));
    }
    if load.completed != load.attempted {
        return Err(Rejected::Incorrect(format!(
            "{} of {} operations got no reply",
            load.failed(),
            load.attempted
        )));
    }
    let late = per_op(load.late as f64, load.attempted);
    if late > MAX_LATE_SHARE {
        let mut all = load.untraced.all.clone();
        return Err(Rejected::Behind(format!(
            "the generator fell behind: {:.1}% of operations sent over {:?} late \
             (op p50 {:?} ns, p99 {:?} ns)",
            late * 100.0,
            drive::LATE_AFTER,
            all.median(),
            all.percentile(0.99)
        )));
    }
    if let Drive::Open { rate, .. } = spec.drive {
        // Operations answered inside the window against operations it offered: a
        // backlog that grows through the window shows as a shortfall.
        let achieved = load.completed_in_window as f64 / seconds;
        if achieved < MIN_ACHIEVED_SHARE * rate {
            return Err(Rejected::Behind(format!(
                "achieved {achieved:.0} ops/s of {rate:.0} offered: the backlog grew"
            )));
        }
    }
    Ok(())
}

/// Drains the cluster after the load and checks convergence, then shuts it down.
fn finish(cluster: Cluster, spec: &Spec) -> Result<(), String> {
    let converged = setup::wait_converged(&cluster, spec, setup::CONVERGE_TIMEOUT);
    cluster.shutdown();
    converged
}

/// Sets a fresh cluster up, measures one window of `seconds` on it (the second half
/// traced when `trace`), drains and checks it. Returns the set-up time and the
/// measurements.
fn measure_window(
    spec: &Spec,
    ops: &[crate::spec::Op],
    seconds: f64,
    trace: bool,
) -> Result<(f64, Measured), Rejected> {
    let t = Instant::now();
    let cluster = setup::start(spec).map_err(Rejected::Incorrect)?;
    let setup_s = t.elapsed().as_secs_f64();
    let window = Window {
        start: Instant::now(),
        from: spec.warmup,
        to: spec.warmup + Duration::from_secs_f64(seconds),
        trace_from: trace.then(|| spec.warmup + Duration::from_secs_f64(seconds / 2.0)),
    };
    let m = measure(&cluster, spec, ops, window, trace);
    finish(cluster, spec).map_err(Rejected::Incorrect)?;
    check_load(spec, &m.load, seconds)?;
    Ok((setup_s, m))
}

/// Runs `attempt` until it is accepted. While the generator fell behind, measures again
/// after [`RETRY_PAUSE`] if another attempt fits before `deadline`; records every retry
/// in `notes`.
fn accepted<T>(
    deadline: Instant,
    notes: &mut Vec<String>,
    mut attempt: impl FnMut() -> Result<T, Rejected>,
) -> Result<T, String> {
    loop {
        let started = Instant::now();
        match attempt() {
            Ok(value) => return Ok(value),
            Err(Rejected::Incorrect(why)) => return Err(why),
            Err(Rejected::Behind(why))
                if Instant::now() + RETRY_PAUSE + started.elapsed() < deadline =>
            {
                eprintln!("perfbench: window rejected, measuring again in {RETRY_PAUSE:?}: {why}");
                notes.push(format!("window measured again: {why}"));
                std::thread::sleep(RETRY_PAUSE);
            }
            Err(Rejected::Behind(why)) => return Err(why),
        }
    }
}

fn us(nanos: Option<u64>) -> Option<f64> {
    nanos.map(|n| n as f64 / 1e3)
}

fn ms(nanos: Option<u64>) -> Option<f64> {
    nanos.map(|n| n as f64 / 1e6)
}

/// One round of an untraced run: the share of the host's CPU time the hypervisor took
/// while it ran, and its metrics.
struct Round {
    steal: Option<f64>,
    metrics: Vec<Metric>,
}

/// An untraced run: the end-to-end metrics. The run is split into [`Spec::setups`]
/// rounds; each round sets a fresh cluster up (timed), measures an equal share of the
/// window on it and checks it. Every metric is the median over the half of the rounds
/// in which the hypervisor took the least CPU time from the host, so neither one slow
/// set-up, nor one unlucky cluster instance, nor a minute of a busy shared host moves it.
pub fn untraced(spec: &Spec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let rounds = spec.setups.max(1);
    let round_seconds = seconds / rounds as f64;
    let mut per_round: Vec<Round> = Vec::with_capacity(rounds);
    let (mut attempted, mut failed, mut late) = (0, 0, 0);
    let (deadline, mut retry_notes) = (Instant::now() + RETRY_BUDGET, Vec::new());
    let steal_before = procstat::host_steal();
    for round in 0..rounds {
        let ops = ops_for(
            spec,
            seed.wrapping_mul(1_000).wrapping_add(round as u64),
            round_seconds,
        );
        let (steal, (setup_s, mut m)) = accepted(deadline, &mut retry_notes, || {
            let before = procstat::host_steal();
            let measured = measure_window(spec, &ops, round_seconds, false)?;
            Ok((steal_between(before, procstat::host_steal()), measured))
        })?;
        attempted += m.load.attempted;
        failed += m.load.failed();
        late += m.load.late;

        let lat = &mut m.load.untraced;
        let mut vis = Samples::default();
        m.load.visibility.iter().for_each(|&v| vis.push(v));
        let metrics = vec![
            Metric::plain("setup_s", "s", setup_s),
            Metric::plain(
                "cpu_us_per_op",
                "us",
                per_op(m.usage.cluster_cpu_ns() as f64 / 1e3, m.load.completed),
            ),
            Metric::sampled("get_p50_us", "us", us(lat.get.median()), lat.get.len()),
            Metric::sampled("put_p50_us", "us", us(lat.put.median()), lat.put.len()),
            Metric::sampled("rotx_p50_us", "us", us(lat.rotx.median()), lat.rotx.len()),
            Metric::sampled("op_p50_us", "us", us(lat.all.median()), lat.all.len()),
            Metric::sampled("visibility_p50_ms", "ms", ms(vis.median()), vis.len()),
        ];
        per_round.push(Round { steal, metrics });
    }
    let per_round_note = format!(
        "per_round (host steal, then the metrics): {:?}",
        per_round
            .iter()
            .map(|r| std::iter::once(r.steal.unwrap_or(f64::NAN))
                .chain(r.metrics.iter().map(|m| m.value.unwrap_or(f64::NAN)))
                .collect::<Vec<_>>())
            .collect::<Vec<_>>()
    );
    // Rounds whose steal could not be read sort as unstolen, keeping their order.
    per_round.sort_by(|a, b| a.steal.unwrap_or(0.0).total_cmp(&b.steal.unwrap_or(0.0)));
    let kept = rounds.div_ceil(2);
    let metrics = median_over_rounds(&per_round[..kept]);
    let mut notes = vec![
        format!(
            "rounds: {rounds} of {round_seconds:.2} s each; metrics are medians over the \
             {kept} with the least host steal"
        ),
        format!("error_rate: {failed} failed of {attempted} attempted"),
        format!("gen_late_share: {:.5}", per_op(late as f64, attempted)),
        format!("host_steal_share: {}", steal_share(steal_before)),
        per_round_note,
    ];
    notes.extend(retry_notes);
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// The share of the host's CPU time the hypervisor took between two
/// [`procstat::host_steal`] samples, if both were read.
fn steal_between(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            Some(s1.saturating_sub(s0) as f64 / (t1 - t0) as f64)
        }
        _ => None,
    }
}

/// The share of the host's CPU time the hypervisor took since `before` was sampled, for
/// the report.
fn steal_share(before: Option<(u64, u64)>) -> String {
    steal_between(before, procstat::host_steal())
        .map_or_else(|| "unknown".into(), |share| format!("{share:.4}"))
}

/// Per metric, the median of its values over the rounds (missing if any round lacks
/// it), with the rounds' sample counts summed.
fn median_over_rounds(rounds: &[Round]) -> Vec<Metric> {
    (0..rounds[0].metrics.len())
        .map(|i| {
            let first = &rounds[0].metrics[i];
            let values: Option<Vec<f64>> = rounds.iter().map(|r| r.metrics[i].value).collect();
            Metric {
                name: first.name,
                unit: first.unit,
                value: values.as_deref().and_then(median_f64),
                samples: Some(
                    rounds
                        .iter()
                        .map(|r| r.metrics[i].samples.unwrap_or(1))
                        .sum(),
                ),
            }
        })
        .collect()
}

/// A traced run: the per-layer metrics.
pub fn traced(spec: &Spec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let ops = ops_for(spec, seed, seconds);
    let (deadline, mut retry_notes) = (Instant::now() + RETRY_BUDGET, Vec::new());
    let steal_before = procstat::host_steal();
    let (_, mut m) = accepted(deadline, &mut retry_notes, || {
        measure_window(spec, &ops, seconds, true)
    })?;
    let host_steal = steal_share(steal_before);

    let ops_done = m.load.completed;
    let window_s = m.load.window.as_secs_f64().max(1e-9);
    let u = &m.usage;
    let mut metrics = vec![
        Metric::plain(
            "runtime.server.cpu_us_per_op",
            "us",
            u.cpu_us_per_op(Layer::Server, ops_done),
        ),
        Metric::plain(
            "runtime.server.wakeups_per_op",
            "count",
            u.wakeups_per_op(Layer::Server, ops_done),
        ),
        Metric::plain(
            "net.tcp.conn_reader.cpu_us_per_op",
            "us",
            u.cpu_us_per_op(Layer::ConnReader, ops_done),
        ),
        Metric::plain(
            "net.tcp.conn_reader.wakeups_per_op",
            "count",
            u.wakeups_per_op(Layer::ConnReader, ops_done),
        ),
        Metric::plain(
            "net.tcp.client_reader.cpu_us_per_op",
            "us",
            u.cpu_us_per_op(Layer::ClientReader, ops_done),
        ),
        Metric::plain(
            "net.tcp.client_reader.wakeups_per_op",
            "count",
            u.wakeups_per_op(Layer::ClientReader, ops_done),
        ),
        Metric::plain(
            "net.tcp.acceptor.cpu_us_per_op",
            "us",
            u.cpu_us_per_op(Layer::Acceptor, ops_done),
        ),
        Metric::plain(
            "net.channel.delay.cpu_us_per_op",
            "us",
            u.cpu_us_per_op(Layer::NetDelay, ops_done),
        ),
        Metric::plain(
            "exec.lane.cpu_us_per_op",
            "us",
            u.cpu_us_per_op(Layer::Lane, ops_done),
        ),
        Metric::plain(
            "exec.lane.wakeups_per_op",
            "count",
            u.wakeups_per_op(Layer::Lane, ops_done),
        ),
        Metric::plain(
            "bench.gen.cpu_us_per_op",
            "us",
            per_op(m.load.gen_cpu_ns as f64 / 1e3, ops_done),
        ),
        Metric::plain(
            "bench.gen.late_share",
            "share",
            per_op(m.load.late as f64, m.load.attempted),
        ),
    ];

    let (before, after) = m.counters.take().expect("traced runs probe the servers");
    let d = after.metrics.delta_since(&before.metrics);
    let served = d.gets_served + d.puts_served + d.rotx_served;
    let server_msgs =
        d.replicate_sent + d.heartbeats_sent + d.stabilization_messages + d.gc_messages;
    let st = &after.store;
    let user_bytes = (st.keys * spec.value_size) as f64;
    metrics.extend([
        Metric::plain(
            "engine.blocked_share",
            "share",
            per_op(d.blocked_operations as f64, served),
        ),
        Metric::plain(
            "engine.block_us_per_op",
            "us",
            per_op(d.total_block_time.as_secs_f64() * 1e6, served),
        ),
        Metric::plain(
            "engine.old_get_share",
            "share",
            per_op(d.old_gets as f64, d.gets_served),
        ),
        Metric::plain(
            "engine.stabilization_msgs_per_s",
            "1/s",
            d.stabilization_messages as f64 / window_s,
        ),
        Metric::plain(
            "engine.heartbeats_per_s",
            "1/s",
            d.heartbeats_sent as f64 / window_s,
        ),
        Metric::plain(
            "engine.server_msgs_per_op",
            "count",
            per_op(server_msgs as f64, ops_done),
        ),
        Metric::plain(
            "engine.wire_bytes_per_op",
            "B",
            per_op(d.bytes_sent as f64, ops_done),
        ),
        Metric::plain(
            "exec.fast_path_hit_share",
            "share",
            per_op(
                d.lane_fast_path_hits as f64,
                d.lane_fast_path_hits + d.lane_fast_path_misses,
            ),
        ),
        Metric::plain(
            "exec.spine_acquisitions_per_op",
            "count",
            per_op(d.spine_acquisitions as f64, ops_done),
        ),
        Metric::plain(
            "exec.drain_spins_per_op",
            "count",
            per_op(d.drain_spins as f64, ops_done),
        ),
        Metric::plain(
            "storage.bytes_per_user_byte",
            "ratio",
            if user_bytes > 0.0 {
                st.live_bytes as f64 / user_bytes
            } else {
                0.0
            },
        ),
        Metric::plain(
            "storage.versions_per_key",
            "count",
            per_op(st.versions as f64, st.keys as u64),
        ),
        Metric::plain("storage.max_chain_len", "count", st.max_chain_len as f64),
        Metric::plain(
            "storage.gc_removed_per_put",
            "count",
            per_op(
                st.gc_removed.saturating_sub(before.store.gc_removed) as f64,
                d.puts_served,
            ),
        ),
    ]);

    // Generator spans: median duration per stage.
    let stage = |s: Stage| {
        let mut samples = Samples::with_capacity(m.load.spans.len() / 4);
        for span in m.load.spans.iter().filter(|span| span.stage == s) {
            samples.push(span.dur_ns);
        }
        let n = samples.len();
        (samples.median().map(|v| v as f64), n)
    };
    let (request_ns, n_req) = stage(Stage::Request);
    let (submit_ns, n_sub) = stage(Stage::Submit);
    let (wait_ns, n_wait) = stage(Stage::ReplyWait);
    let (process_ns, n_proc) = stage(Stage::ProcessReply);
    metrics.extend([
        Metric::sampled("protocol.client.request_ns", "ns", request_ns, n_req),
        Metric::sampled("net.port.submit_ns", "ns", submit_ns, n_sub),
        Metric::sampled(
            "net.port.reply_wait_us",
            "us",
            wait_ns.map(|v| v / 1e3),
            n_wait,
        ),
        Metric::sampled("protocol.client.process_reply_ns", "ns", process_ns, n_proc),
    ]);

    // The same op stream replayed single-threaded through the layers.
    let replayed = replay::run(spec, &ops);
    metrics.extend(replayed.metrics.iter().cloned());

    let untraced_get = m.load.untraced.get.median();
    let traced_get = m.load.traced.get.median();
    let accounted = match (untraced_get, request_ns, process_ns) {
        (Some(p50), Some(req), Some(proc_)) => {
            Some((req + replayed.get_path_ns + proc_) / p50 as f64)
        }
        _ => None,
    };
    let overhead = match (untraced_get, traced_get) {
        (Some(u), Some(t)) => Some(t as f64 / u as f64 - 1.0),
        _ => None,
    };
    metrics.extend([
        Metric::sampled(
            "trace.accounted_share",
            "share",
            accounted,
            m.load.untraced.get.len(),
        ),
        Metric::sampled(
            "trace.overhead_share",
            "share",
            overhead,
            m.load.traced.get.len(),
        ),
    ]);

    // End-to-end tails, reported here rather than gated: they did not repeat within a
    // usable bound on every workload (see README.md).
    let mut vis = Samples::default();
    m.load.visibility.iter().for_each(|&v| vis.push(v));
    let all = &mut m.load.untraced.all;
    metrics.extend([
        Metric::sampled("tail.op_p99_us", "us", us(all.percentile(0.99)), all.len()),
        Metric::sampled(
            "tail.visibility_p99_ms",
            "ms",
            ms(vis.percentile(0.99)),
            vis.len(),
        ),
    ]);

    let mut notes = vec![
        format!("spans_recorded: {}", m.load.spans.len()),
        format!(
            "untraced_get_p50_us: {:?}, traced_get_p50_us: {:?}",
            us(untraced_get),
            us(traced_get)
        ),
        format!("replayed_get_path_ns: {:.0}", replayed.get_path_ns),
        format!("host_steal_share: {host_steal}"),
    ];
    notes.extend(retry_notes);
    Ok(Outcome {
        attempted: m.load.attempted,
        failed: m.load.failed(),
        metrics,
        notes,
    })
}
