//! The traced run's layer replay: the run's own op stream and dataset, pushed
//! single-threaded through each layer's public functions, one call timed at a time.
//!
//! Only operations served by partition 0 of DC0 are replayed (the server the layers
//! below are instantiated for). The layers are:
//!
//! * engine — a serial protocol server's `handle_client_request`,
//!   `handle_server_message` (remote replication) and `tick`;
//! * storage — a `ShardedStore`'s `insert`, `latest`, `latest_in_snapshot` and a final
//!   garbage collection;
//! * exec — `ParallelServer::submit_client` to the reply reaching a counting sink, at the
//!   workload's lane count;
//! * codec and framing (TCP workloads only) — the requests, replies and replication
//!   messages the engine replay produced, encoded and decoded, staged and re-framed.

use crate::report::Metric;
use crate::spec::{value_for, Op, Spec};
use crate::stats::Samples;
use crossbeam::channel::unbounded;
use pocc_clock::{MonotonicClock, SystemClock};
use pocc_cure::CureServer;
use pocc_exec::{OutputSink, ParallelServer};
use pocc_net::transport::frame::{FrameDecoder, FrameWriter};
use pocc_proto::{
    codec, ClientReply, ClientRequest, InstrumentedServer, ProtocolClient, ServerMessage,
    ServerOutput,
};
use pocc_protocol::{Client, PoccServer};
use pocc_runtime::RuntimeProtocol;
use pocc_storage::{partition_for_key, ShardedStore};
use pocc_types::{
    ClientId, DependencyVector, Key, PartitionId, ReplicaId, ServerId, Timestamp, Version,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// At most this many operations are replayed per layer.
const REPLAY_OPS: usize = 20_000;

/// Engine ticks are timed once per this many replayed operations.
const TICK_EVERY: usize = 64;

/// The replay's metrics, plus the replayed cost of one GET's blocking path below the
/// client library (the numerator of `trace.accounted_share`, without the generator's
/// own request and process-reply spans).
pub struct Replay {
    /// Per-layer metrics, in reporting order.
    pub metrics: Vec<Metric>,
    /// Nanoseconds a GET spends in the replayed layers.
    pub get_path_ns: f64,
}

fn time<R>(samples: &mut Samples, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    samples.push(t.elapsed().as_nanos() as u64);
    r
}

fn median(samples: &mut Samples) -> f64 {
    samples.median().map_or(0.0, |v| v as f64)
}

fn ns(name: &'static str, samples: &mut Samples) -> Metric {
    let n = samples.len();
    Metric::sampled(name, "ns", Some(median(samples)), n)
}

/// The partition-0 server of DC0, which the layer replays stand in for.
fn home() -> ServerId {
    ServerId::new(ReplicaId(0), 0u32)
}

/// The replayed operations: the GETs, PUTs and RO-TXs DC0's partition 0 serves, in
/// stream order (marker PUTs only feed the visibility probe and are left out).
fn local_ops(spec: &Spec, ops: &[Op]) -> Vec<Op> {
    ops.iter()
        .filter(|op| {
            let key = match op {
                Op::Get(k) | Op::Put(k) => *k,
                Op::RoTx(keys) => keys[0],
                Op::Marker(_) => return false,
            };
            partition_for_key(key, spec.partitions) == PartitionId(0)
        })
        .take(REPLAY_OPS)
        .copied()
        .collect()
}

fn partition0_keys(spec: &Spec) -> impl Iterator<Item = Key> {
    let keyspace = spec.keyspace();
    (0..spec.keys_per_partition).map(move |rank| keyspace.key(PartitionId(0), rank))
}

fn clock() -> MonotonicClock<SystemClock> {
    MonotonicClock::new(SystemClock::with_epoch(Instant::now()))
}

/// Runs every layer replay.
pub fn run(spec: &Spec, ops: &[Op]) -> Replay {
    let local = local_ops(spec, ops);
    let mut config = crate::setup::config(spec);
    config.worker_lanes = 1;

    // --- engine -------------------------------------------------------------------
    let mut server: Box<dyn InstrumentedServer> = match spec.protocol {
        RuntimeProtocol::Cure => Box::new(CureServer::new(home(), config.clone(), clock())),
        _ => Box::new(PoccServer::new(home(), config.clone(), clock())),
    };
    let client_id = ClientId(1);
    let mut loader = Client::new(ClientId(0), home(), spec.replicas);
    for key in partition0_keys(spec) {
        let outputs = server.handle_client_request(
            ClientId(0),
            loader.put(key, value_for(key, 0, spec.value_size)),
        );
        for out in outputs {
            if let ServerOutput::Reply { reply, .. } = out {
                let _ = loader.process_reply(&reply);
            }
        }
    }
    let mut session = match spec.protocol {
        RuntimeProtocol::Cure => Client::new_snapshot_reads(client_id, home(), spec.replicas),
        _ => Client::new(client_id, home(), spec.replicas),
    };
    let request_of = |session: &Client, op: &Op, seq: u64| match *op {
        Op::Get(k) => session.get(k),
        Op::Put(k) => session.put(k, value_for(k, seq, spec.value_size)),
        Op::RoTx(keys) => session.ro_tx(keys.to_vec()),
        Op::Marker(_) => unreachable!("markers are not replayed"),
    };
    let s = Samples::default;
    let (mut e_get, mut e_put, mut e_rotx, mut e_repl, mut e_tick) = (s(), s(), s(), s(), s());
    let (mut requests, mut replies, mut server_msgs) = (Vec::new(), Vec::new(), Vec::new());
    let remote = ServerId::new(ReplicaId(1), 0u32);
    let epoch = Instant::now();
    let mut remote_ts = 0u64;
    for (i, op) in local.iter().enumerate() {
        let request = request_of(&session, op, i as u64 + 1);
        requests.push(request.clone());
        let samples: &mut Samples = match op {
            Op::Get(_) => &mut e_get,
            Op::Put(_) | Op::Marker(_) => &mut e_put,
            Op::RoTx(_) => &mut e_rotx,
        };
        let outputs = time(samples, || server.handle_client_request(client_id, request));
        for out in outputs {
            match out {
                ServerOutput::Reply { reply, .. } => {
                    let _ = session.process_reply(&reply);
                    replies.push(reply);
                }
                ServerOutput::Send { message, .. } => server_msgs.push(message),
            }
        }
        // A remote write to the same key arriving from DC1.
        if let Op::Put(key) = op {
            remote_ts = (epoch.elapsed().as_micros() as u64).max(remote_ts + 1);
            let version = Version::new(
                *key,
                value_for(*key, 0, spec.value_size),
                ReplicaId(1),
                Timestamp(remote_ts),
                DependencyVector::zero(spec.replicas),
            );
            let message = ServerMessage::Replicate { version };
            time(&mut e_repl, || {
                server.handle_server_message(remote, message)
            });
        }
        if i % TICK_EVERY == TICK_EVERY - 1 {
            time(&mut e_tick, || server.tick());
        }
    }
    drop(server);
    let engine_get = median(&mut e_get);
    let mut metrics = vec![
        ns("engine.get_ns", &mut e_get),
        ns("engine.put_ns", &mut e_put),
        ns("engine.rotx_ns", &mut e_rotx),
        ns("engine.replicate_ns", &mut e_repl),
        ns("engine.tick_ns", &mut e_tick),
    ];

    // --- storage ------------------------------------------------------------------
    metrics.extend(storage(spec, &config, &local));

    // --- exec ---------------------------------------------------------------------
    let (exec_metric, exec_get_ns) = exec(spec, &local);
    metrics.push(exec_metric);

    // --- codec and framing ----------------------------------------------------------
    let (codec_metrics, wire_get_ns) = if spec.is_tcp() {
        codec_and_framing(&requests, &replies, &server_msgs)
    } else {
        let zero = |name| Metric::plain(name, "ns", 0.0);
        (
            vec![
                zero("proto.codec.encode_request_ns"),
                zero("proto.codec.decode_request_ns"),
                zero("proto.codec.encode_reply_ns"),
                zero("proto.codec.decode_reply_ns"),
                zero("proto.codec.encode_server_msg_ns"),
                zero("proto.codec.decode_server_msg_ns"),
                Metric::plain("proto.codec.request_bytes", "B", 0.0),
                Metric::plain("proto.codec.reply_bytes", "B", 0.0),
                zero("net.frame.stage_ns"),
                zero("net.frame.decode_ns"),
            ],
            0.0,
        )
    };
    metrics.extend(codec_metrics);

    // A GET's path below the client library: through the wire (TCP only), then either
    // the serial engine or the lane pipeline.
    let server_get = if spec.lanes > 1 {
        exec_get_ns
    } else {
        engine_get
    };
    Replay {
        metrics,
        get_path_ns: wire_get_ns + server_get,
    }
}

fn storage(spec: &Spec, config: &pocc_types::Config, local: &[Op]) -> Vec<Metric> {
    let store = ShardedStore::with_shards(PartitionId(0), spec.partitions, config.storage_shards);
    let version = |key: Key, ts: u64| {
        Version::new(
            key,
            value_for(key, ts, spec.value_size),
            ReplicaId(0),
            Timestamp(ts),
            DependencyVector::zero(spec.replicas),
        )
    };
    let mut ts = 0u64;
    for key in partition0_keys(spec) {
        ts += 1;
        store
            .insert(version(key, ts))
            .expect("partition-0 keys belong to the store");
    }
    let (mut insert, mut latest, mut snapshot) =
        (Samples::default(), Samples::default(), Samples::default());
    for op in local {
        match *op {
            Op::Get(k) => {
                time(&mut latest, || store.latest(k));
            }
            Op::Put(key) => {
                ts += 1;
                let v = version(key, ts);
                time(&mut insert, || store.insert(v)).expect("owned key");
            }
            Op::Marker(_) => {}
            Op::RoTx(keys) => {
                let tv = DependencyVector::from_entries(vec![Timestamp(ts); spec.replicas]);
                for k in keys
                    .into_iter()
                    .filter(|&k| partition_for_key(k, spec.partitions) == PartitionId(0))
                {
                    time(&mut snapshot, || store.latest_in_snapshot(k, &tv));
                }
            }
        }
    }
    let gv = DependencyVector::from_entries(vec![Timestamp(ts); spec.replicas]);
    let t = Instant::now();
    let removed = store.collect_garbage(&gv);
    let gc_ns = t.elapsed().as_nanos() as f64;
    vec![
        ns("storage.insert_ns", &mut insert),
        ns("storage.latest_ns", &mut latest),
        ns("storage.snapshot_read_ns", &mut snapshot),
        Metric::plain(
            "storage.gc_ns_per_version",
            "ns",
            if removed == 0 {
                0.0
            } else {
                gc_ns / removed as f64
            },
        ),
    ]
}

/// Replays the local GETs and PUTs through a `ParallelServer`, one at a time, timing
/// submission to the reply reaching the sink. Returns the metric and the GET median.
fn exec(spec: &Spec, local: &[Op]) -> (Metric, f64) {
    let mut config = crate::setup::config(spec);
    config.worker_lanes = spec.lanes;
    let (tx, rx) = unbounded();
    let sink: OutputSink = Arc::new(move |out| {
        if let ServerOutput::Reply { reply, .. } = out {
            let _ = tx.send((Instant::now(), reply));
        }
    });
    let mut server = ParallelServer::start(home(), config, spec.protocol.into(), clock(), sink);
    let wait = Duration::from_secs(10);
    let mut loader = Client::new(ClientId(0), home(), spec.replicas);
    let mut outstanding = 0usize;
    for key in partition0_keys(spec) {
        let request = loader.put(key, value_for(key, 0, spec.value_size));
        server
            .submit_client(ClientId(0), request)
            .expect("lanes run");
        outstanding += 1;
        if outstanding == 256 {
            while outstanding > 0 {
                let (_, reply) = rx.recv_timeout(wait).expect("preload replies");
                let _ = loader.process_reply(&reply);
                outstanding -= 1;
            }
        }
    }
    for _ in 0..outstanding {
        rx.recv_timeout(wait).expect("preload replies");
    }
    let mut session = Client::new(ClientId(1), home(), spec.replicas);
    let (mut all, mut gets) = (Samples::default(), Samples::default());
    for (i, op) in local.iter().enumerate() {
        let request: ClientRequest = match *op {
            Op::Get(k) => session.get(k),
            Op::Put(k) => session.put(k, value_for(k, i as u64 + 1, spec.value_size)),
            // RO-TX and marker traffic are not part of this stage's replay.
            _ => continue,
        };
        let t = Instant::now();
        server
            .submit_client(ClientId(1), request)
            .expect("lanes run");
        let (at, reply) = rx.recv_timeout(wait).expect("the lane replies");
        let _ = session.process_reply(&reply);
        let ns = (at - t).as_nanos() as u64;
        all.push(ns);
        if matches!(op, Op::Get(_)) {
            gets.push(ns);
        }
    }
    server.shutdown();
    let n = all.len();
    let metric = Metric::sampled(
        "exec.submit_to_reply_us",
        "us",
        Some(median(&mut all) / 1e3),
        n,
    );
    (metric, median(&mut gets))
}

/// Times the codec and the framing over the replay's own traffic. Returns the metrics
/// and a GET's wire path: request encode + decode, reply encode + decode, and two frames
/// staged and decoded.
fn codec_and_framing(
    requests: &[ClientRequest],
    replies: &[ClientReply],
    server_msgs: &[ServerMessage],
) -> (Vec<Metric>, f64) {
    let s = Samples::default;
    let (mut enc_req, mut dec_req, mut req_bytes) = (s(), s(), s());
    let (mut enc_rep, mut dec_rep, mut rep_bytes) = (s(), s(), s());
    let (mut enc_msg, mut dec_msg) = (s(), s());
    let (mut get_enc_req, mut get_dec_req, mut get_enc_rep, mut get_dec_rep) = (s(), s(), s(), s());
    for request in requests {
        let bytes = time(&mut enc_req, || codec::encode_request(request)).expect("requests encode");
        req_bytes.push(bytes.len() as u64);
        time(&mut dec_req, || codec::decode_request(bytes)).expect("requests decode");
        if matches!(request, ClientRequest::Get { .. }) {
            get_enc_req.push(enc_req.last());
            get_dec_req.push(dec_req.last());
        }
    }
    for reply in replies {
        let bytes = time(&mut enc_rep, || codec::encode_reply(reply)).expect("replies encode");
        rep_bytes.push(bytes.len() as u64);
        time(&mut dec_rep, || codec::decode_reply(bytes)).expect("replies decode");
        if matches!(reply, ClientReply::Get(_)) {
            get_enc_rep.push(enc_rep.last());
            get_dec_rep.push(dec_rep.last());
        }
    }
    for message in server_msgs {
        let bytes = time(&mut enc_msg, || codec::encode_server_message(message))
            .expect("server messages encode");
        time(&mut dec_msg, || codec::decode_server_message(bytes)).expect("messages decode");
    }
    let mut writer = FrameWriter::new();
    let mut decoder = FrameDecoder::new();
    let (mut stage, mut decode) = (Samples::default(), Samples::default());
    let frames = requests
        .iter()
        .map(|r| (Some(r), None))
        .chain(replies.iter().map(|r| (None, Some(r))));
    for (request, reply) in frames {
        time(&mut stage, || match (request, reply) {
            (Some(r), _) => writer.stage_request(r),
            (_, Some(r)) => writer.stage_reply(r),
            _ => unreachable!(),
        })
        .expect("frames stage");
        decoder.extend(writer.bytes());
        writer.clear();
        time(&mut decode, || decoder.next_frame())
            .expect("frames decode")
            .expect("a whole frame is buffered");
    }
    let frame_ns = median(&mut stage) + median(&mut decode);
    let wire_get_ns = median(&mut get_enc_req)
        + median(&mut get_dec_req)
        + median(&mut get_enc_rep)
        + median(&mut get_dec_rep)
        + 2.0 * frame_ns;
    let bytes = |name, s: &mut Samples| {
        let n = s.len();
        Metric::sampled(name, "B", Some(median(s)), n)
    };
    let metrics = vec![
        ns("proto.codec.encode_request_ns", &mut enc_req),
        ns("proto.codec.decode_request_ns", &mut dec_req),
        ns("proto.codec.encode_reply_ns", &mut enc_rep),
        ns("proto.codec.decode_reply_ns", &mut dec_rep),
        ns("proto.codec.encode_server_msg_ns", &mut enc_msg),
        ns("proto.codec.decode_server_msg_ns", &mut dec_msg),
        bytes("proto.codec.request_bytes", &mut req_bytes),
        bytes("proto.codec.reply_bytes", &mut rep_bytes),
        ns("net.frame.stage_ns", &mut stage),
        ns("net.frame.decode_ns", &mut decode),
    ];
    (metrics, wire_get_ns)
}
