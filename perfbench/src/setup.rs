//! Cluster set-up: start, preload the dataset through a client session, and wait until
//! every replica holds all of it; plus the convergence check that ends every run.

use crate::session::Session;
use crate::spec::{value_for, Spec};
use pocc_proto::{ClientReply, ProtocolClient};
use pocc_runtime::Cluster;
use pocc_types::{Config, LatencyMatrix, PartitionId, ReplicaId};
use std::time::{Duration, Instant};

/// PUTs in flight while preloading.
const PRELOAD_WINDOW: usize = 256;

/// How long replicas may take to converge, after the preload or after a run.
pub const CONVERGE_TIMEOUT: Duration = Duration::from_secs(60);

/// The deployment configuration of a workload: 100 µs intra-DC and 5 ms inter-DC delay
/// (injected by the channel transport; the TCP transport adds none).
pub fn config(spec: &Spec) -> Config {
    Config::builder()
        .num_replicas(spec.replicas)
        .num_partitions(spec.partitions)
        .worker_lanes(spec.lanes)
        .latency(LatencyMatrix::uniform(
            spec.replicas,
            Duration::from_micros(100),
            Duration::from_millis(5),
        ))
        .build()
        .expect("workload deployments are valid")
}

/// Starts the workload's cluster, preloads every key from a DC0 session and waits for
/// every replica to hold the whole dataset.
pub fn start(spec: &Spec) -> Result<Cluster, String> {
    let cluster = Cluster::builder()
        .config(config(spec))
        .protocol(spec.protocol)
        .transport(spec.transport)
        .start();
    preload(&cluster, spec)?;
    wait_converged(&cluster, spec, CONVERGE_TIMEOUT)?;
    Ok(cluster)
}

/// Writes sequence number 0 to every key of the dataset, pipelined.
fn preload(cluster: &Cluster, spec: &Spec) -> Result<(), String> {
    let keyspace = spec.keyspace();
    let mut session = Session::open(cluster, spec, ReplicaId(0));
    let keys = (0..spec.partitions).flat_map(|p| {
        (0..spec.keys_per_partition).map(move |rank| keyspace.key(PartitionId(p as u32), rank))
    });
    let mut outstanding = 0usize;
    let await_one = |session: &mut Session| -> Result<(), String> {
        let reply = session
            .port
            .recv_timeout(crate::drive::REPLY_TIMEOUT)
            .map_err(|e| format!("preload PUT got no reply: {e}"))?;
        match reply {
            ClientReply::Put { .. } => session
                .client
                .process_reply(&reply)
                .map_err(|e| format!("preload reply rejected: {e}")),
            other => Err(format!("preload PUT answered with {other:?}")),
        }
    };
    for key in keys {
        if outstanding == PRELOAD_WINDOW {
            await_one(&mut session)?;
            outstanding -= 1;
        }
        let target = session.target(&crate::spec::Op::Put(key));
        let request = session.client.put(key, value_for(key, 0, spec.value_size));
        session
            .port
            .submit(target, request)
            .map_err(|e| format!("preload submit failed: {e}"))?;
        outstanding += 1;
    }
    for _ in 0..outstanding {
        await_one(&mut session)?;
    }
    Ok(())
}

/// Why the replicas do not (yet) agree, or `None` when every replica of every partition
/// holds the same latest version of every key and exactly the preloaded key count.
fn divergence(cluster: &Cluster, spec: &Spec) -> Option<String> {
    let probes = cluster.probe_all();
    for p in 0..spec.partitions as u32 {
        let replicas: Vec<_> = probes
            .iter()
            .filter(|(id, _)| id.partition == PartitionId(p))
            .collect();
        for (id, probe) in &replicas {
            if probe.digest.len() as u64 != spec.keys_per_partition {
                return Some(format!(
                    "server {id} holds {} keys, the dataset has {}",
                    probe.digest.len(),
                    spec.keys_per_partition
                ));
            }
        }
        if let Some(w) = replicas.windows(2).find(|w| w[0].1.digest != w[1].1.digest) {
            return Some(format!("servers {} and {} disagree", w[0].0, w[1].0));
        }
    }
    None
}

/// Waits until [`divergence`] reports nothing, or fails with its last finding. Checks
/// again after 1 ms, or after as long as the last check took if that was longer (a check
/// runs on every server thread), so `setup_s` follows the moment replicas converge
/// rather than a polling period.
pub fn wait_converged(cluster: &Cluster, spec: &Spec, timeout: Duration) -> Result<(), String> {
    let deadline = Instant::now() + timeout;
    loop {
        let checked = Instant::now();
        match divergence(cluster, spec) {
            None => return Ok(()),
            Some(why) if Instant::now() > deadline => {
                return Err(format!("replicas did not converge: {why}"))
            }
            Some(_) => std::thread::sleep(checked.elapsed().max(Duration::from_millis(1))),
        }
    }
}
