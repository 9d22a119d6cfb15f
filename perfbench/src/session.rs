//! A raw client session: a protocol [`Client`] plus a transport port, with request
//! routing and reply checking. The generator drives sessions directly (instead of
//! `ClusterClient`) so it can pipeline and time each call into the client library.

use crate::spec::{decode_value, value_for, Op, Spec, MARKER_SLOTS};
use pocc_proto::{ClientReply, ClientRequest, ProtocolClient};
use pocc_protocol::Client;
use pocc_runtime::{ClientPort, Cluster, RuntimeProtocol};
use pocc_storage::partition_for_key;
use pocc_types::{Key, ReplicaId, ServerId};

/// One client session homed in a data center.
pub struct Session {
    /// The protocol-level session (dependency tracking).
    pub client: Client,
    /// The transport port the session's requests and replies travel through.
    pub port: Box<dyn ClientPort>,
    replica: ReplicaId,
    partitions: usize,
    value_size: usize,
    markers: Vec<Key>,
}

impl Session {
    /// Opens a session in `replica`. Snapshot-serving protocols (Cure\*) get
    /// snapshot-read sessions, as `Cluster::client` does.
    pub fn open(cluster: &Cluster, spec: &Spec, replica: ReplicaId) -> Session {
        let (id, port) = cluster.open_port();
        let home = ServerId::new(replica, 0u32);
        let client = match cluster.protocol() {
            RuntimeProtocol::Cure | RuntimeProtocol::Adaptive => {
                Client::new_snapshot_reads(id, home, spec.replicas)
            }
            _ => Client::new(id, home, spec.replicas),
        };
        Session {
            client,
            port,
            replica,
            partitions: spec.partitions,
            value_size: spec.value_size,
            markers: (0..MARKER_SLOTS).map(|s| spec.marker_key(s)).collect(),
        }
    }

    /// The key a single-key operation touches (the first key of an RO-TX).
    pub fn key_of(&self, op: &Op) -> Key {
        match *op {
            Op::Get(k) | Op::Put(k) => k,
            Op::RoTx(keys) => keys[0],
            Op::Marker(slot) => self.markers[slot],
        }
    }

    /// The server an operation goes to: the owner of its key in the session's data
    /// center (for an RO-TX, the owner of the first key coordinates).
    pub fn target(&self, op: &Op) -> ServerId {
        ServerId::new(
            self.replica,
            partition_for_key(self.key_of(op), self.partitions),
        )
    }

    /// Builds the request for `op`; `seq` is the sequence number a PUT writes.
    pub fn request(&self, op: &Op, seq: u64) -> ClientRequest {
        match *op {
            Op::Get(k) => self.client.get(k),
            Op::Put(k) => self.client.put(k, value_for(k, seq, self.value_size)),
            Op::Marker(slot) => {
                let k = self.markers[slot];
                self.client.put(k, value_for(k, seq, self.value_size))
            }
            Op::RoTx(keys) => self.client.ro_tx(keys.to_vec()),
        }
    }

    /// Builds a GET of marker slot `slot`.
    pub fn marker_get(&self, slot: usize) -> (ServerId, ClientRequest) {
        let op = Op::Marker(slot);
        (self.target(&op), self.client.get(self.markers[slot]))
    }
}

/// Checks that `reply` is a correct answer to `op`: the right kind, every value read
/// belongs to the key it was read for, and every preloaded key reads a value. Returns the
/// sequence number a GET read.
pub fn check_reply(session: &Session, op: &Op, reply: &ClientReply) -> Result<u64, String> {
    match (op, reply) {
        (Op::Get(_) | Op::Marker(_), ClientReply::Get(resp)) => {
            let want = session.key_of(op);
            match resp.value.as_ref().and_then(decode_value) {
                Some((key, seq)) if key == want => Ok(seq),
                Some((key, _)) => Err(format!("GET {want:?} returned the value of {key:?}")),
                None => Err(format!(
                    "GET {want:?} returned no value for a preloaded key"
                )),
            }
        }
        (Op::Put(_) | Op::Marker(_), ClientReply::Put { update_time }) => {
            if update_time.0 == 0 {
                Err("PUT acknowledged with a zero update time".into())
            } else {
                Ok(0)
            }
        }
        (Op::RoTx(keys), ClientReply::RoTx { items }) => {
            if items.len() != keys.len() {
                return Err(format!(
                    "RO-TX of {} keys returned {} items",
                    keys.len(),
                    items.len()
                ));
            }
            for item in items {
                if !keys.contains(&item.key) {
                    return Err(format!("RO-TX returned unrequested key {:?}", item.key));
                }
                match item.response.value.as_ref().and_then(decode_value) {
                    Some((key, _)) if key == item.key => {}
                    _ => return Err(format!("RO-TX item {:?} has a wrong value", item.key)),
                }
            }
            Ok(0)
        }
        (_, ClientReply::SessionAborted { reason }) => Err(format!("session aborted: {reason}")),
        (op, reply) => Err(format!("reply {reply:?} does not answer {op:?}")),
    }
}

/// Finds which in-flight operation a reply answers. Replies from different servers (and
/// from different worker lanes of one server) may arrive out of order, so a GET reply is
/// matched by the key its value carries, an RO-TX reply by its key set, and a PUT reply
/// to the oldest in-flight PUT. The open loop never has a marker PUT in flight beside
/// another PUT, so a marker's reply is always its own.
pub fn match_reply<'a>(
    inflight: impl IntoIterator<Item = &'a Op>,
    reply: &ClientReply,
) -> Option<usize> {
    let mut inflight = inflight.into_iter();
    match reply {
        ClientReply::Get(resp) => {
            let (key, _) = resp.value.as_ref().and_then(decode_value)?;
            inflight.position(|op| matches!(op, Op::Get(k) if *k == key))
        }
        ClientReply::Put { .. } => inflight.position(|op| matches!(op, Op::Put(_) | Op::Marker(_))),
        ClientReply::RoTx { items } => inflight.position(|op| match op {
            Op::RoTx(keys) => {
                items.len() == keys.len() && items.iter().all(|i| keys.contains(&i.key))
            }
            _ => false,
        }),
        ClientReply::SessionAborted { .. } => None,
    }
}
