//! The workloads and the seeded inputs they run on.
//!
//! Everything a run feeds the cluster — the preloaded dataset, the operation stream and
//! the arrival schedule — is generated from the seed before the clock starts.

use pocc_runtime::{RuntimeProtocol, TransportKind};
use pocc_types::{Key, PartitionId, Value};
use pocc_workload::{KeySpace, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Marker keys: the first ranks of partition 0, written only by marker PUTs and polled by
/// the visibility probe.
pub const MARKER_SLOTS: usize = 16;

/// Open-loop workloads write one marker every this long.
pub const MARKER_SPACING: Duration = Duration::from_millis(5);

/// Keys read by one RO-TX.
pub const ROTX_KEYS: usize = 4;

/// How the generator issues operations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Drive {
    /// One session with exactly one operation outstanding, each started on a fixed
    /// schedule at `rate` (or at once, when the previous one finished late). Markers are
    /// polled inline by the same thread, so nothing ever overlaps. Pacing keeps the
    /// operation count, and with it the share of fixed background CPU each operation
    /// carries, independent of how fast the host happened to run.
    Closed {
        /// Operations started per second.
        rate: f64,
    },
    /// A fixed arrival rate (operations per second) with up to `window` operations in
    /// flight; a second thread in DC1 probes marker visibility.
    Open {
        /// Offered operations per second.
        rate: f64,
        /// Maximum operations in flight.
        window: usize,
    },
}

/// One workload: the cluster it starts, the dataset it preloads and the load it drives.
#[derive(Clone, Debug)]
pub struct Spec {
    /// The registry name (`--workload`).
    pub name: &'static str,
    /// Protocol on every server.
    pub protocol: RuntimeProtocol,
    /// Transport between servers and clients.
    pub transport: TransportKind,
    /// Data centers.
    pub replicas: usize,
    /// Partitions per data center.
    pub partitions: usize,
    /// Worker lanes per server (1 = serial servers).
    pub lanes: usize,
    /// Preloaded keys per partition (marker keys included).
    pub keys_per_partition: u64,
    /// Bytes per value.
    pub value_size: usize,
    /// Zipf exponent of key popularity (0 = uniform).
    pub zipf_theta: f64,
    /// Percent of GET, PUT and RO-TX operations.
    pub mix: [u32; 3],
    /// How the load is driven.
    pub drive: Drive,
    /// One marker PUT every this many operations.
    pub marker_every: usize,
    /// Warm-up before the measured window, not recorded.
    pub warmup: Duration,
    /// Cluster set-ups (rounds) per untraced run; every metric is the median over the
    /// least-stolen half of them.
    pub setups: usize,
}

/// Every workload, in `BENCHMARK.json` order.
pub fn workloads() -> Vec<Spec> {
    let tcp_rtt = Spec {
        name: "tcp_rtt",
        protocol: RuntimeProtocol::Pocc,
        transport: TransportKind::Tcp,
        replicas: 2,
        partitions: 2,
        lanes: 1,
        keys_per_partition: 10_000,
        value_size: 64,
        zipf_theta: 0.0,
        mix: [80, 15, 5],
        drive: Drive::Closed { rate: 5_000.0 },
        marker_every: 50,
        warmup: Duration::from_millis(500),
        setups: 8,
    };
    let geo_writes = Spec {
        name: "geo_writes",
        transport: TransportKind::Channel,
        replicas: 3,
        partitions: 1,
        lanes: 2,
        keys_per_partition: 50_000,
        value_size: 1024,
        zipf_theta: 0.99,
        mix: [45, 45, 10],
        ..tcp_rtt.clone()
    }
    .open_loop(6_000.0, 32);
    let cure_rotx = Spec {
        name: "cure_rotx",
        protocol: RuntimeProtocol::Cure,
        transport: TransportKind::Channel,
        replicas: 3,
        mix: [20, 10, 70],
        ..tcp_rtt.clone()
    }
    .open_loop(4_000.0, 32);
    vec![tcp_rtt, geo_writes, cure_rotx]
}

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Spec> {
    workloads().into_iter().find(|s| s.name == name)
}

impl Spec {
    /// Drives the workload as an open loop at `rate` with up to `window` operations in
    /// flight, writing a marker every [`MARKER_SPACING`].
    pub fn open_loop(mut self, rate: f64, window: usize) -> Spec {
        self.drive = Drive::Open { rate, window };
        self.marker_every = ((rate * MARKER_SPACING.as_secs_f64()).round() as usize).max(1);
        self
    }

    /// Shrinks the workload for smoke tests: a small dataset, a low rate and a short
    /// warm-up, keeping the cluster shape, protocol and transport.
    pub fn tiny(mut self) -> Spec {
        self.keys_per_partition = 200;
        self.warmup = Duration::from_millis(100);
        self.setups = 1;
        match self.drive {
            Drive::Open { rate, window } => self.open_loop(rate.min(500.0), window),
            Drive::Closed { rate } => Spec {
                drive: Drive::Closed {
                    rate: rate.min(500.0),
                },
                ..self
            },
        }
    }

    /// The keyspace of the preloaded dataset.
    pub fn keyspace(&self) -> KeySpace {
        KeySpace::new(self.partitions, self.keys_per_partition)
    }

    /// The key of marker slot `slot`.
    pub fn marker_key(&self, slot: usize) -> Key {
        self.keyspace().key(PartitionId(0), slot as u64)
    }

    /// Whether the workload pays the TCP request path (codec and framing).
    pub fn is_tcp(&self) -> bool {
        self.transport == TransportKind::Tcp
    }

    /// Operations started per second.
    pub fn rate(&self) -> f64 {
        match self.drive {
            Drive::Open { rate, .. } | Drive::Closed { rate } => rate,
        }
    }
}

/// One generated operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Read one key.
    Get(Key),
    /// Write one key.
    Put(Key),
    /// Read several keys in one snapshot.
    RoTx([Key; ROTX_KEYS]),
    /// Write the next sequence number to a marker slot.
    Marker(usize),
}

/// The operation kinds latency is reported for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// GET.
    Get,
    /// PUT (marker PUTs included).
    Put,
    /// RO-TX.
    RoTx,
}

impl Op {
    /// The kind of reply this operation expects.
    pub fn kind(&self) -> Kind {
        match self {
            Op::Get(_) => Kind::Get,
            Op::Put(_) | Op::Marker(_) => Kind::Put,
            Op::RoTx(_) => Kind::RoTx,
        }
    }
}

/// Generates `count` operations of `spec` from `seed`. Every `marker_every`-th operation
/// is a marker PUT (slots in rotation); the rest follow the mix. Ordinary operations
/// never touch marker keys; an RO-TX reads distinct keys, spread over every partition
/// starting from a random one.
pub fn generate_ops(spec: &Spec, seed: u64, count: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let keyspace = spec.keyspace();
    let data_keys = spec.keys_per_partition - MARKER_SLOTS as u64;
    let zipf = Zipf::new(data_keys, spec.zipf_theta);
    let partitions = spec.partitions as u64;
    let key_in = |rng: &mut StdRng, partition: u64| {
        keyspace.key(
            PartitionId(partition as u32),
            MARKER_SLOTS as u64 + zipf.sample(rng),
        )
    };
    let [get, put, _] = spec.mix;
    let mut markers = 0usize;
    (0..count)
        .map(|i| {
            if spec.marker_every > 0 && i % spec.marker_every == spec.marker_every - 1 {
                markers += 1;
                return Op::Marker((markers - 1) % MARKER_SLOTS);
            }
            let roll = rng.gen_range(0..100u32);
            let partition = rng.gen_range(0..partitions);
            if roll < get {
                Op::Get(key_in(&mut rng, partition))
            } else if roll < get + put {
                Op::Put(key_in(&mut rng, partition))
            } else {
                let mut keys = [Key(0); ROTX_KEYS];
                for j in 0..ROTX_KEYS {
                    let p = (partition + j as u64) % partitions;
                    keys[j] = loop {
                        let k = key_in(&mut rng, p);
                        if !keys[..j].contains(&k) {
                            break k;
                        }
                    };
                }
                Op::RoTx(keys)
            }
        })
        .collect()
}

/// The value written to `key` carrying sequence number `seq`: the key and the sequence
/// number (little-endian), padded to `size` bytes. A read can therefore be checked
/// against the key it asked for, and a marker read yields its sequence number.
pub fn value_for(key: Key, seq: u64, size: usize) -> Value {
    let mut bytes = vec![0x5A_u8; size.max(16)];
    bytes[..8].copy_from_slice(&key.raw().to_le_bytes());
    bytes[8..16].copy_from_slice(&seq.to_le_bytes());
    Value::from(bytes)
}

/// The `(key, sequence number)` a value written by [`value_for`] carries.
pub fn decode_value(value: &Value) -> Option<(Key, u64)> {
    let bytes = value.as_slice();
    if bytes.len() < 16 {
        return None;
    }
    let key = u64::from_le_bytes(bytes[..8].try_into().ok()?);
    let seq = u64::from_le_bytes(bytes[8..16].try_into().ok()?);
    Some((Key(key), seq))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pocc_storage::partition_for_key;

    #[test]
    fn op_streams_depend_only_on_the_seed() {
        let spec = find("tcp_rtt").unwrap();
        assert_eq!(generate_ops(&spec, 7, 2_000), generate_ops(&spec, 7, 2_000));
        assert_ne!(generate_ops(&spec, 7, 2_000), generate_ops(&spec, 8, 2_000));
    }

    #[test]
    fn op_streams_follow_the_mix_and_avoid_marker_keys() {
        let spec = find("tcp_rtt").unwrap();
        let ops = generate_ops(&spec, 1, 20_000);
        let markers: Vec<Key> = (0..MARKER_SLOTS).map(|s| spec.marker_key(s)).collect();
        let (mut gets, mut rotx, mut marker_ops) = (0, 0, 0);
        for op in &ops {
            match op {
                Op::Get(k) | Op::Put(k) => {
                    assert!(!markers.contains(k));
                    gets += matches!(op, Op::Get(_)) as usize;
                }
                Op::RoTx(keys) => {
                    rotx += 1;
                    let parts: std::collections::HashSet<_> =
                        keys.iter().map(|&k| partition_for_key(k, 2)).collect();
                    assert_eq!(parts.len(), 2, "an RO-TX spans both partitions");
                }
                Op::Marker(_) => marker_ops += 1,
            }
        }
        assert_eq!(marker_ops, 20_000 / spec.marker_every);
        let regular = (20_000 - marker_ops) as f64;
        assert!((gets as f64 / regular - 0.80).abs() < 0.02);
        assert!((rotx as f64 / regular - 0.05).abs() < 0.01);
    }

    #[test]
    fn values_carry_key_and_sequence() {
        let v = value_for(Key(42), 7, 64);
        assert_eq!(v.as_slice().len(), 64);
        assert_eq!(decode_value(&v), Some((Key(42), 7)));
        assert_eq!(decode_value(&Value::from("short")), None);
    }
}
