//! Per-thread CPU time and wakeups, read from `/proc/self/task`, grouped into layers by
//! thread name.
//!
//! CPU time is the first field of `/proc/self/task/<tid>/schedstat` (nanoseconds on the
//! CPU); wakeups are `voluntary_ctxt_switches` from `.../status` — each one is a thread
//! blocking and later being woken. Two snapshots taken around the measured window give
//! the per-layer cost; threads that appear only in the second snapshot are charged in
//! full, threads that vanished in between are dropped.

use std::collections::HashMap;
use std::fs;

/// The layer a thread belongs to, decided by its name prefix. Linux keeps 15 bytes of a
/// thread name, which every prefix below fits in.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Layer {
    /// `pocc-server-*`: a serial server, or the dispatcher in front of worker lanes.
    Server,
    /// `pocc-lane-*`: a worker lane of a shard-parallel server.
    Lane,
    /// `pocc-conn-*`: the TCP reader of one inbound server connection.
    ConnReader,
    /// `pocc-client-*`: the TCP reader of one client-port connection.
    ClientReader,
    /// `pocc-accept-*`: a TCP listener thread.
    Acceptor,
    /// `pocc-net-delay`: the channel transport's WAN delay thread.
    NetDelay,
    /// `bench-*`: the benchmark's own generator and probe threads.
    Generator,
    /// Anything else (the benchmark's main thread).
    Other,
}

impl Layer {
    /// Every layer, in reporting order.
    pub const ALL: [Layer; 8] = [
        Layer::Server,
        Layer::Lane,
        Layer::ConnReader,
        Layer::ClientReader,
        Layer::Acceptor,
        Layer::NetDelay,
        Layer::Generator,
        Layer::Other,
    ];

    /// Classifies a thread by its (possibly truncated) name.
    pub fn of_thread(name: &str) -> Layer {
        const PREFIXES: [(&str, Layer); 7] = [
            ("pocc-server", Layer::Server),
            ("pocc-lane", Layer::Lane),
            ("pocc-conn", Layer::ConnReader),
            ("pocc-client", Layer::ClientReader),
            ("pocc-accept", Layer::Acceptor),
            ("pocc-net-delay", Layer::NetDelay),
            ("bench-", Layer::Generator),
        ];
        PREFIXES
            .iter()
            .find(|(prefix, _)| name.starts_with(prefix))
            .map_or(Layer::Other, |&(_, layer)| layer)
    }

    /// Whether the layer is one of the cluster's own threads (what `cpu_us_per_op`
    /// charges): everything but the benchmark's threads.
    pub fn is_cluster(self) -> bool {
        !matches!(self, Layer::Generator | Layer::Other)
    }
}

/// One thread's counters at one instant.
#[derive(Clone, Debug, PartialEq)]
pub struct ThreadSample {
    /// The thread name.
    pub name: String,
    /// Nanoseconds spent on a CPU since the thread started.
    pub cpu_ns: u64,
    /// Voluntary context switches since the thread started.
    pub wakeups: u64,
}

/// Every thread of the process at one instant, by thread id.
pub type Snapshot = HashMap<u32, ThreadSample>;

fn read_thread(dir: &std::path::Path) -> Option<ThreadSample> {
    let comm = fs::read_to_string(dir.join("comm")).ok()?;
    let schedstat = fs::read_to_string(dir.join("schedstat")).ok()?;
    let status = fs::read_to_string(dir.join("status")).ok()?;
    let cpu_ns = schedstat.split_whitespace().next()?.parse().ok()?;
    let wakeups = status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))?
        .trim()
        .parse()
        .ok()?;
    Some(ThreadSample {
        name: comm.trim_end().to_string(),
        cpu_ns,
        wakeups,
    })
}

/// The calling thread's own counters (zero if `/proc` is unreadable). The benchmark's
/// generator threads sample themselves, because they exit before the window's closing
/// snapshot.
pub fn this_thread() -> ThreadSample {
    read_thread(std::path::Path::new("/proc/thread-self")).unwrap_or(ThreadSample {
        name: String::new(),
        cpu_ns: 0,
        wakeups: 0,
    })
}

/// Reads every thread of this process. Threads that exit while being read are skipped.
pub fn snapshot() -> Snapshot {
    let mut out = Snapshot::new();
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in tasks.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        if let Some(sample) = read_thread(&entry.path()) {
            out.insert(tid, sample);
        }
    }
    out
}

/// CPU time and wakeups per layer between two snapshots.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerUsage {
    cpu_ns: HashMap<Layer, u64>,
    wakeups: HashMap<Layer, u64>,
}

impl LayerUsage {
    /// The usage between `before` and `after`. A thread present only in `after` is
    /// charged from zero (it started inside the window).
    pub fn between(before: &Snapshot, after: &Snapshot) -> LayerUsage {
        let mut usage = LayerUsage::default();
        for (tid, now) in after {
            let (cpu0, wake0) = before
                .get(tid)
                .filter(|then| then.name == now.name)
                .map_or((0, 0), |then| (then.cpu_ns, then.wakeups));
            let layer = Layer::of_thread(&now.name);
            *usage.cpu_ns.entry(layer).or_default() += now.cpu_ns.saturating_sub(cpu0);
            *usage.wakeups.entry(layer).or_default() += now.wakeups.saturating_sub(wake0);
        }
        usage
    }

    /// CPU nanoseconds of one layer.
    pub fn cpu_ns(&self, layer: Layer) -> u64 {
        self.cpu_ns.get(&layer).copied().unwrap_or(0)
    }

    /// Wakeups of one layer.
    pub fn wakeups(&self, layer: Layer) -> u64 {
        self.wakeups.get(&layer).copied().unwrap_or(0)
    }

    /// CPU nanoseconds of all cluster threads.
    pub fn cluster_cpu_ns(&self) -> u64 {
        Layer::ALL
            .iter()
            .filter(|l| l.is_cluster())
            .map(|&l| self.cpu_ns(l))
            .sum()
    }

    /// Microseconds of CPU per operation for one layer.
    pub fn cpu_us_per_op(&self, layer: Layer, ops: u64) -> f64 {
        per_op(self.cpu_ns(layer) as f64 / 1e3, ops)
    }

    /// Wakeups per operation for one layer.
    pub fn wakeups_per_op(&self, layer: Layer, ops: u64) -> f64 {
        per_op(self.wakeups(layer) as f64, ops)
    }
}

/// CPU time the hypervisor gave to other guests, and all CPU time, in clock ticks since
/// boot, from the first line of `/proc/stat` (`None` where it cannot be read). On a
/// shared virtual host, a window in which the steal share rises runs every thread slower.
pub fn host_steal() -> Option<(u64, u64)> {
    parse_steal(fs::read_to_string("/proc/stat").ok()?.lines().next()?)
}

/// `(steal, total)` from the aggregate `cpu` line of `/proc/stat`: user, nice, system,
/// idle, iowait, irq, softirq, steal.
fn parse_steal(line: &str) -> Option<(u64, u64)> {
    let mut fields = line.split_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    let ticks: Vec<u64> = fields
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// `total / ops`, or 0 when nothing completed.
pub fn per_op(total: f64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        total / ops as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn thread(name: &str, cpu_ns: u64, wakeups: u64) -> ThreadSample {
        ThreadSample {
            name: name.into(),
            cpu_ns,
            wakeups,
        }
    }

    #[test]
    fn thread_names_map_to_layers() {
        assert_eq!(Layer::of_thread("pocc-server-dc0"), Layer::Server);
        assert_eq!(Layer::of_thread("pocc-lane-0-0-1"), Layer::Lane);
        assert_eq!(Layer::of_thread("pocc-conn-dc1/p0"), Layer::ConnReader);
        assert_eq!(Layer::of_thread("pocc-client-12"), Layer::ClientReader);
        assert_eq!(Layer::of_thread("pocc-accept-dc0"), Layer::Acceptor);
        assert_eq!(Layer::of_thread("pocc-net-delay"), Layer::NetDelay);
        assert_eq!(Layer::of_thread("bench-gen"), Layer::Generator);
        assert_eq!(Layer::of_thread("bench-probe"), Layer::Generator);
        assert_eq!(Layer::of_thread("perfbench"), Layer::Other);
        assert!(Layer::Server.is_cluster() && Layer::NetDelay.is_cluster());
        assert!(!Layer::Generator.is_cluster() && !Layer::Other.is_cluster());
    }

    #[test]
    fn usage_is_the_delta_between_two_samples() {
        let before: Snapshot = [
            (1, thread("pocc-server-dc0", 1_000, 10)),
            (2, thread("pocc-lane-0-0-0", 5_000, 3)),
            (3, thread("bench-gen", 100, 1)),
            (4, thread("pocc-conn-dc1", 700, 7)),
        ]
        .into_iter()
        .collect();
        let after: Snapshot = [
            (1, thread("pocc-server-dc0", 4_000, 30)),
            (2, thread("pocc-lane-0-0-0", 6_000, 4)),
            (3, thread("bench-gen", 900, 2)),
            // Started inside the window: charged from zero.
            (5, thread("pocc-client-7", 2_000, 5)),
            // Thread 4 exited: dropped.
        ]
        .into_iter()
        .collect();
        let usage = LayerUsage::between(&before, &after);
        assert_eq!(usage.cpu_ns(Layer::Server), 3_000);
        assert_eq!(usage.wakeups(Layer::Server), 20);
        assert_eq!(usage.cpu_ns(Layer::Lane), 1_000);
        assert_eq!(usage.cpu_ns(Layer::ClientReader), 2_000);
        assert_eq!(usage.cpu_ns(Layer::ConnReader), 0);
        assert_eq!(usage.cpu_ns(Layer::Generator), 800);
        // Cluster CPU excludes the generator.
        assert_eq!(usage.cluster_cpu_ns(), 6_000);
        // 3 000 ns over 1 000 ops = 3 ns = 0.003 µs per op; 20 wakeups over 10 ops.
        assert!((usage.cpu_us_per_op(Layer::Server, 1_000) - 0.003).abs() < 1e-12);
        assert_eq!(usage.wakeups_per_op(Layer::Server, 10), 2.0);
        assert_eq!(usage.wakeups_per_op(Layer::Server, 0), 0.0);
    }

    #[test]
    fn a_reused_thread_id_counts_from_zero() {
        let before: Snapshot = [(9, thread("pocc-client-1", 5_000, 50))]
            .into_iter()
            .collect();
        let after: Snapshot = [(9, thread("pocc-client-2", 1_000, 4))]
            .into_iter()
            .collect();
        let usage = LayerUsage::between(&before, &after);
        assert_eq!(usage.cpu_ns(Layer::ClientReader), 1_000);
        assert_eq!(usage.wakeups(Layer::ClientReader), 4);
    }

    #[test]
    fn this_process_is_readable() {
        let snap = snapshot();
        assert!(!snap.is_empty());
        assert!(snap.values().any(|t| t.cpu_ns > 0));
        let me = std::thread::Builder::new()
            .name("bench-selftest".into())
            .spawn(|| {
                // Sleeping deschedules the thread, which folds its run time so far into
                // the counters.
                std::thread::sleep(std::time::Duration::from_millis(1));
                this_thread()
            })
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(me.name, "bench-selftest");
        assert!(me.cpu_ns > 0);
        assert!(me.wakeups >= 1);
    }

    #[test]
    fn steal_comes_from_the_aggregate_cpu_line() {
        let line = "cpu  1685764 0 1026117 3329625 760 0 261291 120274 0 0";
        assert_eq!(
            parse_steal(line),
            Some((120274, 1685764 + 1026117 + 3329625 + 760 + 261291 + 120274))
        );
        assert_eq!(parse_steal("cpu0 1 2 3 4 5 6 7 8"), None);
        assert_eq!(parse_steal("cpu  1 2 3"), None);
    }
}
