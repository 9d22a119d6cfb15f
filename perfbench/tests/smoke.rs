//! One tiny run per workload, untraced and traced, through the same code paths as the
//! real benchmark: every correctness check (convergence, key count, every op answered,
//! monotonic marker reads, reply contents) must pass.

use perfbench::{bench, spec};
use std::sync::Mutex;

/// The metric names `BENCHMARK.json` lists in its `section` array, in order.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits next to perfbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("{section} missing"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("the array closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("the name closes")].to_string())
        .collect()
}

/// Runs are serialized: each starts a cluster, and the generator's schedule checks
/// assume the host is not shared with another run.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn smoke(name: &str) {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let spec = spec::find(name).expect("registered workload").tiny();
    let untraced = bench::untraced(&spec, 11, 1.0).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert!(untraced.attempted > 0);
    assert_eq!(untraced.failed, 0);
    let names: Vec<_> = untraced.metrics.iter().map(|m| m.name).collect();
    assert_eq!(names, declared("end_to_end"), "{name}: untraced metrics");
    let setup = untraced.metrics[0]
        .value
        .expect("set-up time is always measured");
    assert!(setup > 0.0);

    let traced = bench::traced(&spec, 12, 1.0).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(traced.failed, 0);
    let names: Vec<_> = traced.metrics.iter().map(|m| m.name).collect();
    assert_eq!(names, declared("per_layer"), "{name}: traced metrics");
    let metric = |n: &str| {
        traced
            .metrics
            .iter()
            .find(|m| m.name == n)
            .and_then(|m| m.value)
    };
    assert!(metric("runtime.server.cpu_us_per_op").unwrap() > 0.0);
    assert!(metric("engine.get_ns").unwrap() > 0.0);
    if spec.is_tcp() {
        assert!(metric("proto.codec.encode_request_ns").unwrap() > 0.0);
        assert!(metric("net.tcp.conn_reader.cpu_us_per_op").unwrap() > 0.0);
    } else {
        assert_eq!(metric("proto.codec.encode_request_ns"), Some(0.0));
        assert_eq!(metric("net.tcp.conn_reader.cpu_us_per_op"), Some(0.0));
    }
}

#[test]
fn tcp_rtt_smoke() {
    smoke("tcp_rtt");
}

#[test]
fn geo_writes_smoke() {
    smoke("geo_writes");
}

#[test]
fn cure_rotx_smoke() {
    smoke("cure_rotx");
}
