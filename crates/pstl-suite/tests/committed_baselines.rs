//! The committed `results/BENCH_*.json` baselines pass their own
//! experiment's gates without measuring again, every gate fails on a
//! copy of the baseline with that gate's value pushed past its bound,
//! and every committed scheduling-counter block has today's schema.

use pstl_executor::MetricsSnapshot;
use pstl_suite::experiments::{lookup, Check, REGISTRY};
use pstl_suite::gate::Gates;
use serde_json::Value;

/// One line per gate: the registry entry, a part of the gate's label,
/// then the `pointer=json` edits that push that gate past its bound (an
/// empty `json` removes the key).
const MUTANTS: &[&str] = &[
    r#"ext_skewed_real /makespan_ms/*/0 /makespan_ms/1/0="dynamic""#,
    r#"ext_skewed_real /makespan_ms/0/1 /makespan_ms/0/1=[]"#,
    r#"ext_skewed_real adaptive /uniform_dispatch/2/executed_tasks=33"#,
    r#"ext_find_position /real/*/mode /real/2/mode="eager""#,
    r#"ext_find_position /real/1/points/*/position /real/1/points/1/position="centre""#,
    r#"ext_find_position /real/1/points/0/time_vs_absent /real/1/points/0/time_vs_absent=0.5"#,
    r#"ext_find_position /real/2/points/0/early_exits /real/2/points/0/early_exits=2"#,
    r#"ext_find_position /real/1/points/0/wasted_chunks /real/1/points/0/wasted_chunks=0"#,
    r#"ext_find_position /real/0/points/3/early_exits /real/0/points/3/early_exits=1"#,
    r#"ext_find_position /real/2/points/3/wasted_chunks /real/2/points/3/wasted_chunks=3"#,
    r#"ext_find_position /real/0/points/0/wasted_chunks /real/0/points/0/wasted_chunks=33"#,
    r#"ext_find_position /sim/*/discipline /sim/0/discipline="fifo""#,
    r#"ext_find_position /sim/4/scanned_fraction /sim/4/scanned_fraction=0.5"#,
    r#"ext_numa_real /machines /machines=[]"#,
    r#"ext_numa_real /machines/0/steal_mix/*/order /machines/0/steal_mix/0/order="random""#,
    r#"ext_numa_real /machines/1/steal_mix/1/local_fraction /machines/1/steal_mix/1/local_fraction=-0.1"#,
    r#"ext_numa_real /machines/3/steal_mix/1/remote_steals /machines/3/steal_mix/1/remote_steals=1"#,
    r#"ext_numa_real /pool/steals /pool/steals=73"#,
    r#"ext_numa_real /pool/flat_remote_steals /pool/flat_remote_steals=1"#,
    r#"ext_profile /experiment /experiment="ext_other""#,
    r#"ext_profile /benchmarks /benchmarks/3="#,
    r#"ext_profile skewed /benchmarks/1/name="a" /benchmarks/2/name="b""#,
    r#"ext_profile /benchmarks/0/latency/task_duration_ns/p50 /benchmarks/0/latency=null"#,
    r#"ext_profile /benchmarks/0/latency/task_duration_ns/p50 /benchmarks/0/latency/task_duration_ns/p50=0"#,
    r#"ext_profile /benchmarks/1/latency/task_duration_ns/p99 /benchmarks/1/latency/task_duration_ns/p99=1"#,
    r#"ext_profile /benchmarks/2/latency/task_duration_ns/p999 /benchmarks/2/latency/task_duration_ns/p999=1"#,
    r#"ext_profile /benchmarks/3/profile/utilization /benchmarks/3/profile=null"#,
    r#"ext_profile /benchmarks/0/profile/utilization /benchmarks/0/profile/utilization=-0.1"#,
    r#"ext_profile /benchmarks/3/profile/utilization /benchmarks/3/profile/utilization=1.01"#,
    r#"ext_profile /benchmarks/1/profile/bottleneck /benchmarks/1/profile/bottleneck="cosmic_rays""#,
    r#"ext_service /experiment /experiment="ext_other""#,
    r#"ext_service /rows/0..6/name /rows/2/name="open_3x""#,
    r#"ext_service /rows/4/accounting_balanced /rows/4/accounting_balanced=false"#,
    r#"ext_service /gates/high_loss_fraction /gates/high_loss_fraction=0.01"#,
    r#"ext_service /gates/high_p99_ratio /gates/high_p99_ratio=3.01"#,
    r#"ext_service /gates/low_refusal_fraction /gates/low_refusal_fraction=0.0"#,
    r#"ext_stream /experiment /experiment="ext_other""#,
    r#"ext_stream /rows/*/name /rows/5/name="probe_farm3""#,
    r#"ext_stream /rows/1/produced /rows/1/produced=999999"#,
    r#"ext_stream /rows/3/consumed /rows/3/consumed=1023"#,
    r#"ext_stream /rows/2/dropped /rows/2/dropped=1"#,
    r#"ext_stream /rows/0/items /items=5"#,
    r#"ext_stream /rows/0/checksum /rows/0/checksum=6499877"#,
    r#"ext_stream /rows/2/checksum /rows/2/checksum=3811324511386966730"#,
    r#"ext_stream /rows/3/checksum /rows/3/checksum=1918505564095625566"#,
    // Off by one in the last digit: only an exact integer parse tells
    // these 64-bit checksums apart.
    r#"ext_stream /rows/5/checksum /rows/5/checksum=1918505564095625568"#,
    r#"ext_stream /gates/ordered_farm_makespan_ratio /gates/ordered_farm_makespan_ratio=2.01"#,
    r#"ext_stream /gates/farm2_over_seq_ratio /gates/farm2_over_seq_ratio=2.01"#,
    r#"kernel_calibrate reduce_f64_sum /kernels/0/speedup=1.4"#,
    r#"kernel_calibrate find_u32_absent /kernels/2/speedup=1.4"#,
    r#"kernel_calibrate reduce_u32_sum /kernels/1/speedup=0.9"#,
    r#"kernel_calibrate sort_u64_leaf /kernels/5/speedup=0.79"#,
    r#"kernel_calibrate digest_u32x64 /kernels/8/speedup=1.49"#,
];

/// The gates of the registry entry `name`, and its committed baseline.
fn committed(name: &str) -> (&'static Check, Value) {
    let check = lookup(name).and_then(|e| e.check.as_ref()).expect(name);
    let path = format!(
        "{}/../../results/{}",
        env!("CARGO_MANIFEST_DIR"),
        check.file
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    (
        check,
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e}")),
    )
}

/// Apply one `pointer=json` edit (an empty `json` removes the key or
/// the array element).
fn apply(doc: &mut Value, edit: &str) {
    let (pointer, json) = edit.split_once('=').unwrap();
    let (parent, key) = pointer.rsplit_once('/').unwrap();
    match (json, doc.pointer_mut(parent)) {
        ("", Some(Value::Object(fields))) => fields.retain(|(k, _)| k != key),
        ("", Some(Value::Array(items))) => drop(items.remove(key.parse().unwrap())),
        (_, Some(_)) => *doc.pointer_mut(pointer).unwrap() = serde_json::from_str(json).unwrap(),
        _ => panic!("no {pointer}"),
    }
}

/// The labels of the gates `check` fails on `doc`.
fn failed(check: &Check, doc: &Value, committed: &Value) -> Vec<String> {
    let mut g = Gates::default();
    (check.gates)(doc, committed, &mut g);
    g.0
}

#[test]
fn committed_baselines_pass_their_own_checks() {
    let gated: Vec<_> = REGISTRY.iter().filter(|e| e.check.is_some()).collect();
    assert_eq!(
        gated.len(),
        7,
        "partitioner, find, numa, profile, service, stream, kernels"
    );
    for e in gated {
        let (check, doc) = committed(e.name);
        assert!(
            MUTANTS.iter().any(|m| m.starts_with(e.name)),
            "no mutants for {}",
            e.name
        );
        assert_eq!(
            failed(check, &doc, &doc),
            Vec::<String>::new(),
            "{}",
            check.file
        );
    }
}

#[test]
fn every_gate_fails_when_pushed_past_its_bound() {
    for line in MUTANTS {
        let mut words = line.split(' ');
        let (entry, label) = (words.next().unwrap(), words.next().unwrap());
        let (check, doc) = committed(entry);
        let mut mutant = doc.clone();
        words.for_each(|edit| apply(&mut mutant, edit));
        let failed = failed(check, &mutant, &doc);
        assert!(
            failed.iter().any(|l| l.contains(label)),
            "{line}: failed {failed:?}"
        );
    }
}

#[test]
fn digest_gate_is_not_applicable_below_x86_64_v3() {
    let (check, mut doc) = committed("kernel_calibrate");
    apply(&mut doc, r#"/context/2/1="baseline""#);
    apply(&mut doc, "/kernels/8/speedup=1.0");
    assert_eq!(failed(check, &doc, &doc), Vec::<String>::new());
}

/// The sorted key names of a JSON object (empty for anything else).
fn keys(v: &Value) -> Vec<&str> {
    let mut keys: Vec<&str> = match v {
        Value::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => Vec::new(),
    };
    keys.sort_unstable();
    keys
}

#[test]
fn committed_sched_blocks_have_the_current_counter_keys() {
    let text = serde_json::to_string(&MetricsSnapshot::default()).unwrap();
    let fresh: Value = serde_json::from_str(&text).unwrap();
    let mut checked = 0;
    for e in REGISTRY.iter().filter(|e| e.check.is_some()) {
        let (check, doc) = committed(e.name);
        let benchmarks = doc.get("benchmarks").and_then(Value::as_array);
        for (i, b) in benchmarks.into_iter().flatten().enumerate() {
            if let Some(sched) = b.get("sched").filter(|s| !matches!(s, Value::Null)) {
                let at = format!("{} /benchmarks/{i}/sched", check.file);
                assert_eq!(keys(sched), keys(&fresh), "{at}");
                checked += 1;
            }
        }
    }
    assert!(checked > 0, "no committed sched block found");
}
