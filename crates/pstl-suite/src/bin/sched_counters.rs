//! Real-machine scheduling counters — the pool-side analog of the
//! paper's Table 3: run `X::for_each` (k_it = 1) per backend on *this*
//! host and report the scheduling work (task fragments, steals, parks)
//! each backend's discipline performed, normalized per call.
//!
//! The paper explains HPX's 2.2× instruction count over ICC-TBB as task
//! management; here the same story appears as task-fragment counts:
//! fork-join (GNU/NVC analog) touches one fragment per thread per call,
//! work stealing (TBB) a few per chunk, and the task pool (HPX) one per
//! chunk — orders of magnitude more traffic through the scheduler.
//!
//! ```text
//! sched_counters [--threads N] [--size-exp E] [--calls C]
//! ```

use pstl::ExecutionPolicy;
use pstl_sim::Backend;
use pstl_suite::backends::BackendHost;
use pstl_suite::output::{TableDoc, TableRow};
use pstl_suite::{kernels, workload};

fn main() -> std::io::Result<()> {
    let mut threads = std::env::var("PSTL_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let mut size_exp = 20u32;
    let mut calls = 20usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().expect("missing value");
        match arg.as_str() {
            "--threads" => threads = value().parse().expect("--threads"),
            "--size-exp" => size_exp = value().parse().expect("--size-exp"),
            "--calls" => calls = value().parse().expect("--calls"),
            other => panic!("unknown argument: {other}"),
        }
    }
    let n = 1usize << size_exp;
    println!(
        "scheduling counters: {calls} calls of for_each (k_it = 1) over 2^{size_exp} elements, {threads} threads\n"
    );

    let host = BackendHost::new(threads);
    let mut rows = Vec::new();
    for backend in Backend::paper_cpu_set() {
        let policy = host.policy_for(backend).unwrap();
        let pool = match &policy {
            ExecutionPolicy::Par { exec, .. } => exec.clone(),
            ExecutionPolicy::Seq => continue,
        };
        let mut data = workload::generate_increment(n);
        let before = pool.metrics().unwrap_or_default();
        for _ in 0..calls {
            kernels::run_for_each(&policy, &mut data, 1);
        }
        let delta = pool.metrics().unwrap_or_default().since(&before);
        rows.push(TableRow {
            label: backend.name().to_string(),
            values: vec![
                Some(delta.runs as f64 / calls as f64),
                Some(delta.tasks_executed as f64 / calls as f64),
                Some(delta.steals as f64 / calls as f64),
                Some(delta.steal_attempts as f64 / calls as f64),
                Some(delta.parks as f64 / calls as f64),
            ],
        });
    }
    let table = TableDoc {
        id: "sched_counters_real".into(),
        title: format!(
            "Per-call scheduling counters on this host ({threads} threads, 2^{size_exp} elements)"
        ),
        columns: vec![
            "regions/call".into(),
            "tasks/call".into(),
            "steals/call".into(),
            "steal_tries/call".into(),
            "parks/call".into(),
        ],
        rows,
    };
    table.emit()
}
