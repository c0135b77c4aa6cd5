//! Stream validation: the well-nestedness check the tracing test-suite
//! leans on. The derived statistics (per-worker busy time, steal
//! latency, task sizes) are [`analyze_log`](crate::analyze::analyze_log)'s.

use crate::{EventKind, WorkerTrace};

/// Check that one worker's stream is well-nested:
///
/// * no `TaskFinish` without a pending `TaskStart` (one leading orphan
///   `TaskFinish` is tolerated: a worker signals task completion before
///   recording the finish event, so the matching `TaskStart` may have
///   been drained by a previous `take`);
/// * `RegionBegin`/`RegionEnd` balanced, ending at depth zero;
/// * task depth zero at the end of the stream, or exactly one task
///   still open provided its `TaskStart` is the last task event (the
///   drain observed a task in flight);
/// * `Unpark` only after a pending `Park` (one leading `Unpark` is
///   tolerated: the matching `Park` may have been drained by a previous
///   `take`), and at most one trailing open `Park` (the worker may have
///   gone back to sleep before the drain);
/// * timestamps non-decreasing.
///
/// Streams that overflowed (`dropped > 0`) lost their oldest events and
/// are skipped — nesting cannot be judged from a suffix.
pub fn validate_well_nested(w: &WorkerTrace) -> Result<(), String> {
    if w.dropped > 0 {
        return Ok(());
    }
    let mut task_depth = 0i64;
    let mut region_depth = 0i64;
    let mut parked = false;
    let mut seen_any_park_event = false;
    let mut seen_task_event = false;
    let mut last_task_was_start = false;
    let mut last_t = 0u64;
    for (i, e) in w.events.iter().enumerate() {
        if e.t_ns < last_t {
            return Err(format!(
                "{}: event {i} goes back in time ({} < {last_t})",
                w.label, e.t_ns
            ));
        }
        last_t = e.t_ns;
        match e.kind {
            EventKind::TaskStart { .. } => {
                task_depth += 1;
                seen_task_event = true;
                last_task_was_start = true;
            }
            EventKind::TaskFinish => {
                task_depth -= 1;
                if task_depth < 0 {
                    if seen_task_event {
                        return Err(format!("{}: TaskFinish without TaskStart at {i}", w.label));
                    }
                    // Leading orphan: the start was drained previously.
                    task_depth = 0;
                }
                seen_task_event = true;
                last_task_was_start = false;
            }
            EventKind::RegionBegin { .. } => region_depth += 1,
            EventKind::RegionEnd => {
                region_depth -= 1;
                if region_depth < 0 {
                    return Err(format!("{}: RegionEnd without RegionBegin at {i}", w.label));
                }
            }
            EventKind::Park => {
                if parked {
                    return Err(format!("{}: Park while already parked at {i}", w.label));
                }
                parked = true;
                seen_any_park_event = true;
            }
            EventKind::Unpark => {
                if !parked && seen_any_park_event {
                    return Err(format!("{}: Unpark without Park at {i}", w.label));
                }
                parked = false;
                seen_any_park_event = true;
            }
            _ => {}
        }
    }
    let one_in_flight = task_depth == 1 && last_task_was_start;
    if task_depth != 0 && !one_in_flight {
        return Err(format!("{}: {task_depth} unfinished task(s)", w.label));
    }
    if region_depth != 0 {
        return Err(format!("{}: {region_depth} unclosed region(s)", w.label));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Event;

    fn ev(t_ns: u64, kind: EventKind) -> Event {
        Event { t_ns, kind }
    }

    fn track(events: Vec<Event>) -> WorkerTrace {
        WorkerTrace {
            label: "worker-0".into(),
            events,
            dropped: 0,
        }
    }

    #[test]
    fn validator_accepts_well_nested_stream() {
        let w = track(vec![
            ev(0, EventKind::RegionBegin { tasks: 2 }),
            ev(10, EventKind::TaskStart { size: 1 }),
            ev(20, EventKind::TaskFinish),
            ev(30, EventKind::RegionEnd),
            ev(40, EventKind::Park),
        ]);
        assert!(validate_well_nested(&w).is_ok());
    }

    #[test]
    fn validator_tolerates_drain_boundary_park_states() {
        // A previous take() consumed the Park; this capture starts with
        // the matching Unpark.
        let w = track(vec![
            ev(0, EventKind::Unpark),
            ev(10, EventKind::Park),
            ev(20, EventKind::Unpark),
        ]);
        assert!(validate_well_nested(&w).is_ok());
    }

    #[test]
    fn validator_tolerates_drain_boundary_task_states() {
        // A worker signals completion before recording TaskFinish, so a
        // drain can catch one task in flight (trailing open start) and
        // the next drain starts with the orphan finish.
        let in_flight = track(vec![
            ev(0, EventKind::TaskStart { size: 2 }),
            ev(10, EventKind::TaskFinish),
            ev(20, EventKind::TaskStart { size: 2 }),
        ]);
        assert!(validate_well_nested(&in_flight).is_ok());

        let orphan_finish = track(vec![
            ev(0, EventKind::TaskFinish),
            ev(10, EventKind::TaskStart { size: 2 }),
            ev(20, EventKind::TaskFinish),
        ]);
        assert!(validate_well_nested(&orphan_finish).is_ok());
    }

    #[test]
    fn validator_rejects_violations() {
        let unbalanced = track(vec![
            ev(0, EventKind::TaskStart { size: 1 }),
            ev(10, EventKind::TaskFinish),
            ev(20, EventKind::TaskFinish),
        ]);
        assert!(validate_well_nested(&unbalanced).is_err());

        // Two tasks still open is beyond the single in-flight tolerance.
        let two_open = track(vec![
            ev(0, EventKind::TaskStart { size: 1 }),
            ev(10, EventKind::TaskStart { size: 1 }),
        ]);
        assert!(validate_well_nested(&two_open).is_err());

        // An open task whose last task event is a finish (depth cannot
        // be explained by an in-flight drain).
        let open_not_trailing = track(vec![
            ev(0, EventKind::TaskStart { size: 1 }),
            ev(10, EventKind::TaskStart { size: 1 }),
            ev(20, EventKind::TaskFinish),
        ]);
        assert!(validate_well_nested(&open_not_trailing).is_err());

        let open_region = track(vec![ev(0, EventKind::RegionBegin { tasks: 1 })]);
        assert!(validate_well_nested(&open_region).is_err());

        let double_unpark = track(vec![
            ev(0, EventKind::Park),
            ev(1, EventKind::Unpark),
            ev(2, EventKind::Unpark),
        ]);
        assert!(validate_well_nested(&double_unpark).is_err());

        let time_travel = track(vec![ev(10, EventKind::Park), ev(5, EventKind::Unpark)]);
        assert!(validate_well_nested(&time_travel).is_err());
    }

    #[test]
    fn validator_skips_overflowed_streams() {
        let mut w = track(vec![ev(0, EventKind::TaskFinish)]);
        w.dropped = 3;
        assert!(validate_well_nested(&w).is_ok());
    }
}
