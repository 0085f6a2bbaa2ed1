//! Self-test of the trace-replay oracle: record an honest run, corrupt the
//! trace in targeted ways, and assert the oracle rejects each corruption
//! with the right violation kind.
//!
//! An oracle that accepts everything is worse than no oracle — these tests
//! are the only place its *rejection* paths are exercised against realistic
//! full traces (the `self-check` feature exercises the acceptance path on
//! every traced engine run in the workspace).

use ring_sched::unit::{run_unit, run_unit_faulty, UnitConfig};
use ring_sim::{
    check_report, check_run, Event, FaultPlan, Instance, OracleViolation, ProcFault, ProcFaultKind,
    RunReport, Trace, TraceFile, TraceLevel,
};

fn honest_run(inst: &Instance) -> RunReport {
    run_unit(inst, &UnitConfig::c1().with_trace())
        .expect("honest run")
        .report
}

/// Rebuilds the report around a tampered event list.
fn with_events(report: &RunReport, events: Vec<Event>) -> RunReport {
    let mut tampered = report.clone();
    tampered.trace = Trace::from_events(TraceLevel::Full, events);
    tampered
}

fn test_instance() -> Instance {
    Instance::from_loads(vec![30, 0, 0, 9, 0, 4, 0, 0])
}

#[test]
fn honest_traces_are_accepted() {
    let inst = test_instance();
    let report = honest_run(&inst);
    assert!(check_run(&inst, &report, None).is_empty());
}

#[test]
fn honest_faulty_traces_are_accepted() {
    let inst = test_instance();
    let mut plan = FaultPlan::new();
    plan.add_proc_fault(ProcFault {
        node: 0,
        from: 0,
        until: 3,
        kind: ProcFaultKind::Stall,
    });
    let run = run_unit_faulty(&inst, &UnitConfig::c2().with_trace(), &plan).expect("faulty run");
    assert!(check_run(&inst, &run.report, Some(&plan)).is_empty());
}

/// A job teleports: rewrite one `Sent` event to come from a node on the far
/// side of the ring, which never held that work. The conservation replay
/// must see a negative balance there.
#[test]
fn teleported_send_is_rejected() {
    let inst = test_instance();
    let report = honest_run(&inst);
    let mut events = report.trace.events().to_vec();
    let sent = events
        .iter()
        .position(|e| matches!(e, Event::Sent { node: 0, .. }))
        .expect("node 0 sends its pile");
    if let Event::Sent { node, .. } = &mut events[sent] {
        *node = 6; // an idle node that never held the pile
    }
    let violations = check_run(&inst, &with_events(&report, events), None);
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, OracleViolation::NegativeBalance { node: 6, .. })),
        "expected a NegativeBalance at the teleport source, got {violations:?}"
    );
}

/// A unit of work is processed twice in one step: duplicate a `Processed`
/// event. The oracle must flag the 2-units-per-step overwork (and the
/// conservation replay the surplus).
#[test]
fn double_processed_unit_is_rejected() {
    let inst = test_instance();
    let report = honest_run(&inst);
    let mut events = report.trace.events().to_vec();
    let i = events
        .iter()
        .position(|e| matches!(e, Event::Processed { units: 1, .. }))
        .expect("somebody worked");
    let dup = events[i];
    events.insert(i, dup);
    let violations = check_run(&inst, &with_events(&report, events), None);
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, OracleViolation::Overwork { units: 2, .. })),
        "expected Overwork, got {violations:?}"
    );
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, OracleViolation::TotalMismatch { .. })),
        "expected TotalMismatch from the duplicated unit, got {violations:?}"
    );
}

/// The I2 prefix-sum constraint is violated: shrink the cumulative
/// fractional acceptance a drop-off claims, so the accepted integral units
/// overrun `1 + ceil(R)`. The ledger replay must catch it — either as the
/// prefix overrun itself or as the ledger running backwards.
#[test]
fn violated_i2_prefix_sum_is_rejected() {
    let inst = test_instance();
    let report = honest_run(&inst);
    let m = inst.num_processors();
    let mut events = report.trace.events().to_vec();
    // Find a drop-off claiming several integral units and understate its
    // cumulative fractional ledger to (less than) nothing.
    let i = events
        .iter()
        .position(|e| matches!(e, Event::DroppedOff { units, .. } if *units >= 2))
        .expect("the pile origin drops several units at once");
    if let Event::DroppedOff {
        cum_accept_frac_bits,
        ..
    } = &mut events[i]
    {
        *cum_accept_frac_bits = 0.0f64.to_bits();
    }
    let violations = check_report(&with_events(&report, events), m, None);
    assert!(
        violations.iter().any(|v| matches!(
            v,
            OracleViolation::I2Exceeded { .. } | OracleViolation::NonMonotoneLedger { .. }
        )),
        "expected an I2/ledger violation, got {violations:?}"
    );
}

/// Same idea against I1: understate a bucket's cumulative fractional drop.
#[test]
fn violated_i1_prefix_sum_is_rejected() {
    let inst = test_instance();
    let report = honest_run(&inst);
    let m = inst.num_processors();
    let mut events = report.trace.events().to_vec();
    let i = events
        .iter()
        .position(|e| matches!(e, Event::DroppedOff { units, .. } if *units >= 2))
        .expect("the pile origin drops several units at once");
    if let Event::DroppedOff {
        cum_drop_frac_bits, ..
    } = &mut events[i]
    {
        *cum_drop_frac_bits = 0.0f64.to_bits();
    }
    let violations = check_report(&with_events(&report, events), m, None);
    assert!(
        violations.iter().any(|v| matches!(
            v,
            OracleViolation::I1Exceeded { .. } | OracleViolation::NonMonotoneLedger { .. }
        )),
        "expected an I1/ledger violation, got {violations:?}"
    );
}

/// Claiming work while stalled: take an honest fault-free trace and check
/// it against a plan that stalls the busiest node — every processing step
/// inside the stall epoch must be flagged.
#[test]
fn processing_during_a_stall_is_rejected() {
    let inst = test_instance();
    let report = honest_run(&inst);
    let m = inst.num_processors();
    let mut plan = FaultPlan::new();
    plan.add_proc_fault(ProcFault {
        node: 0,
        from: 0,
        until: 2,
        kind: ProcFaultKind::Stall,
    });
    let violations = check_report(&report, m, Some(&plan));
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, OracleViolation::ProcessedWhileStalled { node: 0, .. })),
        "expected ProcessedWhileStalled, got {violations:?}"
    );
}

/// A makespan that disagrees with the trace is caught even when every event
/// is individually plausible.
#[test]
fn inflated_makespan_is_rejected() {
    let inst = test_instance();
    let mut report = honest_run(&inst);
    report.makespan += 1;
    let violations = check_run(&inst, &report, None);
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, OracleViolation::MakespanMismatch { .. })),
        "expected MakespanMismatch, got {violations:?}"
    );
}

/// Dropping a `Sent` event entirely breaks conservation downstream: the
/// receiver processes work it never got.
#[test]
fn suppressed_send_is_rejected() {
    let inst = test_instance();
    let report = honest_run(&inst);
    let mut events = report.trace.events().to_vec();
    let i = events
        .iter()
        .position(|e| matches!(e, Event::Sent { job_units, .. } if *job_units > 0))
        .expect("work travels");
    events.remove(i);
    let violations = check_run(&inst, &with_events(&report, events), None);
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, OracleViolation::NegativeBalance { .. })),
        "expected NegativeBalance, got {violations:?}"
    );
}

/// An off-trace (metrics-only) report cannot be validated at all.
#[test]
fn untraced_reports_are_unavailable() {
    let inst = test_instance();
    let report = run_unit(&inst, &UnitConfig::c1()).unwrap().report;
    assert_eq!(
        check_run(&inst, &report, None),
        vec![OracleViolation::TraceUnavailable]
    );
}

/// The audit/processing cross-check: strip every `DroppedOff` event at one
/// node (as if the policy hid where its work came from) — the per-node sum
/// no longer matches what that node processed.
#[test]
fn hidden_dropoffs_are_rejected() {
    let inst = test_instance();
    let report = honest_run(&inst);
    let m = inst.num_processors();
    let events: Vec<Event> = report
        .trace
        .events()
        .iter()
        .filter(|e| !matches!(e, Event::DroppedOff { node: 0, .. }))
        .copied()
        .collect();
    let violations = check_report(&with_events(&report, events), m, None);
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, OracleViolation::DropAccountingMismatch { node: 0, .. })),
        "expected DropAccountingMismatch, got {violations:?}"
    );
}

/// The `(step, node)` cell an event belongs to.
fn cell(ev: &Event) -> (u64, usize) {
    match *ev {
        Event::Processed { t, node, .. }
        | Event::Sent { t, node, .. }
        | Event::SentOn { t, node, .. }
        | Event::DroppedOff { t, node, .. } => (t, node),
    }
}

/// Lists the cells of an ordered trace last step first and, within a
/// step, last node first, keeping each cell's own events in order — so a
/// stable sort by cell restores the input exactly.
fn cells_reversed(events: &[Event]) -> Vec<Event> {
    let mut cells: Vec<Vec<Event>> = Vec::new();
    for ev in events {
        match cells.last_mut() {
            Some(last) if cell(&last[0]) == cell(ev) => last.push(*ev),
            _ => cells.push(vec![*ev]),
        }
    }
    cells.reverse();
    cells.concat()
}

/// The oracle reads an out-of-order trace as its stably sorted copy: a
/// faulty run's trace, honest and tampered, gets exactly the violations of
/// the sorted copy, in the same order, from every entry point.
#[test]
fn out_of_order_traces_get_the_verdict_of_their_sorted_copy() {
    let inst = test_instance();
    let m = inst.num_processors();
    let mut plan = FaultPlan::new();
    plan.add_proc_fault(ProcFault {
        node: 0,
        from: 0,
        until: 3,
        kind: ProcFaultKind::Stall,
    });
    let run = run_unit_faulty(&inst, &UnitConfig::c2().with_trace(), &plan).expect("faulty run");
    let honest = run.report.trace.events().to_vec();

    // Tampered: a duplicated unit, a send out of a node that never held
    // the work, and work claimed inside the stall — then stably sorted, as
    // the oracle would sort it.
    let mut tampered = honest.clone();
    let i = tampered
        .iter()
        .position(|e| matches!(e, Event::Processed { units: 1, .. }))
        .expect("somebody worked");
    tampered.insert(i, tampered[i]);
    let s = tampered
        .iter()
        .position(|e| matches!(e, Event::Sent { job_units, .. } if *job_units > 0))
        .expect("work travels");
    if let Event::Sent { node, .. } = &mut tampered[s] {
        *node = (*node + m / 2) % m;
    }
    tampered.push(Event::Processed {
        t: 1,
        node: 0,
        units: 1,
    });
    tampered.sort_by_key(cell);

    for (label, sorted) in [("honest", honest), ("tampered", tampered)] {
        let shuffled = cells_reversed(&sorted);
        assert_ne!(shuffled, sorted, "{label}: the shuffle must reorder");
        let mut resorted = shuffled.clone();
        resorted.sort_by_key(cell);
        assert_eq!(
            resorted, sorted,
            "{label}: the shuffle keeps each cell's order"
        );

        let in_order = with_events(&run.report, sorted);
        let out_of_order = with_events(&run.report, shuffled);
        let expected = check_run(&inst, &in_order, Some(&plan));
        assert_eq!(
            check_run(&inst, &out_of_order, Some(&plan)),
            expected,
            "{label}: check_run"
        );
        assert_eq!(
            check_report(&out_of_order, m, Some(&plan)),
            check_report(&in_order, m, Some(&plan)),
            "{label}: check_report"
        );
        let file = |report: &RunReport| TraceFile::from_report(report, Some(&plan), label);
        assert_eq!(
            file(&out_of_order).check(),
            file(&in_order).check(),
            "{label}: TraceFile::check"
        );
        if label == "honest" {
            assert!(
                expected.is_empty(),
                "honest faulty run flagged: {expected:?}"
            );
        } else {
            for kind in [
                "Overwork",
                "NegativeBalance",
                "ProcessedWhileStalled",
                "TotalMismatch",
            ] {
                assert!(
                    expected.iter().any(|v| format!("{v:?}").starts_with(kind)),
                    "tampered run lacks {kind}: {expected:?}"
                );
            }
        }
    }
}
