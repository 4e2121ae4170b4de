//! The shipped assembly files parse, run, and behave as documented.

use mds::core::{CoreConfig, Policy, Simulator, TraceArtifacts};
use mds::isa::{parse_program, Interpreter};

#[test]
fn figure7_asm_file_round_trips_through_the_whole_stack() {
    let source =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/examples/figure7.s"))
            .expect("example file present");
    let program = parse_program(&source).expect("parses");
    let trace = Interpreter::new(program).run(1_000_000).expect("runs");
    assert!(trace.completed());
    assert_eq!(trace.counts().loads, 511);
    assert_eq!(trace.counts().stores, 511);

    // Its oracle dependences: every load but the first is fed by one
    // static store, from within a 128-entry window.
    let artifacts = TraceArtifacts::build(&trace);
    let mut dependent_loads = 0;
    let mut producer_sidx = None;
    for i in (0..trace.len()).filter(|&i| trace.inst(i).op.is_load()) {
        let Some(&youngest) = artifacts.oracle().producers(i).last() else {
            continue;
        };
        dependent_loads += 1;
        let sidx = trace.record(youngest as usize).sidx;
        assert_eq!(*producer_sidx.get_or_insert(sidx), sidx, "load {i}");
        assert!(i - youngest as usize <= 128, "load {i} fed from {youngest}");
    }
    assert_eq!(dependent_loads, 510);

    // And the documented policy behaviour: naive speculation trips over
    // the recurrence; synchronization learns it.
    let nav = Simulator::new(CoreConfig::paper_128().with_policy(Policy::NasNaive)).run(&trace);
    let sync = Simulator::new(CoreConfig::paper_128().with_policy(Policy::NasSync)).run(&trace);
    assert!(nav.stats.misspeculations > 100);
    assert!(sync.stats.misspeculations <= 3);
    assert!(sync.ipc() > nav.ipc());
}

#[test]
fn listing_of_a_parsed_file_reparses() {
    let source =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/examples/figure7.s"))
            .expect("example file present");
    let program = parse_program(&source).expect("parses");
    let listing = program.listing();
    let again = parse_program(&listing).expect("listing reparses");
    assert_eq!(program.insts(), again.insts());
}
