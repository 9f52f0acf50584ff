//! `quiet_injected_panics` silences injected faults only. The hook is
//! process-global, so this check lives in its own test binary with a
//! single test.

use std::panic::{catch_unwind, panic_any};
use std::sync::atomic::{AtomicUsize, Ordering};

use gc_subiso::{quiet_injected_panics, InjectedFault};

static REACHED_PREVIOUS: AtomicUsize = AtomicUsize::new(0);

#[test]
fn genuine_panics_still_reach_the_previous_hook() {
    std::panic::set_hook(Box::new(|_| {
        REACHED_PREVIOUS.fetch_add(1, Ordering::SeqCst);
    }));
    quiet_injected_panics();
    quiet_injected_panics(); // idempotent: installs one hook

    assert!(catch_unwind(|| panic_any(InjectedFault("planned".into()))).is_err());
    assert_eq!(
        REACHED_PREVIOUS.load(Ordering::SeqCst),
        0,
        "an injected fault is silenced"
    );

    assert!(catch_unwind(|| panic!("a genuine bug")).is_err());
    assert_eq!(
        REACHED_PREVIOUS.load(Ordering::SeqCst),
        1,
        "any other panic is handed to the hook installed before"
    );
}
