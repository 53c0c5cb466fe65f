//! The one scoped guard for integration tests that touch process-global
//! state: the obs metric store, the power memo, the flight-recorder
//! rings, the log sink, and the telemetry exporter.

use std::sync::{Mutex, MutexGuard};

/// Serializes every test in this binary that holds it.
static LOCK: Mutex<()> = Mutex::new(());

/// Takes the binary's lock, then resets every process-global through
/// [`qisim::reset_process_state`]. Hold the returned guard for the whole
/// test.
pub fn isolate() -> MutexGuard<'static, ()> {
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    qisim::reset_process_state();
    guard
}
