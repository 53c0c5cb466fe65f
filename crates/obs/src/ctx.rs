//! Request-scoped observability context: a thread-local request id that
//! every downstream signal — log records ([`crate::log`]), span
//! begin events, and flight-recorder instants ([`crate::trace`]) —
//! stamps automatically while a [`RequestScope`] is open.
//!
//! The context is deliberately tiny: one `u64` per thread (0 = none),
//! set by whoever owns the request boundary (`qisim-serve` assigns one
//! id per wire line) and read by the instrumentation layers. It never
//! crosses threads on its own; a fan-out that must carry the id hands
//! it to the worker explicitly.

use std::cell::Cell;

thread_local! {
    /// The calling thread's current request id (0 = no request scope).
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// The request id attached to the calling thread, if a [`RequestScope`]
/// is open.
#[inline]
pub fn current() -> Option<u64> {
    match CURRENT.with(Cell::get) {
        0 => None,
        id => Some(id),
    }
}

/// RAII guard scoping a request id to the calling thread: spans, trace
/// events, and log records emitted while the guard lives carry the id;
/// dropping it restores whatever was set before (scopes nest).
#[derive(Debug)]
pub struct RequestScope {
    prev: u64,
}

impl RequestScope {
    /// Sets `id` as the calling thread's request id until the guard
    /// drops. An `id` of 0 clears the context for the scope's duration.
    pub fn enter(id: u64) -> RequestScope {
        let prev = CURRENT.with(|c| c.replace(id));
        RequestScope { prev }
    }
}

impl Drop for RequestScope {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}
