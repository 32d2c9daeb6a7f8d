//! Fixture: a bare call through a fn parameter (a closure) is not a call
//! to the workspace fn that shares its name, so holding a lock across it
//! composes nothing; a method call on a non-`self` receiver still links by
//! name alone.

use std::sync::{Mutex, PoisonError};

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

pub struct Engine {
    ingest: Mutex<u64>,
}

impl Engine {
    /// Takes `ingest`: the workspace fn named `run`.
    pub fn run(&self) -> u64 {
        *lock(&self.ingest)
    }

    /// Holds `ingest` across `run(..)`, which calls the closure parameter,
    /// not `Engine::run`: no finding.
    pub fn with_closure<F: Fn(u64) -> u64>(&self, run: &F) -> u64 {
        let held = lock(&self.ingest);
        run(*held)
    }

    /// Holds `ingest` across `other.run()`: without types the method call
    /// links to `Engine::run` by name, a re-entrant self-loop: finding.
    pub fn with_other(&self, other: &Engine) -> u64 {
        let held = lock(&self.ingest);
        *held + other.run()
    }
}
