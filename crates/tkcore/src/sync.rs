//! Poison-recovering lock helpers shared by every lock site in the crate.
//!
//! The serving stack isolates panics (a panicking sink or task never kills
//! its worker; see [`crate::CoreService`]), which means a thread *can*
//! unwind while holding one of the internal mutexes — the skyline caches,
//! the scheduler state, the service statistics.  A bare `.lock().unwrap()`
//! at any of those sites would convert that one contained panic into a
//! permanently wedged lock: every later caller — including innocent reads like
//! [`crate::ShardedEngine::cache_stats`] — would panic on the
//! [`PoisonError`].
//!
//! All of the crate's guarded state is either (a) rebuilt-on-demand cache
//! data whose worst post-panic failure mode is a redundant rebuild, or (b)
//! monotonic counters whose worst failure mode is one lost increment.  Both
//! are strictly better outcomes than a poisoned-forever lock, so the policy
//! — machine-enforced by the `poison-safe-locks` rule of `tkc-lint` — is:
//! library code never unwraps a lock result; it recovers the guard with the
//! helpers below.
//!
//! ```
//! use std::sync::Mutex;
//!
//! let cache = Mutex::new(vec![1, 2, 3]);
//! let guard = tkcore::sync::lock(&cache);
//! assert_eq!(guard.len(), 3);
//! ```

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Locks `mutex`, recovering the guard if a previous holder panicked.
///
/// This is the crate-wide replacement for `.lock().unwrap()`: a panic that
/// unwound through a critical section must not wedge every later caller
/// (the data behind the crate's locks is cache/counter state that stays
/// usable after an unwind; see the [module docs](self)).
pub fn lock<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Blocks on `condvar` until notified, recovering the reacquired guard if
/// another holder panicked while the caller slept.
///
/// Companion to [`lock`] for the crate's wait loops (pool scheduling,
/// service drain): condition re-checks live in the caller's loop, exactly
/// as with `Condvar::wait`.
pub fn wait<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;
    use std::time::Duration;

    /// Poisons `mutex` by panicking while its guard is held.
    fn poison<T>(mutex: &Mutex<T>) {
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _guard = mutex.lock().expect("not poisoned yet");
            panic!("poison the lock");
        }));
        assert!(result.is_err());
        assert!(mutex.is_poisoned());
    }

    #[test]
    fn lock_recovers_a_poisoned_mutex() {
        let mutex = Mutex::new(41);
        poison(&mutex);
        *lock(&mutex) += 1;
        assert_eq!(*lock(&mutex), 42, "guarded data stays usable");
    }

    #[test]
    fn wait_recovers_when_a_notifier_panicked_with_the_lock() {
        let shared = Arc::new((Mutex::new(false), Condvar::new()));
        let waiter = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let (mutex, condvar) = &*shared;
                let mut ready = lock(mutex);
                while !*ready {
                    ready = wait(condvar, ready);
                }
            })
        };
        // The notifier panics while holding the lock *after* setting the
        // flag: the waiter must reacquire the poisoned guard and exit.
        let (mutex, condvar) = &*shared;
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut ready = mutex.lock().expect("not poisoned yet");
            *ready = true;
            condvar.notify_all();
            // Give the waiter a chance to block on the reacquisition.
            std::thread::sleep(Duration::from_millis(10));
            panic!("poison while the waiter sleeps");
        }));
        assert!(result.is_err());
        waiter.join().expect("waiter recovered the poisoned guard");
    }
}
