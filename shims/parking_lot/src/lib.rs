//! Offline stand-in for the `parking_lot` crate.
//!
//! Wraps the std lock types with `parking_lot`'s ergonomics: `lock()`,
//! `read()` and `write()` return guards directly instead of a poison
//! `Result`. Poisoning is deliberately ignored (a panicking holder just
//! passes the lock on), which matches parking_lot's behaviour of not
//! poisoning at all.

use std::sync::{self, LockResult};

/// The guard [`RwLock::write`] returns (`parking_lot` names it the same).
pub use std::sync::RwLockWriteGuard;

fn unpoison<G>(r: LockResult<G>) -> G {
    match r {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A reader-writer lock that does not poison.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Wraps a value.
    pub fn new(value: T) -> Self {
        RwLock {
            inner: sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        unpoison(self.inner.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access.
    pub fn read(&self) -> sync::RwLockReadGuard<'_, T> {
        unpoison(self.inner.read())
    }

    /// Acquires exclusive write access.
    pub fn write(&self) -> sync::RwLockWriteGuard<'_, T> {
        unpoison(self.inner.write())
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        unpoison(self.inner.get_mut())
    }
}

/// A mutual-exclusion lock that does not poison.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Wraps a value.
    pub fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        unpoison(self.inner.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock.
    pub fn lock(&self) -> sync::MutexGuard<'_, T> {
        unpoison(self.inner.lock())
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        unpoison(self.inner.get_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(1);
        assert_eq!(*l.read(), 1);
        *l.write() += 1;
        assert_eq!(*l.read(), 2);
        assert_eq!(l.into_inner(), 2);
    }

    #[test]
    fn mutex_survives_holder_panic() {
        let m = std::sync::Arc::new(Mutex::new(0));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("holder dies");
        })
        .join();
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }
}
