//! Offline stand-in for `crossbeam`: scoped threads over
//! `std::thread::scope` and an unbounded multi-consumer channel.

use std::any::Any;

/// A scope handed to `scope`'s closure and to every spawned thread.
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

/// Handle to a scoped thread.
pub struct ScopedJoinHandle<'scope, T>(std::thread::ScopedJoinHandle<'scope, T>);

impl<T> ScopedJoinHandle<'_, T> {
    pub fn join(self) -> Result<T, Box<dyn Any + Send + 'static>> {
        self.0.join()
    }
}

impl<'scope, 'env> Scope<'scope, 'env> {
    pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
    where
        F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
        T: Send + 'scope,
    {
        let inner = self.inner;
        ScopedJoinHandle(inner.spawn(move || f(&Scope { inner })))
    }
}

/// Runs `f` with a scope whose threads are all joined before it returns.
/// A panic in an unjoined thread propagates as a panic (the published
/// crate returns it as `Err`); callers here `expect` either way.
pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    Ok(std::thread::scope(|s| f(&Scope { inner: s })))
}

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        ready: Condvar,
    }

    /// The value could not be sent: every receiver is gone. (This stand-in
    /// never reports it; receivers leaving early only drops the backlog.)
    #[derive(Debug)]
    pub struct SendError<T>(pub T);

    /// The channel is empty and every sender is gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    pub struct Sender<T>(Arc<Shared<T>>);
    pub struct Receiver<T>(Arc<Shared<T>>);

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
            }),
            ready: Condvar::new(),
        });
        (Sender(Arc::clone(&shared)), Receiver(shared))
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self
                .0
                .state
                .lock()
                .expect("channel lock poisoned by a panicking holder");
            state.queue.push_back(value);
            drop(state);
            self.0.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0
                .state
                .lock()
                .expect("channel lock poisoned by a panicking holder")
                .senders += 1;
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if let Ok(mut state) = self.0.state.lock() {
                state.senders -= 1;
                if state.senders == 0 {
                    self.0.ready.notify_all();
                }
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks for the next value; `Err` once the channel is empty and
        /// all senders are dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self
                .0
                .state
                .lock()
                .expect("channel lock poisoned by a panicking holder");
            loop {
                if let Some(value) = state.queue.pop_front() {
                    return Ok(value);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self
                    .0
                    .ready
                    .wait(state)
                    .expect("channel lock poisoned by a panicking holder");
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            Receiver(Arc::clone(&self.0))
        }
    }

    pub struct IntoIter<T>(Receiver<T>);

    impl<T> Iterator for IntoIter<T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.0.recv().ok()
        }
    }

    impl<T> IntoIterator for Receiver<T> {
        type Item = T;
        type IntoIter = IntoIter<T>;

        fn into_iter(self) -> IntoIter<T> {
            IntoIter(self)
        }
    }
}
