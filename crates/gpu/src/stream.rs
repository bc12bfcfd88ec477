//! Asynchronous execution streams and events (the CUDA model).
//!
//! A [`Stream`] owns a dedicated thread that executes enqueued operations
//! strictly in order; `launch` returns immediately (asynchronous, like a
//! CUDA kernel launch), [`Stream::synchronize`] blocks until everything
//! enqueued so far has completed. [`Event`]s mark points in the stream that
//! the host — or another stream — can wait on, which is how the GPU worker
//! overlaps transfers with compute without blocking the coordinator (§V).

use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Sender};
use parking_lot::{Condvar, Mutex};

/// A host-visible synchronization point in a stream.
#[derive(Clone, Debug)]
pub struct Event {
    inner: Arc<(Mutex<bool>, Condvar)>,
}

impl Event {
    /// A fresh, untriggered event.
    pub fn new() -> Self {
        Event {
            inner: Arc::new((Mutex::new(false), Condvar::new())),
        }
    }

    /// Mark the event complete and wake all waiters.
    fn trigger(&self) {
        let (lock, cv) = &*self.inner;
        *lock.lock() = true;
        cv.notify_all();
    }

    /// True once the event has completed.
    pub fn query(&self) -> bool {
        *self.inner.0.lock()
    }

    /// Block until the event completes.
    pub fn wait(&self) {
        let (lock, cv) = &*self.inner;
        let mut done = lock.lock();
        while !*done {
            cv.wait(&mut done);
        }
    }
}

impl Default for Event {
    fn default() -> Self {
        Self::new()
    }
}

enum Op {
    Task(Box<dyn FnOnce() + Send>),
    Record(Event),
    Shutdown,
}

/// An ordered asynchronous work queue backed by one executor thread.
pub struct Stream {
    tx: Sender<Op>,
    handle: Option<JoinHandle<()>>,
    name: String,
}

impl Stream {
    /// Create a stream with a named executor thread.
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        let (tx, rx) = unbounded::<Op>();
        let thread_name = format!("gpu-stream-{name}");
        let handle = std::thread::Builder::new()
            .name(thread_name)
            .spawn(move || {
                while let Ok(op) = rx.recv() {
                    match op {
                        Op::Task(f) => f(),
                        Op::Record(e) => e.trigger(),
                        Op::Shutdown => break,
                    }
                }
            })
            .expect("spawn stream thread");
        Stream {
            tx,
            handle: Some(handle),
            name,
        }
    }

    /// Stream name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Enqueue a kernel; returns immediately.
    pub fn launch(&self, f: impl FnOnce() + Send + 'static) {
        self.tx
            .send(Op::Task(Box::new(f)))
            .expect("stream thread alive");
    }

    /// Enqueue an event; it triggers when all prior work completes.
    pub fn record_event(&self) -> Event {
        let e = Event::new();
        self.tx
            .send(Op::Record(e.clone()))
            .expect("stream thread alive");
        e
    }

    /// Make this stream wait for `event` (possibly recorded on another
    /// stream) before running subsequently enqueued work.
    pub fn wait_event(&self, event: Event) {
        self.launch(move || event.wait());
    }

    /// Block the host until all enqueued work has completed.
    pub fn synchronize(&self) {
        self.record_event().wait();
    }
}

impl Drop for Stream {
    fn drop(&mut self) {
        let _ = self.tx.send(Op::Shutdown);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for Stream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stream").field("name", &self.name).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn tasks_execute_in_order() {
        let s = Stream::new("t");
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..100 {
            let log = Arc::clone(&log);
            s.launch(move || log.lock().push(i));
        }
        s.synchronize();
        assert_eq!(*log.lock(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn launch_is_asynchronous() {
        let s = Stream::new("async");
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g2 = Arc::clone(&gate);
        // This task blocks the stream until we open the gate — launch must
        // still return immediately.
        s.launch(move || {
            let (l, cv) = &*g2;
            let mut open = l.lock();
            while !*open {
                cv.wait(&mut open);
            }
        });
        let done = Arc::new(AtomicUsize::new(0));
        let d2 = Arc::clone(&done);
        s.launch(move || {
            d2.store(1, Ordering::SeqCst);
        });
        // Second task cannot have run yet.
        assert_eq!(done.load(Ordering::SeqCst), 0);
        let (l, cv) = &*gate;
        *l.lock() = true;
        cv.notify_all();
        s.synchronize();
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn event_query_and_wait() {
        let s = Stream::new("ev");
        let e0 = Event::new();
        assert!(!e0.query());
        s.launch(|| std::thread::sleep(std::time::Duration::from_millis(10)));
        let e = s.record_event();
        e.wait();
        assert!(e.query());
    }

    #[test]
    fn cross_stream_dependency() {
        let s1 = Stream::new("producer");
        let s2 = Stream::new("consumer");
        let value = Arc::new(AtomicUsize::new(0));
        let v1 = Arc::clone(&value);
        s1.launch(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            v1.store(7, Ordering::SeqCst);
        });
        let e = s1.record_event();
        s2.wait_event(e);
        let v2 = Arc::clone(&value);
        let observed = Arc::new(AtomicUsize::new(999));
        let o2 = Arc::clone(&observed);
        s2.launch(move || {
            o2.store(v2.load(Ordering::SeqCst), Ordering::SeqCst);
        });
        s2.synchronize();
        assert_eq!(observed.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn drop_joins_cleanly() {
        let s = Stream::new("drop");
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        s.launch(move || {
            d.fetch_add(1, Ordering::SeqCst);
        });
        drop(s);
        // The executor drains its queue before Shutdown (FIFO), so the task ran.
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }
}
