// Lint fixture for the hot-path-block rule over admission's per-packet
// fns: the header walk, the burst's credit grant and the bucket counts.
// Scanned with each admission file's synthetic path. Never compiled.
use std::sync::{Mutex, RwLock};

pub struct Admission {
    counts: Mutex<Vec<u64>>,
    credits: RwLock<usize>,
}

impl Admission {
    fn walk_headers(&self) -> usize {
        *self.credits.read().unwrap()
    }

    pub fn acquire_up_to(&self, n: usize) -> usize {
        std::thread::sleep(std::time::Duration::from_millis(1));
        n
    }

    pub fn admit(&self, bucket: usize) {
        self.counts.lock().unwrap()[bucket] += 1;
    }

    pub fn finish(&self) {
        *self.credits.write().unwrap() += 1;
    }

    pub fn resize(&self) {
        *self.credits.write().unwrap() = 0;
    }
}
