// Lint fixture for the hot-path-block rule. Scanned with the engine
// file's synthetic path so `step`, `rx_round` and `reclaim` count as
// hot-path fns while `control_plane_tick` does not. Never compiled.
use std::sync::{Mutex, RwLock};

pub struct Engine {
    queue: Mutex<Vec<u64>>,
    frame: RwLock<Vec<u8>>,
}

impl Engine {
    pub fn step(&self) {
        std::thread::sleep(std::time::Duration::from_millis(1));
        self.queue.lock().unwrap().push(1);
    }

    fn rx_round(&self) -> usize {
        // Near-misses: a guard accessor and a closure-taking one.
        let _ = self.frame.read_guard();
        self.frame.with_read(|frame| frame.len());
        self.frame.read().unwrap().len()
    }

    fn reclaim(&self) -> Vec<u8> {
        let _ = self.frame.write_guard();
        std::mem::take(&mut *self.frame.write().unwrap())
    }

    pub fn control_plane_tick(&self) {
        self.queue.lock().unwrap().clear();
        self.frame.write().unwrap().clear();
        let _ = self.frame.read().unwrap().first();
    }
}
