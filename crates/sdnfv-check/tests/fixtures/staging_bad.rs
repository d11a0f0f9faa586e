// Lint fixture for the hot-path-block rule over the ring's deferred
// publish and release: scanned with the ring's synthetic path, `stage`
// and `take` are hot-path fns while `resize` is not. Never compiled.
use std::sync::Mutex;

pub struct Ring {
    slots: Mutex<Vec<u64>>,
}

impl Ring {
    pub fn stage(&self, value: u64) {
        self.slots.lock().unwrap().push(value);
    }

    pub fn take(&self) -> Option<u64> {
        // Near-miss: a fn whose name only starts with a hot-path name.
        self.take_all().pop()
    }

    fn take_all(&self) -> Vec<u64> {
        std::mem::take(&mut *self.slots.lock().unwrap())
    }

    pub fn resize(&self) {
        self.slots.lock().unwrap().clear();
    }
}
